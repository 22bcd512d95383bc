(* classify-cold and classify-warm: Corpus.Pipeline.run over a
   million-report corpus, into a fresh store each pass (cold) or
   against a store filled during set-up and reopened each pass (warm). *)

open Workload
module P = Corpus.Pipeline
module C = Corpus.Classifier
module Synth = Vulndb.Synth

let get = function Ok v -> v | Error e -> failwith (Synth.error_to_string e)

(* The real entry point, as [dfsm classify --json [--store DIR]] calls
   it; the rendered result and the store's counters for the call. *)
let classify ctx ~store =
  let run () =
    P.to_json (get (P.run ~seed:ctx.seed ~total:ctx.sizes.total ~chunk:ctx.sizes.chunk ()))
  in
  match store with
  | None -> (run (), Store.Disk.zero_stats)
  | Some dir ->
      let disk = Store.Disk.open_ ~dir in
      let json = Store.Handle.with_store (Some disk) run in
      (json, Store.Disk.stats disk)

(* ---- the traced replay ------------------------------------------- *)

(* Pipeline's record keys, mirrored so that the replay reads and writes
   the records a real sweep does.  If the layout drifts, the replay's
   store counters stop matching the real sweep's and the check fails. *)
let key fmt = Printf.ksprintf (fun s -> Digest.to_hex (Digest.string s)) fmt

let category_index =
  let tbl = Hashtbl.create 16 in
  List.iteri (fun i c -> Hashtbl.replace tbl c i) Vulndb.Category.all;
  Hashtbl.find tbl

(* Pipeline.run rebuilt from the public functions it calls, each call
   inside a span.  Returns the rendered result, the store's counters,
   the reports generated and the bytes through the codec. *)
let replay ctx ~dir =
  let seed = ctx.seed and total = ctx.sizes.total and chunk = ctx.sizes.chunk in
  let generated = Atomic.make 0 and bytes = Atomic.make 0 in
  let disk = Tracer.span "store.disk.open" (fun () -> Store.Disk.open_ ~dir) in
  let find key = Tracer.span "store.disk.find" (fun () -> Store.Disk.find disk ~key) in
  let put ~tag key v =
    let payload =
      Tracer.span "store.codec.encode" (fun () -> Store.Codec.to_payload ~tag v)
    in
    ignore (Atomic.fetch_and_add bytes (String.length payload));
    Tracer.span "store.disk.put" (fun () -> Store.Disk.put disk ~key ~payload)
  in
  let decode ~tag payload =
    ignore (Atomic.fetch_and_add bytes (String.length payload));
    Tracer.span "store.codec.decode" (fun () -> Store.Codec.of_payload ~tag payload)
  in
  (* Store.Handle.cached: a record that decodes short-circuits [compute] *)
  let cached ~tag key compute =
    match Option.bind (find key) (decode ~tag) with
    | Some v -> v
    | None ->
        let v = compute () in
        put ~tag key v;
        v
  in
  let json =
    Store.Handle.with_store (Some disk) @@ fun () ->
    let plan = Tracer.span "vulndb.synth.plan" (fun () -> get (Synth.plan ~total ())) in
    let model =
      Tracer.span "corpus.pipeline.centroids" (fun () -> get (P.centroids ~seed))
    in
    let md = C.model_digest model and pd = Synth.plan_digest plan in
    let classify (reports : Vulndb.Report.t list) =
      let reports = Array.of_list reports in
      let calls = Array.length reports in
      let vectors =
        Tracer.span ~calls "corpus.features.of_report" (fun () ->
            Array.map Corpus.Features.of_report reports)
      in
      Tracer.span ~calls "corpus.classifier.predict" (fun () ->
          let counts = Array.make (C.ncat * C.ncat) 0 in
          Array.iteri
            (fun k (r : Vulndb.Report.t) ->
              let cell =
                (category_index r.Vulndb.Report.category * C.ncat)
                + C.predict model vectors.(k)
              in
              counts.(cell) <- counts.(cell) + 1)
            reports;
          { C.n = calls; counts })
    in
    let summary i =
      cached ~tag:"corpus-summary"
        (key "corpus-summary/1|%s|seed=%d|chunk=%d|index=%d|%s|%s" pd seed chunk i
           md Corpus.Features.version)
        (fun () ->
          classify
            (cached ~tag:"corpus-chunk"
               (key "corpus-chunk/1|%s|seed=%d|chunk=%d|index=%d" pd seed chunk i)
               (fun () ->
                 let rs =
                   Tracer.span "vulndb.synth.chunk_reports" (fun () ->
                       Synth.chunk_reports plan ~seed ~chunk ~index:i)
                 in
                 ignore (Atomic.fetch_and_add generated (List.length rs));
                 rs)))
    in
    let summaries =
      Tracer.par_map ~label:"bench.classify" summary
        (Array.init (Synth.chunk_count plan ~chunk) Fun.id)
    in
    let confusion = Array.fold_left C.confusion_merge C.confusion_empty summaries in
    Tracer.span "corpus.pipeline.to_json" (fun () ->
        P.to_json
          { P.total; planned = Synth.plan_size plan; chunk;
            chunks = Array.length summaries; confusion;
            accuracy = C.accuracy confusion;
            baseline = C.majority_share confusion })
  in
  (json, Store.Disk.stats disk, Atomic.get generated, Atomic.get bytes)

(* ---- the workloads ----------------------------------------------- *)

let planned ctx = Synth.plan_size (get (Synth.plan ~total:ctx.sizes.total ()))

(* Traced replays against [dir]; [reset] runs, untimed, before each.
   The replay must render what [real_json] is and leave the store
   counters [real_stats] a real pass leaves. *)
let traced ctx ~spans_file ~dir ~reset ~real_ok ~real_json ~real_stats =
  let ok, runs =
    traced_passes ctx ~spans_file ~prepare:reset (fun () ->
        counted (fun () ->
            let json, st, generated, bytes = replay ctx ~dir in
            ( json = real_json && st = real_stats,
              [ ("vulndb.synth.reports", float_of_int generated);
                ("store.codec.bytes", float_of_int bytes) ]
              @ store_counts st )))
  in
  traced_outcome ~real_ok ~ok ~metrics:(summarise ctx runs) runs

let store_dir ctx = Filename.concat ctx.work "store"

(* classify-cold's inputs: the plan, whose size counts the items, and a
   fresh empty store. *)
let cold_inputs ctx =
  let planned = planned ctx and dir = store_dir ctx in
  Measure.rm_rf dir;
  ignore (Store.Disk.open_ ~dir);
  planned

let cold ctx ~trace ~spans_file =
  let reference = sequential ctx (fun () -> fst (classify ctx ~store:None)) in
  let dir = store_dir ctx in
  let planned, setups = setup ctx (fun () -> cold_inputs ctx) in
  if not trace then
    let runs =
      passes ctx setups (fun () ->
          let (json, _), wall = Measure.timed (fun () -> classify ctx ~store:(Some dir)) in
          Measure.rm_rf dir;
          (wall, json = reference))
    in
    batch ~setups ~items:planned runs
  else begin
    let real_json, real_stats = classify ctx ~store:(Some dir) in
    traced ctx ~spans_file ~dir ~reset:(fun () -> Measure.rm_rf dir)
      ~real_ok:(real_json = reference) ~real_json ~real_stats
  end

(* One pass in a fresh process, for the peak-RSS probe; the warm probe
   reads the store [warm] filled. *)
let cold_probe ctx =
  let dir = Filename.concat ctx.work "probe-store" in
  Measure.rm_rf dir;
  ignore (classify ctx ~store:(Some dir));
  Measure.rm_rf dir

let warm_probe ctx = ignore (classify ctx ~store:(Some (store_dir ctx)))

(* classify-warm's inputs: the plan, and the store filled by a whole
   sweep with the sweep's result. *)
let warm_inputs ctx =
  let planned = planned ctx and dir = store_dir ctx in
  Measure.rm_rf dir;
  (planned, fst (classify ctx ~store:(Some dir)))

let warm ctx ~trace ~spans_file =
  let reference = sequential ctx (fun () -> fst (classify ctx ~store:None)) in
  let dir = store_dir ctx in
  let (planned, filled), setups = setup ctx (fun () -> warm_inputs ctx) in
  let fill_ok = filled = reference in
  if not trace then
    let runs =
      passes ctx setups (fun () ->
          let (json, _), wall = Measure.timed (fun () -> classify ctx ~store:(Some dir)) in
          (wall, json = reference))
    in
    let r = batch ~setups ~items:planned runs in
    if fill_ok then r
    else { r with correct = false; attempted = r.attempted + planned; failed = r.failed + planned }
  else begin
    let real_json, real_stats = classify ctx ~store:(Some dir) in
    traced ctx ~spans_file ~dir ~reset:ignore
      ~real_ok:(fill_ok && real_json = reference) ~real_json ~real_stats
  end
