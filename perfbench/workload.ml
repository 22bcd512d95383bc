(* What every workload shares: input sizes, the result record, repeated
   set-up, and the traced replay loop. *)

type sizes = {
  total : int;  (** classify: reports per pass *)
  chunk : int;  (** classify: reports per chunk *)
  requests : int;  (** serve: work requests per pass *)
  plans : Fault.Plan.t list;  (** chaos: fault plans per pass *)
  setups : int;  (** times set-up is sampled before the passes *)
  min_passes : int;
}

let full =
  { total = 1_000_000; chunk = 4096; requests = 2400; plans = Fault.Catalog.all;
    setups = 5; min_passes = 3 }

(* For the self-test. *)
let reduced =
  { total = 20_000; chunk = 1024; requests = 160; plans = Fault.Catalog.smoke;
    setups = 1; min_passes = 1 }

let sizes = [ ("full", full); ("reduced", reduced) ]

type outcome = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * float) list;
  detail : (string * float list) list;  (** per-pass raw values *)
}

type ctx = {
  sizes : sizes;
  seed : int;
  seconds : float;
  work : string;  (** scratch directory owned by this run *)
  jobs : int;  (** the Par default job count *)
  rerun : string -> string;
      (** [rerun mode] runs this executable again in [mode] on the same
          workload, seed, sizes and scratch directory; its output *)
}

(* The domain pool started, as the first parallel call of a new
   process starts it. *)
let start_pool ctx = ignore (Par.map ~label:"bench.setup" Fun.id (Array.init (max 2 ctx.jobs) Fun.id))

(* The wall times of the workload's set-up as a new process meets it:
   a fresh process that initialises the runtime and the libraries,
   starts the domain pool and makes the workload's inputs in
   [ctx.work] ([--setup-probe]). *)
type setups = { mutable walls : float list }

let sample_setup ctx s =
  s.walls <- snd (Measure.timed (fun () -> ctx.rerun "--setup-probe")) :: s.walls

let setup_s s = Measure.median s.walls

(* [ctx.sizes.setups] samples of the set-up, and the inputs [inputs]
   makes in this process. *)
let setup ctx inputs =
  let s = { walls = [] } in
  for _ = 1 to ctx.sizes.setups do sample_setup ctx s done;
  (inputs (), s)

(* [f] at a job count of 1, the pool restored to [ctx.jobs] afterwards:
   the reference render every pass is compared against. *)
let sequential ctx f =
  Par.set_jobs 1;
  Fun.protect ~finally:(fun () -> Par.set_jobs ctx.jobs) f

(* The measured passes.  A set-up shorter than the last pass is
   sampled again before the next one, as often as fits in a twentieth
   of that pass: the host's speed drifts over seconds, and the samples
   then span the run as the passes do. *)
let passes ctx setups pass =
  let last = ref 0. in
  Measure.measure ~seconds:ctx.seconds ~min:ctx.sizes.min_passes (fun () ->
      if setup_s setups < !last then
        ignore
          (Measure.repeat ~seconds:(!last /. 20.) ~min:1 (fun () -> sample_setup ctx setups));
      Measure.settle ();
      let r, wall = Measure.timed pass in
      last := wall;
      r)

(* The end-to-end result of a batch workload: one call returns every
   item of a pass at once, so each item's latency is the pass's wall
   time.  [items] per pass; a pass whose check failed fails all of
   them. *)
let batch ~setups ~items runs =
  let walls = List.map fst runs in
  let failed_passes = List.length (List.filter (fun (_, ok) -> not ok) runs) in
  let wall = Measure.median walls in
  { correct = failed_passes = 0;
    attempted = items * List.length runs;
    failed = items * failed_passes;
    metrics =
      [ ("setup_s", setup_s setups);
        ("throughput_per_s", float_of_int items /. wall);
        ("latency_p50_ms", 1000. *. wall) ];
    detail = [ ("pass_s", walls); ("setup_s", List.rev setups.walls) ] }

(* ---- traced runs ------------------------------------------------- *)

type traced_pass = {
  wall : float;  (** the traced replay *)
  plain : float;  (** the same replay with recording off *)
  spans : Tracer.span list;
  layers : (string, Tracer.layer) Hashtbl.t;
  counts : (string * float) list;  (** counters the traced replay read *)
}

(* Alternate the replay untraced and traced.  [replay] returns whether
   its result matched the real entry point, and the counters it read.
   [prepare] runs, untimed, before each replay.  The spans of the last
   traced pass are written to [spans_file]. *)
let traced_passes ?(prepare = ignore) ctx ~spans_file replay =
  let all_ok = ref true in
  let runs =
    Measure.measure ~seconds:ctx.seconds ~min:ctx.sizes.min_passes (fun () ->
        Measure.settle ();
        prepare ();
        let (ok_plain, _), plain = Measure.timed replay in
        prepare ();
        Measure.settle ();
        let ((ok_traced, counts), spans), wall =
          Measure.timed (fun () ->
              Tracer.record (fun () -> Tracer.span "pass" replay))
        in
        if not (ok_plain && ok_traced) then all_ok := false;
        { wall; plain; spans; layers = Tracer.layers spans; counts })
  in
  (match List.rev runs with
   | last :: _ -> Tracer.write_jsonl spans_file last.spans
   | [] -> ());
  (!all_ok, runs)

(* The result of a traced run: the real pass that the replays are
   checked against, and both replays of every iteration. *)
let traced_outcome ~real_ok ~ok ~metrics ?(detail = []) runs =
  let n = List.length runs in
  let failed = (if real_ok then 0 else 1) + if ok then 0 else 2 * n in
  { correct = failed = 0;
    attempted = 1 + (2 * n);
    failed;
    metrics;
    detail =
      detail
      @ [ ("traced_s", List.map (fun p -> p.wall) runs);
          ("untraced_s", List.map (fun p -> p.plain) runs) ] }

let share a b = if b <= 0. then 0. else a /. b

let counter snapshot name =
  match List.assoc_opt name snapshot with
  | Some (Obs.Metrics.Counter_v n) -> float_of_int n
  | _ -> 0.

(* Reset the process-wide counters and the analysis memo, run [f], and
   read them back.  [f] returns its check and the counts it took
   itself; a ["resilience.retry.attempts"] among them adds to the
   registry's. *)
let counted f =
  Obs.Metrics.reset ();
  Pfsm.Analysis.memo_reset ();
  let ok, own = f () in
  let snap = Obs.Metrics.snapshot () and memo = Pfsm.Analysis.memo_stats () in
  let own_retries =
    Option.value ~default:0. (List.assoc_opt "resilience.retry.attempts" own)
  in
  ( ok,
    List.remove_assoc "resilience.retry.attempts" own
    @ [ ("pfsm.memo.lookups", float_of_int memo.Pfsm.Analysis.lookups);
        ("pfsm.memo.hit_rate",
         share (float_of_int memo.Pfsm.Analysis.hits)
           (float_of_int memo.Pfsm.Analysis.lookups));
        ("resilience.retry.attempts",
         counter snap "resilience.retry.attempts" +. own_retries);
        ("resilience.breaker.trips", counter snap "resilience.breaker.trips");
        ("resilience.quarantine.isolated",
         counter snap "resilience.quarantine.isolated");
        ("fault.injected", counter snap "fault.injected") ] )

let store_counts (st : Store.Disk.stats) =
  [ ("store.disk.writes", float_of_int st.Store.Disk.writes);
    ("store.disk.hits", float_of_int st.Store.Disk.hits);
    ("store.disk.misses", float_of_int st.Store.Disk.misses) ]

(* Layer metrics read from span self times: [`Ms] is milliseconds per
   pass, [`Us] microseconds per call. *)
let span_metrics =
  [ ("vulndb.synth.chunk_reports_ms", "vulndb.synth.chunk_reports", `Ms);
    ("corpus.features.of_report_ms", "corpus.features.of_report", `Ms);
    ("corpus.classifier.predict_ms", "corpus.classifier.predict", `Ms);
    ("corpus.pipeline.centroids_ms", "corpus.pipeline.centroids", `Ms);
    ("store.codec.encode_ms", "store.codec.encode", `Ms);
    ("store.disk.put_ms", "store.disk.put", `Ms);
    ("store.disk.open_ms", "store.disk.open", `Ms);
    ("store.disk.find_ms", "store.disk.find", `Ms);
    ("store.codec.decode_ms", "store.codec.decode", `Ms);
    ("par.map_ms", "par.map", `Ms);
    ("serve.protocol.parse_us", "serve.protocol.parse", `Us);
    ("serve.protocol.render_us", "serve.protocol.render", `Us);
    ("serve.handlers.lint_us", "serve.handlers.lint", `Us);
    ("serve.handlers.analyze_us", "serve.handlers.analyze", `Us);
    ("serve.handlers.exploit_us", "serve.handlers.exploit", `Us);
    ("resilience.supervisor.matrix_ms", "resilience.supervisor.matrix", `Ms);
    ("staticcheck.linter.supervised_sweep_ms",
     "staticcheck.linter.supervised_sweep", `Ms);
    ("resilience.ingest.csv_ms", "resilience.ingest.csv", `Ms) ]

(* Time the traced replay spent inside some top-level layer span. *)
let covered p =
  let root = Tracer.layer p.layers "pass" in
  root.Tracer.total -. root.Tracer.self

let layer_metrics ctx p =
  let l = p.layers in
  let map = Tracer.layer l "par.map" and item = Tracer.layer l "par.item" in
  let root = Tracer.layer l "pass" in
  List.map
    (fun (metric, name, unit) ->
      let s = Tracer.layer l name in
      ( metric,
        match unit with
        | `Ms -> s.Tracer.self *. 1000.
        | `Us ->
            if s.Tracer.calls = 0 then 0.
            else s.Tracer.self /. float_of_int s.Tracer.calls *. 1e6 ))
    span_metrics
  @ [ ("par.items", float_of_int item.Tracer.calls);
      ("par.busy_share",
       share item.Tracer.total (map.Tracer.total *. float_of_int ctx.jobs));
      ("unattributed_share", share root.Tracer.self root.Tracer.total) ]
  @ p.counts

(* Median of every metric over the traced passes, plus the tracing
   overhead: the traced replay over the untraced one, minus one. *)
let summarise ctx ?(extra = fun _ -> []) runs =
  let rows = List.map (fun p -> layer_metrics ctx p @ extra p) runs in
  let names = match rows with [] -> [] | r :: _ -> List.map fst r in
  List.map
    (fun n -> (n, Measure.median (List.map (fun r -> List.assoc n r) rows)))
    names
  @ [ ("trace_overhead_share",
       share
         (Measure.median (List.map (fun p -> p.wall) runs))
         (Measure.median (List.map (fun p -> p.plain) runs))
       -. 1.) ]
