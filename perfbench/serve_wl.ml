(* serve-mixed: a seeded closed-loop JSONL script through
   Serve.Server.run, without a store.  The client sends waves of
   [wave] work requests, each followed by a flush, and the next wave
   only once the previous responses are out. *)

open Workload
module S = Serve.Server
module J = Serve.Json

let wave = 8

(* Work requests per 25.  No record of real serve traffic exists, so
   the four work kinds keep the equal shares of the serve section's
   canned script in bench/main.ml: lints of one corpus variant,
   analyses, exploits and lints of the whole corpus.  The one boom
   faults on its first attempt and succeeds on the retry: at 4% of the
   requests, 96 a pass, retries run on every pass without dominating
   it. *)
let mix = [ (`Lint_variant, 6); (`Analyze, 6); (`Exploit, 6); (`Lint_corpus, 6); (`Boom, 1) ]

(* The script for [seed]: the same counts of each kind for every seed,
   in a seeded order.  Returns the lines and each request id's line
   index. *)
let script ~seed ~requests =
  let apps = Array.of_list Serve.Handlers.apps in
  let variants = Array.of_list (List.map fst Minic.Corpus.all) in
  let cycle = List.concat_map (fun (k, n) -> List.init n (fun _ -> k)) mix in
  let cycle = Array.of_list cycle in
  let kinds = Array.init requests (fun i -> cycle.(i mod Array.length cycle)) in
  let seen = Hashtbl.create 8 in
  let bodies =
    Array.map
      (fun kind ->
        let n = Option.value ~default:0 (Hashtbl.find_opt seen kind) in
        Hashtbl.replace seen kind (n + 1);
        match kind with
        | `Analyze -> [ ("kind", J.Str "analyze"); ("app", J.Str apps.(n mod Array.length apps)) ]
        | `Exploit -> [ ("kind", J.Str "exploit"); ("app", J.Str apps.(n mod Array.length apps)) ]
        | `Lint_variant ->
            [ ("kind", J.Str "lint"); ("target", J.Str variants.(n mod Array.length variants)) ]
        | `Lint_corpus -> [ ("kind", J.Str "lint"); ("target", J.Str "corpus") ]
        | `Boom -> [ ("kind", J.Str "boom"); ("mode", J.Str "fault"); ("times", J.Int 1) ])
      kinds
  in
  let rng = Random.State.make [| seed |] in
  for i = Array.length bodies - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = bodies.(i) in
    bodies.(i) <- bodies.(j);
    bodies.(j) <- t
  done;
  let lines = ref [] and index = Hashtbl.create requests in
  let add l = lines := l :: !lines in
  Array.iteri
    (fun i body ->
      let id = Printf.sprintf "r%d" i in
      Hashtbl.replace index id (List.length !lines);
      add (J.to_string (J.Obj (("id", J.Str id) :: body)));
      if (i + 1) mod wave = 0 || i = Array.length bodies - 1 then
        add (J.to_string (J.Obj [ ("kind", J.Str "flush") ])))
    bodies;
  (Array.of_list (List.rev !lines), index)

let config ctx = { S.default_config with S.seed = ctx.seed }

type pass = {
  summary : S.summary;
  out : string array;  (** the response lines, summary last *)
  emitted : float array;  (** when each response line was emitted *)
  pulled : float array;  (** when each request line was pulled *)
  elapsed : float;  (** wall time of the pass *)
  count : int;  (** response lines emitted *)
}

(* One real pass: the server pulls lines from [lines]; the time each
   line is pulled and each response is emitted is recorded. *)
let serve ctx lines =
  Pfsm.Analysis.memo_reset ();
  let n = Array.length lines in
  let pulled = Array.make n 0. in
  let out = Array.make (n + 1) "" and emitted = Array.make (n + 1) 0. in
  let next = ref 0 and k = ref 0 in
  let source () =
    if !next >= n then None
    else begin
      let i = !next in
      incr next;
      pulled.(i) <- Measure.now ();
      Some lines.(i)
    end
  in
  let emit line =
    if !k <= n then begin
      out.(!k) <- line;
      emitted.(!k) <- Measure.now ()
    end;
    incr k
  in
  let summary, wall = Measure.timed (fun () -> S.run ~config:(config ctx) ~emit source) in
  let m = min !k (n + 1) in
  { summary; out = Array.sub out 0 m; emitted = Array.sub emitted 0 m; pulled; elapsed = wall; count = !k }

let response_id line =
  match J.parse line with Ok v -> J.field_str "id" v | Error _ -> None

(* Pull-to-emit latency of every work response, in ms. *)
let latencies ~index p =
  let acc = ref [] in
  Array.iteri
    (fun i line ->
      match Option.bind (response_id line) (Hashtbl.find_opt index) with
      | Some j -> acc := (1000. *. (p.emitted.(i) -. p.pulled.(j))) :: !acc
      | None -> ())
    p.out;
  !acc

(* ---- the traced replay ------------------------------------------- *)

(* Server.run rebuilt from the public functions it calls: each line is
   parsed, each wave's first attempts run on the pool, retries and
   rendering follow in admission order.  Breakers and virtual time are
   not replayed; the check compares every response except its
   virtual-time latency. *)
let replay ctx lines =
  let config = config ctx in
  let max_attempts = config.S.retry.Resilience.Retry.max_attempts in
  let retries = ref 0 and rendered = ref [] and pending = ref [] in
  let handler (_, fuel, work) ~attempt =
    Tracer.span ("serve.handlers." ^ Serve.Protocol.work_class work) (fun () ->
        match Serve.Handlers.run ~attempt ~fuel work with
        | v -> Ok v
        | exception e -> Error e)
  in
  let respond r =
    rendered := Tracer.span "serve.protocol.render" (fun () -> Serve.Protocol.render r) :: !rendered
  in
  let flush () =
    let items = Array.of_list (List.rev !pending) in
    pending := [];
    let first = Tracer.par_map ~label:"bench.serve" (handler ~attempt:1) items in
    Array.iteri
      (fun i ((id, _, _) as item) ->
        let rec settle k = function
          | Ok (Serve.Handlers.Done v, _) ->
              respond (Serve.Protocol.ok ~id ~latency:0 ~attempts:k v)
          | Ok (Serve.Handlers.Deadline_hit { spent }, _) ->
              respond (Serve.Protocol.deadline ~id ~attempts:k ~spent ())
          | Error (Fault.Condition.Simulated _) when k < max_attempts ->
              incr retries;
              settle (k + 1) (handler item ~attempt:(k + 1))
          | Error (Fault.Condition.Simulated c) ->
              respond
                (Serve.Protocol.quarantined ~id ~attempts:k
                   (Resilience.Quarantine.Retries_exhausted { attempts = k; last = c }))
          | Error (Resilience.Quarantine.Reject detail) ->
              respond (Serve.Protocol.error ~id ~attempts:k detail)
          | Error e ->
              respond
                (Serve.Protocol.quarantined ~id ~attempts:k
                   (Resilience.Quarantine.Crash { exn = Printexc.to_string e }))
        in
        settle 1 first.(i))
      items
  in
  Array.iteri
    (fun i line ->
      match
        Tracer.span "serve.protocol.parse" (fun () ->
            Serve.Protocol.parse ~line_id:(Printf.sprintf "line:%d" (i + 1)) line)
      with
      | Ok (Serve.Protocol.Work { id; fuel; work }) ->
          pending := (id, Option.value ~default:config.S.default_fuel fuel, work) :: !pending
      | Ok (Serve.Protocol.Flush | Serve.Protocol.Shutdown) -> flush ()
      | Ok (Serve.Protocol.Stats _) | Error _ -> ())
    lines;
  flush ();
  (List.rev !rendered, !retries)

let without_latency line =
  match J.parse line with
  | Ok (J.Obj fields) -> Some (J.Obj (List.filter (fun (k, _) -> k <> "latency") fields))
  | _ -> None

(* ---- the workload ------------------------------------------------ *)

(* What a measured pass leaves behind: latencies in ms, requests that
   failed (all of them when the pass's check failed). *)
type measured = { elapsed : float; rate : float; p50 : float; p99 : float; lost : int }

(* The inputs: the script. *)
let inputs ctx = script ~seed:ctx.seed ~requests:ctx.sizes.requests

(* One pass in a fresh process, for the peak-RSS probe. *)
let probe ctx = ignore (serve ctx (fst (inputs ctx)))

let run ctx ~trace ~spans_file =
  let requests = ctx.sizes.requests in
  let (lines, index), setups = setup ctx (fun () -> inputs ctx) in
  let reference =
    sequential ctx (fun () ->
        Pfsm.Analysis.memo_reset ();
        Array.of_list (fst (S.run_script ~config:(config ctx) (Array.to_list lines))))
  in
  let check p =
    p.out = reference && p.count = Array.length reference && S.accounted p.summary
    && p.summary.S.completed = requests
  in
  if not trace then begin
    let runs =
      passes ctx setups (fun () ->
          let p = serve ctx lines in
          let lat = latencies ~index p and completed = p.summary.S.completed in
          { elapsed = p.elapsed;
            rate = float_of_int completed /. p.elapsed;
            p50 = Measure.median lat;
            p99 = Measure.percentile 99. lat;
            lost = (if check p then requests - completed else requests) })
    in
    let over f = List.map f runs in
    let failed = List.fold_left (fun acc r -> acc + r.lost) 0 runs in
    { correct = failed = 0;
      attempted = requests * List.length runs;
      failed;
      metrics =
        [ ("setup_s", setup_s setups);
          ("throughput_per_s", Measure.median (over (fun r -> r.rate)));
          ("latency_p50_ms", Measure.median (over (fun r -> r.p50))) ];
      detail =
        [ ("pass_s", over (fun r -> r.elapsed)); ("p99_ms", over (fun r -> r.p99));
          ("setup_s", List.rev setups.walls) ] }
  end
  else begin
    let real = serve ctx lines in
    let real_ok = check real in
    let expected =
      List.filter_map without_latency
        (List.filteri (fun i _ -> i < real.count - 1) (Array.to_list real.out))
    in
    (* real passes between the replays, for the server's own share *)
    let server_walls = ref [] in
    let real_pass () = server_walls := (serve ctx lines).elapsed :: !server_walls in
    let ok, runs =
      traced_passes ctx ~spans_file ~prepare:real_pass (fun () ->
          counted (fun () ->
              let rendered, retries = replay ctx lines in
              ( List.filter_map without_latency rendered = expected,
                [ ("resilience.retry.attempts", float_of_int retries) ] )))
    in
    let server_wall = Measure.median !server_walls in
    traced_outcome ~real_ok ~ok ~detail:[ ("server_s", !server_walls) ]
      ~metrics:
        (summarise ctx runs ~extra:(fun p ->
             [ ("serve.server.self_share", 1. -. share (covered p) server_wall) ]))
      runs
  end
