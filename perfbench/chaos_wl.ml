(* chaos-replay: Chaos.run over the fault catalog — the supervised
   matrix, lint and ingest legs under every plan. *)

open Workload
module Supervisor = Resilience.Supervisor

(* The real entry point, as [dfsm chaos --json] calls it. *)
let chaos ctx =
  let r = Chaos.run ~seed:ctx.seed ~plans:ctx.sizes.plans () in
  (Chaos.ok r, Chaos.to_json r)

(* ---- the traced replay ------------------------------------------- *)

(* The matrix leg's items, built as Chaos builds them. *)
let matrix_items () =
  List.map
    (fun (app, entries) ->
      { Supervisor.id = "matrix:" ^ app; resource = app;
        work = (fun () -> List.length (entries ())) })
    Exploit.Consistency.app_groups
  @ [ { Supervisor.id = "matrix:lemma"; resource = "lemma";
        work =
          (fun () ->
            if Exploit.Protection.lemma_holds () then 1
            else raise (Resilience.Quarantine.Reject "protection lemma broken")) } ]

(* Chaos.run rebuilt from the public functions it calls, each leg inside
   a span; returns the rendered report. *)
let replay ctx ~csv =
  let config = Supervisor.default_config in
  let run_one (plan : Fault.Plan.t) =
    let config =
      { config with
        Supervisor.retry =
          { config.Supervisor.retry with
            Resilience.Retry.seed = ctx.seed lxor Hashtbl.hash plan.Fault.Plan.name } }
    in
    let legs, events =
      Tracer.span "fault.hooks.run" (fun () ->
          Fault.Hooks.run plan (fun () ->
              let matrix =
                Tracer.span "resilience.supervisor.matrix" (fun () ->
                    Supervisor.run ~label:"chaos-matrix" ~config (matrix_items ()))
              in
              let _, lint =
                Tracer.span "staticcheck.linter.supervised_sweep" (fun () ->
                    Staticcheck.Linter.supervised_sweep ~supervise:config ())
              in
              let ingest =
                Tracer.span "resilience.ingest.csv" (fun () ->
                    match Resilience.Ingest.csv ~label:"chaos-ingest" ~config csv with
                    | Ok o -> Chaos.Ran o.Resilience.Ingest.report
                    | Error e ->
                        Chaos.Failed { stage = "ingest"; detail = Vulndb.Csv.error_to_string e })
              in
              [ { Chaos.leg_name = "matrix";
                  expected_items = List.length Exploit.Consistency.app_groups + 1;
                  outcome = Chaos.Ran matrix.Supervisor.report };
                { leg_name = "lint"; expected_items = List.length Minic.Corpus.all;
                  outcome = Chaos.Ran lint };
                { leg_name = "ingest";
                  expected_items = Vulndb.Database.size (Vulndb.Seed_data.database ());
                  outcome = ingest } ]))
    in
    { Chaos.plan; events = List.length events; legs }
  in
  let runs =
    Tracer.par_map ~label:"bench.chaos" run_one (Array.of_list ctx.sizes.plans)
  in
  Chaos.to_json
    { Chaos.seed = ctx.seed;
      retry_max = config.Supervisor.retry.Resilience.Retry.max_attempts;
      runs = Array.to_list runs;
      memo = Pfsm.Analysis.memo_stats () }

(* ---- the workload ------------------------------------------------ *)

(* The inputs: the CSV the replay's ingest leg reads.  Chaos.run makes
   the same CSV once per process. *)
let inputs _ctx = Vulndb.Csv.of_database (Vulndb.Seed_data.database ())

(* One pass in a fresh process, for the peak-RSS probe. *)
let probe ctx = ignore (chaos ctx)

let run ctx ~trace ~spans_file =
  let plans = List.length ctx.sizes.plans in
  let csv, setups = setup ctx (fun () -> inputs ctx) in
  let reference = sequential ctx (fun () -> snd (chaos ctx)) in
  if not trace then begin
    let runs =
      passes ctx setups (fun () ->
          let (ok, json), wall = Measure.timed (fun () -> chaos ctx) in
          (wall, ok && json = reference))
    in
    batch ~setups ~items:plans runs
  end
  else begin
    let real_ok, real_json = chaos ctx in
    let real_ok = real_ok && real_json = reference in
    let ok, runs =
      traced_passes ctx ~spans_file (fun () ->
          counted (fun () -> (replay ctx ~csv = real_json, [])))
    in
    traced_outcome ~real_ok ~ok ~metrics:(summarise ctx runs) runs
  end
