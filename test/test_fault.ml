(* The fault-injection layer and the resilience harness.

   Three contracts: the no-op plan is perfectly transparent (the 33
   consistency cells and the lemma are exactly what they were before
   the fault layer existed); every injected fault surfaces as a typed
   [Fault.outcome], never a raw exception; and a plan's seed fully
   determines its verdicts. *)

module B = Fault.Budget
module Cond = Fault.Condition
module FM = Exploit.Fault_matrix
module Sched = Osmodel.Scheduler
module Fs = Osmodel.Filesystem
module O = Apps.Outcome

(* ---- budget ------------------------------------------------------ *)

let test_budget_fuel () =
  let b = B.of_fuel 2 in
  Alcotest.(check bool) "first take" true (B.take b);
  Alcotest.(check bool) "second take" true (B.take b);
  Alcotest.(check bool) "third take refused" false (B.take b);
  Alcotest.(check bool) "exhausted" true (B.exhausted b);
  Alcotest.(check int) "used" 2 (B.used b);
  let u = B.unlimited () in
  for _ = 1 to 100 do ignore (B.take u) done;
  Alcotest.(check bool) "unlimited never exhausts" true (B.take u);
  Alcotest.(check bool) "complete coverage" true
    (B.complete (B.coverage ~covered:5 ~total:5));
  match B.coverage ~covered:3 ~total:5 with
  | B.Partial { covered = 3; total = 5 } -> ()
  | _ -> Alcotest.fail "expected Partial {3; 5}"

(* ---- no-op transparency ------------------------------------------ *)

let test_noop_plan_transparent () =
  let r = FM.run_plan Fault.Catalog.none in
  Alcotest.(check int) "all 33 consistency cells" 33 (List.length r.FM.cells);
  Alcotest.(check bool) "every cell consistent" true
    (List.for_all (fun (c : FM.cell) -> c.FM.classification = FM.Consistent)
       r.FM.cells);
  Alcotest.(check bool) "lemma still holds" true (r.FM.lemma_ok = Some true);
  Alcotest.(check int) "no fault fired" 0 (List.length r.FM.events);
  Alcotest.(check int) "no findings" 0 (List.length r.FM.findings)

let test_noop_matches_direct_matrix () =
  let direct = Exploit.Consistency.check_all () in
  let under_plan =
    Fault.Hooks.with_plan Fault.Catalog.none Exploit.Consistency.check_all
  in
  Alcotest.(check bool) "bit-identical entries" true (direct = under_plan)

(* ---- typed degradation ------------------------------------------- *)

let plan_with name knobs = { knobs with Fault.Plan.name; benign = false }

let test_heap_fault_typed () =
  let plan =
    plan_with "heap-always"
      { Fault.Plan.none with seed = 7; heap_fail_percent = Some 100 }
  in
  Fault.Hooks.with_plan plan (fun () ->
      match Cond.protect (fun () -> Apps.Nullhttpd.setup ()) with
      | Error (Cond.Heap_exhausted _) -> ()
      | Error c -> Alcotest.failf "wrong condition: %s" (Cond.to_string c)
      | Ok _ -> Alcotest.fail "allocation unexpectedly succeeded")

let test_socket_fault_typed () =
  let plan =
    plan_with "reset-now"
      { Fault.Plan.none with seed = 7; socket_reset_after = Some 0 }
  in
  Fault.Hooks.with_plan plan (fun () ->
      let s = Osmodel.Socket.of_string "hello" in
      match Osmodel.Socket.recv s 5 with
      | _ -> Alcotest.fail "recv survived a reset connection"
      | exception Fault.Simulated (Cond.Socket_reset _) -> ())

let test_fs_fault_typed () =
  let plan =
    plan_with "deny-all"
      { Fault.Plan.none with seed = 7; fs_deny_percent = Some 100 }
  in
  let fs = Fs.create () in
  Fs.mkfile fs "/tmp/x" ~owner:Osmodel.User.Root
    ~mode:(Osmodel.Perm.of_octal 0o644) "data";
  Fault.Hooks.with_plan plan (fun () ->
      (match Fs.read fs "/tmp/x" ~as_user:Osmodel.User.Root with
       | _ -> Alcotest.fail "read survived EACCES"
       | exception Fault.Simulated (Cond.Fs_denied _) -> ());
      match
        O.guard (fun () ->
            ignore (Fs.open_write fs "/tmp/x" ~as_user:Osmodel.User.Root);
            O.Benign "wrote")
      with
      | O.Resource_fault (Cond.Fs_denied { path = "/tmp/x" }) -> ()
      | o -> Alcotest.failf "guard returned %s" (O.to_string o))

(* Every catalog plan must drive the whole matrix to completion with
   only typed outcomes — any raw failwith escaping a simulation would
   abort run_plan and fail this test. *)
let test_catalog_runs_to_typed_outcomes () =
  List.iter
    (fun plan ->
       let r = FM.run_plan plan in
       Alcotest.(check bool)
         (plan.Fault.Plan.name ^ ": produced cells")
         true
         (List.length r.FM.cells > 0))
    Fault.Catalog.all;
  Alcotest.(check bool) "catalog has >= 5 fault plans" true
    (List.length Fault.Catalog.all >= 5)

(* ---- resilience assertions --------------------------------------- *)

let test_benign_plans_survive () =
  let benign =
    List.filter (fun p -> p.Fault.Plan.benign) Fault.Catalog.all
  in
  Alcotest.(check bool) "two benign plans" true (List.length benign >= 2);
  Alcotest.(check bool) "agreement survives benign faults" true
    (FM.all_benign_ok (FM.run ~plans:benign ()))

let test_matrix_seed_stable () =
  Alcotest.(check bool) "same seeds, same reports" true (FM.stable ())

let test_divergence_would_be_reported () =
  (* Findings carry every non-consistent cell, so a fail-open
     divergence cannot pass silently: check the wiring on a plan that
     certainly degrades. *)
  let r = FM.run_plan Fault.Catalog.socket_reset in
  Alcotest.(check int) "every degraded cell becomes a finding"
    (FM.count FM.Degraded r + FM.count FM.Divergent r)
    (List.length r.FM.findings)

(* ---- seed determinism (property) --------------------------------- *)

let prop_same_seed_same_verdict =
  let open QCheck in
  let plans =
    [ Fault.Catalog.short_recv; Fault.Catalog.heap_pressure;
      Fault.Catalog.fs_chaos; Fault.Catalog.bitflip;
      Fault.Catalog.socket_reset ]
  in
  Test.make ~name:"fault: same plan seed => identical outcome and events"
    ~count:25
    (pair (int_range 1 5000) (int_range 0 (List.length plans - 1)))
    (fun (seed, i) ->
       let plan = { (List.nth plans i) with Fault.Plan.seed } in
       let run () =
         Fault.Hooks.run plan (fun () ->
             Cond.protect (fun () ->
                 let t = Apps.Nullhttpd.setup () in
                 let content_len, body = Exploit.Attack.nullhttpd_5774 t in
                 Apps.Nullhttpd.handle_post t ~content_len ~body))
       in
       run () = run ())

(* ---- budgets ----------------------------------------------------- *)

let explore_labels budget =
  let init () = ref [] in
  let mark l = Sched.step l (fun st -> st := l :: !st) in
  Sched.explore ?budget ~init
    ~a:[ mark "a1"; mark "a2"; mark "a3" ]
    ~b:[ mark "b1"; mark "b2" ]
    ~check:(fun st -> Some (String.concat ";" (List.rev !st)))
    ()

let test_explore_budget_partial () =
  let full = explore_labels None in
  Alcotest.(check bool) "unbudgeted is complete" true
    (B.complete full.Sched.coverage);
  Alcotest.(check int) "C(5,2) verdicts" 10 (List.length full.Sched.verdicts);
  let cut = explore_labels (Some (B.of_fuel 4)) in
  (match cut.Sched.coverage with
   | B.Partial { covered = 4; total = 10 } -> ()
   | _ -> Alcotest.fail "expected Partial {4; 10}");
  Alcotest.(check int) "4 verdicts" 4 (List.length cut.Sched.verdicts)

let prop_explore_budget_monotone =
  let open QCheck in
  Test.make ~name:"fault: a bigger explore budget keeps every witness" ~count:50
    (pair (int_range 0 12) (int_range 0 12))
    (fun (k, extra) ->
       let small = (explore_labels (Some (B.of_fuel k))).Sched.verdicts in
       let large = (explore_labels (Some (B.of_fuel (k + extra)))).Sched.verdicts in
       List.length small <= List.length large
       && small = List.filteri (fun i _ -> i < List.length small) large)

let sendmail_scenarios =
  lazy
    (let app = Apps.Sendmail.setup () in
     let model = Apps.Sendmail.model app in
     let scenarios =
       List.map
         (fun s -> Apps.Sendmail.scenario ~str_x:s ~str_i:"7")
         (Discovery.Domain_gen.int_strings ~seed:9 ~n:20)
     in
     (model, scenarios))

let hidden_sites budget =
  let model, scenarios = Lazy.force sendmail_scenarios in
  let e = Discovery.Search.hidden_paths ?budget model ~scenarios in
  ( List.map
      (fun h ->
         (h.Discovery.Search.operation, h.Discovery.Search.pfsm.Pfsm.Primitive.name))
      e.Discovery.Search.hits,
    e.Discovery.Search.coverage )

let test_hidden_paths_budget_partial () =
  let _, scenarios = Lazy.force sendmail_scenarios in
  let n = List.length scenarios in
  let sites, coverage = hidden_sites (Some (B.of_fuel 5)) in
  (match coverage with
   | B.Partial { covered = 5; total } when total = n -> ()
   | _ -> Alcotest.fail "expected Partial {covered = 5}");
  ignore sites;
  let full_sites, full_coverage = hidden_sites None in
  Alcotest.(check bool) "unbudgeted complete" true (B.complete full_coverage);
  Alcotest.(check bool) "full search finds sites" true (full_sites <> [])

let prop_hidden_paths_budget_monotone =
  let open QCheck in
  Test.make ~name:"fault: a bigger search budget keeps every hidden path"
    ~count:30
    (pair (int_range 0 25) (int_range 0 25))
    (fun (k, extra) ->
       let small, _ = hidden_sites (Some (B.of_fuel k)) in
       let large, _ = hidden_sites (Some (B.of_fuel (k + extra))) in
       List.for_all (fun site -> List.mem site large) small)

let leaky_pfsm =
  lazy
    (let module P = Pfsm.Predicate in
     Pfsm.Primitive.make ~name:"budgeted"
       ~kind:Pfsm.Taxonomy.Content_attribute_check ~activity:"bounds check"
       ~spec:(P.between P.Self ~low:0 ~high:100)
       ~impl:P.True)

let verify_with budget =
  Pfsm.Verify.verify ?budget (Lazy.force leaky_pfsm)
    (Pfsm.Verify.Int_range { low = 0; high = 200 })

let test_verify_budget_exhausted () =
  (match verify_with (Some (B.of_fuel 10)) with
   | Pfsm.Verify.Budget_exhausted { tried = 10; total = 201 } -> ()
   | r -> Alcotest.failf "expected Budget_exhausted: %a" Pfsm.Verify.pp_result r);
  match verify_with None with
  | Pfsm.Verify.Refuted { witness = Pfsm.Value.Int 101; candidates_tried = 102 } -> ()
  | r -> Alcotest.failf "expected Refuted on 101: %a" Pfsm.Verify.pp_result r

let prop_verify_budget_monotone =
  let open QCheck in
  Test.make ~name:"fault: a bigger verify budget keeps the verdict" ~count:50
    (pair (int_range 0 250) (int_range 0 250))
    (fun (k, extra) ->
       match verify_with (Some (B.of_fuel k)), verify_with (Some (B.of_fuel (k + extra))) with
       | Pfsm.Verify.Refuted { witness = w1; _ }, Pfsm.Verify.Refuted { witness = w2; _ } ->
           w1 = w2
       | Pfsm.Verify.Budget_exhausted { tried; total = 201 }, _ -> tried = k
       | Pfsm.Verify.Verified _, Pfsm.Verify.Verified _ -> true
       | _, _ -> false)

(* ---- the event log ----------------------------------------------- *)

let m_injected = Obs.Metrics.counter "fault.injected"

(* The three legs [Chaos.run] replays under a plan, with the retry
   seed it derives for that plan. *)
let chaos_legs (plan : Fault.Plan.t) =
  let module S = Resilience.Supervisor in
  let config =
    { S.default_config with
      S.retry =
        { S.default_config.S.retry with
          Resilience.Retry.seed = Chaos.default_seed lxor Hashtbl.hash plan.Fault.Plan.name } }
  in
  let matrix =
    List.map
      (fun (app, entries) ->
         { S.id = "matrix:" ^ app; resource = app;
           work = (fun () -> List.length (entries ())) })
      Exploit.Consistency.app_groups
    @ [ { S.id = "matrix:lemma"; resource = "lemma";
          work =
            (fun () ->
               if Exploit.Protection.lemma_holds () then 1
               else raise (Resilience.Quarantine.Reject "protection lemma broken")) } ]
  in
  ignore (S.run ~label:"chaos-matrix" ~config matrix);
  ignore (Staticcheck.Linter.supervised_sweep ~supervise:config ());
  ignore
    (Resilience.Ingest.csv ~label:"chaos-ingest" ~config
       (Vulndb.Csv.of_database (Vulndb.Seed_data.database ())))

(* [event_count] is the O(1) count the chaos report prints: it must
   equal the [fault.injected] counter's delta, the expanded log's
   length and the report's own figure, under every catalog plan. *)
let test_event_count_contract () =
  List.iter
    (fun (plan : Fault.Plan.t) ->
       let name = plan.Fault.Plan.name in
       let before = Obs.Metrics.counter_value m_injected in
       let inj = Fault.Injector.create plan in
       Fault.Hooks.with_injector inj (fun () -> chaos_legs plan);
       let n = Fault.Injector.event_count inj in
       Alcotest.(check int) (name ^ ": fault.injected delta")
         (Obs.Metrics.counter_value m_injected - before) n;
       Alcotest.(check int) (name ^ ": expanded log") n
         (List.length (Fault.Injector.events inj));
       let report = Chaos.run ~plans:[ plan ] () in
       Alcotest.(check int) (name ^ ": chaos report") n
         (List.hd report.Chaos.runs).Chaos.events)
    Fault.Catalog.all

(* Consecutive equal events share one log entry, so the expansion
   hands back one physical event per run; a distinct event starts a
   new run, even when an equal one fired earlier. *)
let test_event_log_runs () =
  let plan = { Fault.Catalog.short_recv with Fault.Plan.fs_deny_percent = Some 100 } in
  let inj = Fault.Injector.create plan in
  let clamp requested =
    Alcotest.(check int) "granted" 7
      (Fault.Injector.recv_request inj ~requested ~consumed:0)
  in
  let deny path =
    Alcotest.(check bool) "denied" true (Fault.Injector.fs_denies inj ~path)
  in
  clamp 64; clamp 64; clamp 64; clamp 32; clamp 64;
  deny "/a"; deny "/a"; deny "/b";
  let evs = Array.of_list (Fault.Injector.events inj) in
  Alcotest.(check int) "count" 8 (Fault.Injector.event_count inj);
  Alcotest.(check (list string)) "oldest first"
    [ "recv(64) clamped to 7 bytes"; "recv(64) clamped to 7 bytes";
      "recv(64) clamped to 7 bytes"; "recv(32) clamped to 7 bytes";
      "recv(64) clamped to 7 bytes"; "EACCES on /a"; "EACCES on /a";
      "EACCES on /b" ]
    (Array.to_list (Array.map (fun (e : Fault.Event.t) -> e.Fault.Event.detail) evs));
  Alcotest.(check bool) "three clamps, one run" true (evs.(0) == evs.(1) && evs.(1) == evs.(2));
  Alcotest.(check bool) "a distinct clamp is its own run" true (evs.(3) != evs.(2));
  Alcotest.(check bool) "an equal clamp after it starts a new run" true
    (evs.(4) = evs.(0) && evs.(4) != evs.(0));
  Alcotest.(check bool) "equal denials, made apart, collapse" true (evs.(5) == evs.(6));
  Alcotest.(check bool) "a distinct denial is its own run" true (evs.(7) != evs.(6))

(* ---- suite ------------------------------------------------------- *)

let () =
  Alcotest.run "fault"
    [ ("budget",
       [ Alcotest.test_case "fuel accounting" `Quick test_budget_fuel;
         Alcotest.test_case "explore partial coverage" `Quick
           test_explore_budget_partial;
         Alcotest.test_case "hidden_paths partial coverage" `Quick
           test_hidden_paths_budget_partial;
         Alcotest.test_case "verify budget exhausted" `Quick
           test_verify_budget_exhausted;
         QCheck_alcotest.to_alcotest prop_explore_budget_monotone;
         QCheck_alcotest.to_alcotest prop_hidden_paths_budget_monotone;
         QCheck_alcotest.to_alcotest prop_verify_budget_monotone ]);
      ("injection",
       [ Alcotest.test_case "heap fault is typed" `Quick test_heap_fault_typed;
         Alcotest.test_case "socket fault is typed" `Quick test_socket_fault_typed;
         Alcotest.test_case "fs fault is typed" `Quick test_fs_fault_typed;
         Alcotest.test_case "catalog runs to typed outcomes" `Quick
           test_catalog_runs_to_typed_outcomes;
         QCheck_alcotest.to_alcotest prop_same_seed_same_verdict ]);
      ("event log",
       [ Alcotest.test_case "count = counter = expanded log" `Quick
           test_event_count_contract;
         Alcotest.test_case "equal events collapse into runs" `Quick
           test_event_log_runs ]);
      ("matrix",
       [ Alcotest.test_case "no-op plan transparent" `Quick
           test_noop_plan_transparent;
         Alcotest.test_case "no-op matches direct matrix" `Quick
           test_noop_matches_direct_matrix;
         Alcotest.test_case "benign plans survive" `Quick test_benign_plans_survive;
         Alcotest.test_case "seed-stable reports" `Quick test_matrix_seed_stable;
         Alcotest.test_case "degradation becomes findings" `Quick
           test_divergence_would_be_reported ]) ]
