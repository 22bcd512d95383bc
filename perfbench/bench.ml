(* The dfsm benchmark.

   bench.exe --workload NAME --seed N --seconds S --trace 0|1 [--work DIR]
   bench.exe --self-test BENCHMARK.json [--work DIR]

   One process drives the entry points the CLI calls, with Par at its
   default job count.  With --trace 0 it reports the end-to-end metrics
   of the workload; with --trace 1 it replays the workload through the
   libraries' public functions with a span around each call and reports
   the per-layer metrics.  Every pass is checked against a sequential
   reference render.  The last line of standard output is the result:
   {"correct": _, "attempted": _, "failed": _, "metrics": {NAME: {"value": _, "unit": _}}}
   The line before it records the machine profile and per-pass values. *)

let end_to_end =
  [ ("setup_s", "s"); ("peak_rss_mb", "MB"); ("throughput_per_s", "1/s");
    ("latency_p50_ms", "ms") ]

let per_layer =
  [ ("vulndb.synth.chunk_reports_ms", "ms"); ("vulndb.synth.reports", "count");
    ("corpus.features.of_report_ms", "ms"); ("corpus.classifier.predict_ms", "ms");
    ("corpus.pipeline.centroids_ms", "ms"); ("store.codec.encode_ms", "ms");
    ("store.codec.bytes", "bytes"); ("store.disk.put_ms", "ms");
    ("store.disk.writes", "count"); ("store.disk.open_ms", "ms");
    ("store.disk.find_ms", "ms"); ("store.codec.decode_ms", "ms");
    ("store.disk.hits", "count"); ("store.disk.misses", "count");
    ("par.map_ms", "ms"); ("par.items", "count"); ("par.busy_share", "share");
    ("serve.protocol.parse_us", "us"); ("serve.protocol.render_us", "us");
    ("serve.server.self_share", "share"); ("serve.handlers.lint_us", "us");
    ("serve.handlers.analyze_us", "us"); ("serve.handlers.exploit_us", "us");
    ("pfsm.memo.lookups", "count"); ("pfsm.memo.hit_rate", "share");
    ("resilience.supervisor.matrix_ms", "ms");
    ("staticcheck.linter.supervised_sweep_ms", "ms");
    ("resilience.ingest.csv_ms", "ms"); ("resilience.retry.attempts", "count");
    ("resilience.breaker.trips", "count"); ("resilience.quarantine.isolated", "count");
    ("fault.injected", "count"); ("unattributed_share", "share");
    ("trace_overhead_share", "share") ]

type workload = {
  run : Workload.ctx -> trace:bool -> spans_file:string -> Workload.outcome;
  inputs : Workload.ctx -> unit;  (** the set-up, for --setup-probe *)
  pass : Workload.ctx -> unit;  (** one pass, for --rss-probe *)
}

let workloads =
  [ ("classify-cold",
     { run = Classify_wl.cold; inputs = (fun c -> ignore (Classify_wl.cold_inputs c));
       pass = Classify_wl.cold_probe });
    ("classify-warm",
     { run = Classify_wl.warm; inputs = (fun c -> ignore (Classify_wl.warm_inputs c));
       pass = Classify_wl.warm_probe });
    ("serve-mixed",
     { run = Serve_wl.run; inputs = (fun c -> ignore (Serve_wl.inputs c)); pass = Serve_wl.probe });
    ("chaos-replay",
     { run = Chaos_wl.run; inputs = (fun c -> ignore (Chaos_wl.inputs c)); pass = Chaos_wl.probe }) ]

(* ---- the result line --------------------------------------------- *)

let number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

(* Every declared metric in declaration order.  A workload may leave a
   per-layer metric out (the layer is bypassed: 0) but not an end-to-end
   one, and may not report an undeclared name. *)
let declared ~trace (o : Workload.outcome) =
  let decl = if trace then per_layer else end_to_end in
  List.iter
    (fun (n, _) ->
      if not (List.mem_assoc n decl) then failwith ("undeclared metric " ^ n))
    o.Workload.metrics;
  List.map
    (fun (n, unit) ->
      match List.assoc_opt n o.Workload.metrics with
      | Some v when Float.is_finite v -> (n, v, unit)
      | Some _ -> failwith ("non-finite metric " ^ n)
      | None when trace -> (n, 0., unit)
      | None -> failwith ("missing metric " ^ n))
    decl

let result_line ~trace (o : Workload.outcome) =
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    o.Workload.correct o.Workload.attempted o.Workload.failed
    (String.concat ", "
       (List.map
          (fun (n, v, unit) ->
            Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" n (number v) unit)
          (declared ~trace o)))

let profile_line ~workload ~seed ~trace ~jobs ~spans (o : Workload.outcome) =
  let floats xs = "[" ^ String.concat ", " (List.map number xs) ^ "]" in
  Printf.sprintf
    "{\"profile\": {\"nproc\": %d, \"jobs\": %d, \"dune_profile\": \"%s\", \"ocaml\": \
     \"%s\"}, \"workload\": \"%s\", \"seed\": %d, \"trace\": %b, \
     \"failed_share\": %s, \"spans\": %s, \"passes\": {%s}}"
    (Domain.recommended_domain_count ()) jobs Build_info.profile Sys.ocaml_version
    workload seed trace
    (number (float_of_int o.Workload.failed /. float_of_int (max 1 o.Workload.attempted)))
    (match spans with Some f -> "\"" ^ Serve.Json.escape f ^ "\"" | None -> "null")
    (String.concat ", "
       (List.map (fun (k, xs) -> Printf.sprintf "\"%s\": %s" k (floats xs)) o.Workload.detail))

(* ---- running a workload ------------------------------------------ *)

(* The context of a run of [name] in [work]; [rerun] starts this
   executable on the same inputs. *)
let context ~sizes ~name ~seed ~seconds ~work =
  { Workload.sizes = List.assoc sizes Workload.sizes; seed; seconds; work; jobs = Par.jobs ();
    rerun =
      (fun mode ->
        Measure.rerun
          [ mode; name; "--seed"; string_of_int seed; "--sizes"; sizes; "--work"; work ]) }

(* Peak resident set of a fresh process running one pass of the
   workload, as one CLI invocation would; the median of three.  The
   probe shares the run's scratch directory (the warm store). *)
let probe_rss (ctx : Workload.ctx) =
  Measure.median
    (List.init 3 (fun _ -> float_of_string (String.trim (ctx.Workload.rerun "--rss-probe"))))

let run_workload ~sizes ~work ~name ~seed ~seconds ~trace =
  let w = List.assoc name workloads in
  let scratch = Filename.concat work (Printf.sprintf "run-%d" (Unix.getpid ())) in
  Measure.rm_rf scratch;
  Measure.mkdir_p scratch;
  let spans_file = Filename.concat work (Printf.sprintf "spans-%s-seed%d.jsonl" name seed) in
  let ctx = context ~sizes ~name ~seed ~seconds ~work:scratch in
  Fun.protect
    ~finally:(fun () -> Measure.rm_rf scratch; Par.teardown ())
    (fun () ->
      let o = w.run ctx ~trace ~spans_file in
      let o =
        if trace then o
        else { o with Workload.metrics = o.Workload.metrics @ [ ("peak_rss_mb", probe_rss ctx) ] }
      in
      (o, profile_line ~workload:name ~seed ~trace ~jobs:ctx.Workload.jobs
            ~spans:(if trace then Some spans_file else None) o))

(* ---- the self-test ----------------------------------------------- *)

(* Every workload at reduced size, untraced and traced: every output
   check passes, and every metric BENCHMARK.json names is in the result
   line with its unit. *)
let self_test ~benchmark ~work =
  let module J = Serve.Json in
  let spec =
    match J.parse (In_channel.with_open_bin benchmark In_channel.input_all) with
    | Ok v -> v
    | Error e -> failwith (benchmark ^ ": " ^ e)
  in
  let list field =
    match J.mem field spec with Some (J.List l) -> l | _ -> failwith ("no " ^ field)
  in
  let names field = List.filter_map (J.field_str "name") (list field) in
  let units field =
    List.filter_map
      (fun m ->
        match (J.field_str "name" m, J.field_str "unit" m) with
        | Some n, Some u -> Some (n, u)
        | _ -> None)
      (list field)
  in
  let problems = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  if List.sort compare (names "workloads") <> List.sort compare (List.map fst workloads)
  then fail "BENCHMARK.json workloads differ from the benchmark's";
  List.iter
    (fun (trace, field) ->
      List.iter
        (fun (name, _) ->
          let o, _ = run_workload ~sizes:"reduced" ~work ~name ~seed:7 ~seconds:0. ~trace in
          let where = Printf.sprintf "%s (trace %b)" name trace in
          if not o.Workload.correct then fail "%s: an output check failed" where;
          if o.Workload.failed <> 0 || o.Workload.attempted < 1 then
            fail "%s: %d of %d failed" where o.Workload.failed o.Workload.attempted;
          match J.parse (result_line ~trace o) with
          | Error e -> fail "%s: result line is not JSON: %s" where e
          | Ok r ->
              let metrics = match J.mem "metrics" r with Some m -> m | None -> J.Null in
              List.iter
                (fun (n, u) ->
                  match J.mem n metrics with
                  | None -> fail "%s: metric %s missing" where n
                  | Some m -> (
                      if J.field_str "unit" m <> Some u then
                        fail "%s: metric %s is not in %s" where n u;
                      match J.mem "value" m with
                      | Some (J.Int v) when trace || v > 0 -> ()
                      | Some (J.Float v) when trace || v > 0. -> ()
                      | _ -> fail "%s: metric %s has no usable value" where n))
                (units field))
        workloads)
    [ (false, "end_to_end"); (true, "per_layer") ];
  match List.rev !problems with
  | [] -> print_endline "self-test: ok"; 0
  | ps -> List.iter (Printf.eprintf "self-test: %s\n") ps; 1

(* ---- command line ------------------------------------------------ *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let self = ref "" and work = ref ".bench_work" in
  let rss_probe = ref "" and setup_probe = ref "" and sizes = ref "full" in
  let spec =
    [ ("--workload", Arg.Set_string workload, "NAME one of the workloads");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S time spent measuring");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
      ("--work", Arg.Set_string work, "DIR scratch directory (default .bench_work)");
      ("--self-test", Arg.Set_string self, "FILE check every workload at reduced size");
      ("--rss-probe", Arg.Set_string rss_probe, "NAME run one pass in --work, print peak RSS in MB");
      ("--setup-probe", Arg.Set_string setup_probe, "NAME make the workload's inputs in --work");
      ("--sizes", Arg.Set_string sizes, "full|reduced input sizes (default full)") ]
  in
  let usage = "bench.exe --workload NAME --seed N --seconds S --trace 0|1" in
  let bad msg = prerr_endline msg; Arg.usage spec usage; exit 2 in
  Arg.parse spec (fun a -> bad ("unexpected argument " ^ a)) usage;
  Measure.mkdir_p !work;
  if not (List.mem_assoc !sizes Workload.sizes) then bad ("unknown sizes: " ^ !sizes);
  if !self <> "" then exit (self_test ~benchmark:!self ~work:!work);
  let probe name act =
    match List.assoc_opt name workloads with
    | None -> bad ("unknown workload: " ^ name)
    | Some w ->
        act w (context ~sizes:!sizes ~name ~seed:!seed ~seconds:0. ~work:!work);
        exit 0
  in
  if !rss_probe <> "" then
    probe !rss_probe (fun w ctx ->
        w.pass ctx;
        Printf.printf "%.17g\n" (Measure.peak_rss_mb ()));
  if !setup_probe <> "" then
    probe !setup_probe (fun w ctx ->
        Workload.start_pool ctx;
        w.inputs ctx);
  if not (List.mem_assoc !workload workloads) then
    bad ("unknown workload: " ^ !workload ^ " (one of "
         ^ String.concat ", " (List.map fst workloads) ^ ")");
  if !trace <> 0 && !trace <> 1 then bad "--trace is 0 or 1";
  if !seconds < 0. then bad "--seconds must not be negative";
  let trace = !trace = 1 in
  let o, profile =
    run_workload ~sizes:!sizes ~work:!work ~name:!workload ~seed:!seed
      ~seconds:!seconds ~trace
  in
  print_endline profile;
  print_endline (result_line ~trace o)
