type config = {
  retry : Retry.policy;
  breaker : Breaker.config;
  deadline : int option;
}

let m_retry_attempts = Obs.Metrics.counter "resilience.retry.attempts"

let default_config =
  { retry = Retry.default; breaker = Breaker.default_config; deadline = None }

type 'a item = { id : string; resource : string; work : unit -> 'a }

type 'a outcome = {
  report : Run_report.t;
  results : (string * 'a) list;
  quarantined : 'a item Quarantine.t;
  breakers : Breaker.t list;
}

(* Mix the item id into the policy seed so each item owns its backoff
   schedule: outcomes stay identical whether or not earlier items were
   satisfied from a checkpoint. *)
let item_policy (config : config) id =
  { config.retry with Retry.seed = config.retry.seed lxor Hashtbl.hash id }

let run ?(label = "supervised") ?(config = default_config) ?checkpoint
    ?stop_after ?(parallel = false) items =
  Obs.Span.with_span ~cat:"resilience"
    ~args:[ ("label", label); ("items", string_of_int (List.length items)) ]
    ("supervise:" ^ label)
  @@ fun () ->
  (* Parallelism by speculation: first invocations of the fresh items
     run on the Par pool up front, then the supervision loop replays
     sequentially, consuming each speculative result at the item's
     first invocation.  The replay owns every piece of shared state —
     virtual clock, breakers, deadline fuel, checkpoint journal — so
     accounting is exactly-once and the report is byte-identical to
     the sequential run.  Invocation counts align too: speculation is
     call #1 and the replay's own calls continue at #2, so items whose
     outcome depends on how often they ran (fail-twice-then-succeed
     fakes) still report identically.  Requires only that distinct
     items do not share mutable state.  Speculation is skipped under
     [stop_after] (items past the kill must never execute), under an
     active fault injector (its PRNG stream is order-sensitive) and
     under an ambient store (an item the replay quarantines as
     [Breaker_open] must never have run and written to the store).
     It is NOT skipped at [-j 1]: the Par map then runs sequentially
     with identical outcomes, which keeps the item spans of a traced
     run at the same (epoch, slot) coordinates for every job count. *)
  let speculated : (string, _ result) Hashtbl.t = Hashtbl.create 16 in
  if
    parallel && stop_after = None
    && Fault.Hooks.current () = None
    && Store.Handle.get () = None
  then begin
    let fresh =
      List.filter
        (fun it ->
          match checkpoint with
          | Some cp -> not (Checkpoint.seen cp it.id)
          | None -> true)
        items
    in
    Par.map_list ~label:(label ^ ".speculate")
      (fun it ->
        let r =
          Obs.Span.with_span ~cat:"resilience"
            ~args:[ ("id", it.id); ("resource", it.resource) ]
            ("item:" ^ it.id)
            (fun () ->
              match it.work () with v -> Ok v | exception e -> Error e)
        in
        (it.id, r))
      fresh
    |> List.iter (fun (id, r) -> Hashtbl.replace speculated id r)
  end;
  let invoke it =
    match Hashtbl.find_opt speculated it.id with
    | Some r -> (
        Hashtbl.remove speculated it.id;
        match r with Ok v -> v | Error e -> raise e)
    | None ->
        Obs.Span.with_span ~cat:"resilience"
          ~args:[ ("id", it.id); ("resource", it.resource) ]
          ("item:" ^ it.id) it.work
  in
  let quarantined = Quarantine.create () in
  let breakers = Hashtbl.create 7 in
  let rev_breakers = ref [] in
  let breaker_of resource =
    match Hashtbl.find_opt breakers resource with
    | Some b -> b
    | None ->
        let b = Breaker.create ~config:config.breaker ~resource () in
        Hashtbl.add breakers resource b;
        rev_breakers := b :: !rev_breakers;
        b
  in
  let deadline =
    match config.deadline with
    | Some fuel -> Deadline.of_fuel fuel
    | None -> Deadline.unlimited ()
  in
  let now = ref 0 in
  let waited = ref 0 in
  let executed = ref 0 in
  let rev_results = ref [] in
  let rev_items = ref [] in
  let emit id outcome ~from_checkpoint =
    rev_items :=
      { Run_report.id; outcome; from_checkpoint } :: !rev_items
  in
  let quarantine (it : _ item) ~attempts cause =
    Quarantine.isolate quarantined ~id:it.id ~item:it ~attempts cause;
    emit it.id (Run_report.Quarantined { attempts; cause }) ~from_checkpoint:false
  in
  let interrupted =
    List.exists
      (fun it ->
         (match stop_after with
          | Some n when !executed >= n -> true  (* the "kill" arrived *)
          | _ ->
              (match checkpoint with
               | Some cp when Checkpoint.seen cp it.id ->
                   let attempts =
                     Option.value ~default:1 (Checkpoint.attempts cp it.id)
                   in
                   emit it.id (Run_report.Completed { attempts })
                     ~from_checkpoint:true
               | _ ->
                   incr executed;
                   let schedule =
                     Array.of_list (Retry.delays (item_policy config it.id))
                   in
                   let breaker = breaker_of it.resource in
                   let backoff k =
                     (* wait before attempt k+1; false = out of fuel *)
                     let d = schedule.(k - 1) in
                     now := !now + d;
                     waited := !waited + d;
                     Obs.Metrics.incr m_retry_attempts;
                     Obs.Span.instant ~cat:"resilience"
                       ~args:
                         [ ("id", it.id);
                           ("delay", string_of_int d);
                           ("vt", string_of_int !now);
                           ("fuel_used", string_of_int (Deadline.used deadline))
                         ]
                       "backoff";
                     Deadline.spend deadline d
                   in
                   let out_of_fuel ~attempts =
                     quarantine it ~attempts
                       (Quarantine.Deadline_exceeded
                          { spent = Deadline.used deadline })
                   in
                   (* quarantine with [cause] if no retry is left, else
                      back off and run attempt k+1 *)
                   let rec retry_or k cause =
                     if k >= config.retry.Retry.max_attempts then
                       quarantine it ~attempts:k cause
                     else if not (backoff k) then out_of_fuel ~attempts:k
                     else attempt (k + 1)
                   and attempt k =
                     if not (Deadline.spend deadline 1) then
                       out_of_fuel ~attempts:(k - 1)
                     else begin
                       incr now;
                       if not (Breaker.acquire breaker ~now:!now) then
                         retry_or k
                           (Quarantine.Breaker_open { resource = it.resource })
                       else
                         match invoke it with
                         | v ->
                             Breaker.success breaker;
                             (match checkpoint with
                              | Some cp ->
                                  Checkpoint.mark cp ~id:it.id ~attempts:k
                              | None -> ());
                             rev_results := (it.id, v) :: !rev_results;
                             emit it.id (Run_report.Completed { attempts = k })
                               ~from_checkpoint:false
                         | exception Fault.Condition.Simulated c ->
                             Breaker.failure breaker ~now:!now
                               ~cause:(Fault.Condition.to_string c);
                             retry_or k
                               (Quarantine.Retries_exhausted
                                  { attempts = k; last = c })
                         | exception Quarantine.Reject detail ->
                             Breaker.failure breaker ~now:!now ~cause:detail;
                             quarantine it ~attempts:k
                               (Quarantine.Rejected { detail })
                         | exception e ->
                             let exn = Printexc.to_string e in
                             Breaker.failure breaker ~now:!now ~cause:exn;
                             quarantine it ~attempts:k (Quarantine.Crash { exn })
                     end
                   in
                   attempt 1);
              false))
      items
  in
  ignore interrupted;
  (match checkpoint with Some cp -> Checkpoint.finalize cp | None -> ());
  { report =
      { Run_report.label;
        seed = config.retry.Retry.seed;
        items = List.rev !rev_items;
        waited = !waited;
        journal_skipped =
          (match checkpoint with
           | Some cp -> Checkpoint.skipped cp
           | None -> 0) };
    results = List.rev !rev_results;
    quarantined;
    breakers = List.rev !rev_breakers }
