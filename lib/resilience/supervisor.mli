(** The supervision engine: run a batch of work items to a typed
    {!Run_report} no matter what the environment does.

    Each item runs under the retry policy (transient
    {!Fault.Condition.Simulated} failures back off and retry on the
    deterministic {!Retry} schedule), behind its resource's circuit
    {!Breaker} (consecutive failures trip it; while it is open,
    attempts are refused and consume the item's schedule), inside the
    optional fuel {!Deadline} (when it runs out, the remaining items
    are quarantined as [Deadline_exceeded], not dropped), against the
    optional {!Checkpoint} (items a previous run completed are
    reported from the journal and not re-executed; fresh completions
    are marked as they happen).

    Retry schedules are derived per item — the policy seed is mixed
    with the item id — so outcomes do not depend on how many items a
    previous run already completed: an interrupted sweep resumed from
    its checkpoint reaches {!Run_report.same_outcomes} as an
    uninterrupted one.

    Time is virtual throughout: a logical clock advances one unit per
    attempt plus each backoff delay.  Nothing sleeps. *)

type config = {
  retry : Retry.policy;
  breaker : Breaker.config;
  deadline : int option;  (** total virtual-time fuel for the sweep *)
}

val default_config : config

type 'a item = {
  id : string;        (** unique within the sweep; the checkpoint key *)
  resource : string;  (** circuit-breaker key; items may share one *)
  work : unit -> 'a;
}

type 'a outcome = {
  report : Run_report.t;
  results : (string * 'a) list;
      (** values of the items completed {e this} run, in order *)
  quarantined : 'a item Quarantine.t;
      (** the failed items themselves, for later retry *)
  breakers : Breaker.t list;  (** final breaker per resource, creation order *)
}

val run :
  ?label:string ->
  ?config:config ->
  ?checkpoint:Checkpoint.t ->
  ?stop_after:int ->
  ?parallel:bool ->
  'a item list ->
  'a outcome
(** [stop_after] simulates an interruption: after that many items
    have been executed (checkpoint skips not counted) the sweep stops
    dead, leaving the rest unprocessed and unreported — exactly what
    a kill would do.  Used by the resume tests and [--stop-after].

    [parallel] (default false) speculates the first invocation of each
    fresh item on the {!Par} domain pool, then replays the supervision
    loop sequentially, consuming each speculative result at the item's
    first invocation.  Clock, breakers, deadline and checkpoint
    appends all live in the replaying domain, so {!Run_report}
    accounting stays exactly-once and the outcome is byte-identical to
    the sequential run for any job count — provided distinct items do
    not share mutable state.  Ignored (safely sequential) under
    [stop_after], an active fault injector, or an installed
    {!Store.Handle}: an item the replay quarantines as [Breaker_open]
    never runs, so it never writes to the store. *)
