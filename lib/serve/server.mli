(** The request loop: admission → supervision → trace.

    {!run} pulls request lines from a source, admits work requests
    into the bounded {!Admission} queue (shedding with typed
    [overloaded] once it is full), and at every scheduling tick — a
    [flush] request, [shutdown], end of input — drains the queue as
    one batch.  Each batch request is supervised with the
    {!Resilience} primitives: a deterministic per-request retry
    schedule, a circuit {!Resilience.Breaker} per request {e class}
    (so a poison class trips without taking down the others —
    breakers persist across batches), per-attempt
    {!Resilience.Deadline} fuel inside the handler, and typed
    quarantine for crashes.  Every admitted request gets exactly one
    terminal response.

    Time is virtual: the clock ticks once per work-request arrival,
    once per attempt, by each backoff delay and by the fuel a
    handler spends — so per-request latency (completion minus
    admission) is a pure function of the request script, and the
    whole response stream (summary line included) is byte-identical
    at every [-j].

    A batch replays inline, in admission order, on the calling
    domain: the replay owns every piece of shared state (clock,
    breakers, responses, store accounting), and a warm request costs
    a few microseconds, far less than a hand-off to the {!Par} pool
    (DESIGN §9).  No handler reaches the pool either, so the job
    count does not change what runs. *)

type config = {
  capacity : int;      (** admission queue bound *)
  default_fuel : int;  (** per-attempt handler fuel unless the request says *)
  max_line : int;      (** oversized request lines get a typed error *)
  retry : Resilience.Retry.policy;
  breaker : Resilience.Breaker.config;
  seed : int;          (** mixed into each request's retry schedule *)
}

val default_config : config
(** capacity 16, fuel 64, max_line 65536, the default retry/breaker
    policies, seed 20021130. *)

type summary = {
  admitted : int;
  shed : int;
  completed : int;     (** [ok] responses *)
  errors : int;        (** [error] responses (rejected / malformed args) *)
  deadlined : int;     (** [deadline] responses *)
  quarantined : int;   (** [quarantined] responses *)
  malformed : int;     (** unparseable or oversized lines *)
  stats_served : int;
  batches : int;
  vt : int;            (** final virtual time *)
  drained : bool;      (** input ended via EOF/shutdown and the queue emptied *)
  latencies : int list;  (** completed-request latencies, completion order *)
  report : Resilience.Run_report.t;  (** one item per admitted request *)
  store : Store.Disk.stats option;
      (** this run's delta against the ambient persistent store, when
          the CLI installed one ([None] otherwise — the summary JSON
          then renders byte-identically to the store-less format) *)
  store_degraded : int;
      (** requests that hit store corruption or a failed store write
          during some attempt and completed by recompute instead;
          always 0 without a store.  Attempts run one at a time, so
          this accounting (and the store delta) is per-request
          well-defined and [-j]-independent. *)
}

val accounted : summary -> bool
(** Every admitted request got exactly one terminal response — the
    zero-lost-requests contract. *)

val percentile : int -> int list -> int
(** Nearest-rank percentile; 0 on the empty list. *)

val summary_to_json : summary -> string

val pp_summary : Format.formatter -> summary -> unit

val run :
  ?config:config -> emit:(string -> unit) -> (unit -> string option) -> summary
(** Serve until the source returns [None] (EOF / interrupt) or a
    [shutdown] request arrives, then drain: process everything
    admitted, emit the summary as a final JSONL line, and return it.
    [emit] receives each response line (no trailing newline). *)

val run_script : ?config:config -> string list -> string list * summary
(** {!run} over an in-memory request script; returns the emitted
    lines (summary line last) and the summary. *)
