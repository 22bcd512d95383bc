(** Request bodies: what each work request actually runs.

    Every handler is deterministic — its result (and its fuel
    consumption) is a pure function of the request and the attempt
    number — so responses are byte-identical whether the work ran
    speculatively on a pool domain or inline in the scheduler's
    replay.

    Fuel: each attempt runs under its own {!Resilience.Deadline} of
    [fuel] units and spends them at defined points (one per corpus
    variant, scenario, exploit row, consistency group).  Exhaustion
    is a typed {!outcome}, not an exception — the scheduler maps it
    to a [deadline] response.  Bad arguments (an unknown app,
    variant or plan) raise {!Resilience.Quarantine.Reject};
    anything else that escapes is a crash and quarantines the
    request. *)

type outcome =
  | Done of Json.t
  | Deadline_hit of { spent : int }

val apps : string list
(** The application names accepted by [analyze] / [exploit]
    requests (the CLI's app list). *)

val model_of : string -> Pfsm.Model.t
(** @raise Resilience.Quarantine.Reject on an unknown name. *)

val scenarios_of : string -> Pfsm.Env.t list
(** The canned exploit + benign scenarios for an app.
    @raise Resilience.Quarantine.Reject on an unknown name. *)

val builds : (Pfsm.Model.t * Pfsm.Env.t list) Store.Memo.t
(** [analyze]'s per-app [(model_of app, scenarios_of app)] pair,
    built once per process so the model's identity is stable
    (bypassed while an injector is installed).  An unknown app is
    rejected before the lookup and leaves no entry. *)

val run : attempt:int -> fuel:int -> Protocol.work -> outcome * int
(** Execute one attempt of a work request under [fuel]; the [int] is
    the fuel actually spent (the scheduler advances virtual time by
    it). *)
