(** The in-memory compute-once tier: one string-keyed table per
    deterministic kernel, in front of the persistent {!Handle.cached}
    tier.

    Compute-once: the first lookup of a key computes it outside the
    table's lock; concurrent lookups of the same key block until it
    settles instead of recomputing.  So the counters are deterministic
    under any scheduling — [misses] = keys computed, [hits] =
    [lookups - misses] — and a kernel runs at most once per key per
    process.  A computation that raises leaves no entry (a waiter then
    computes the key itself) and the exception propagates.

    Soundness rests on two rules, fixed per table by its {!kernel}:
    - a {!Seam_free} kernel calls no fault seam, so its result is the
      same under any injector and the table serves it always;
    - a {!Touches_seams} kernel can be perturbed by an injector, so
      while [Fault.Hooks.current () <> None] the table is bypassed: the
      kernel computes and its counters do not move. *)

type kernel = Seam_free | Touches_seams

type 'v t

type stats = { lookups : int; hits : int; misses : int }

val create : ?metrics:string -> kernel:kernel -> unit -> 'v t
(** A fresh empty table.  With [~metrics:p] every lookup, hit and miss
    is also counted in the [Obs.Metrics] counters [p.lookups],
    [p.hits] and [p.misses]. *)

val find : 'v t -> string -> (unit -> 'v) -> 'v
(** [find t key compute] is the value for [key], computed by
    [compute ()] on the first lookup. *)

val cached : 'v t -> tag:string -> key:string -> (unit -> 'v) -> 'v
(** [find] whose miss goes through {!Handle.cached} under the same
    key: memory first, then the ambient store, then [compute]. *)

val stats : 'v t -> stats

val length : 'v t -> int
(** Settled entries. *)

val reset : 'v t -> unit
(** Drop every entry and zero the counters.  A harness resets a table
    where it stands in for a fresh process: before a leg that must
    read the persistent store, or a timing leg that must time the
    kernel. *)

val reset_all : unit -> unit
(** {!reset} every table ever created. *)
