(** Whole-model analysis: run a set of attack scenarios through a
    model, locate the hidden paths, and classify every pFSM by the
    Section-6 taxonomy. *)

type pfsm_finding = {
  operation : string;
  pfsm : Primitive.t;
  missing_check : bool;     (** implementation performs no check at all *)
  hidden_hits : int;        (** scenarios that drove its hidden path *)
  example : Env.t option;   (** one such scenario *)
}

type report = {
  model : Model.t;
  scenarios_run : int;
  traces : (Env.t * Trace.t) list;
  findings : pfsm_finding list;
}

val analyze : ?par:bool -> ?memo:bool -> Model.t -> scenarios:Env.t list -> report
(** [par] fans the scenarios out over the {!Par} domain pool (ordered
    reduction — the report is byte-identical to the sequential run for
    any job count); defaults to [false].  [memo] routes each scenario
    through {!run_memo}; it defaults to [true] when an ambient
    {!Store.Handle} is installed (so every analysis goes through the
    persistent store) and [false] otherwise.  Neither changes the
    report. *)

(** {2 Digest-keyed trace memo}

    [Model.run] is pure, so a trace is a function of the
    [(model, scenario)] pair alone.  The memo keys on
    model digest x scenario digest — each the MD5 of the marshal
    image, closures included; hashconsed predicates make that image
    structure-determined, so independently constructed but identical
    models share entries.  Both digests are cached by physical
    identity ({!Store.Digest_cache}; models and envs are immutable), so
    a warm lookup of a model and a scenario built once pays no digest
    at all.  The table is a
    {!Store.Memo} of a seam-free kernel: compute-once, deterministic
    counters, served under any injector. *)

val run_memo : Model.t -> env:Env.t -> Trace.t
(** Memoized [Model.run].  When an ambient {!Store.Handle} is
    installed, an in-memory miss consults the persistent store (same
    key) before computing, and computed traces are written back — so
    a warm store makes reruns recompute nothing even across processes.
    Store corruption or write failure degrades silently to compute; a
    sim-active fault plan bypasses the store entirely (its results
    must not poison honest runs). *)

type memo_stats = Store.Memo.stats = { lookups : int; hits : int; misses : int }

val memo_stats : unit -> memo_stats
(** Also counted in the [pfsm.memo.{lookups,hits,misses}] metrics. *)

val memo_key : Model.t -> Env.t -> string
(** The memo and store key of a [(model, scenario)] pair: the hex
    model digest followed by the hex scenario digest. *)

type digest_cache_stats = Store.Digest_cache.stats = {
  entries : int;
  capacity : int;
  evictions : int;
}

val digest_cache_stats : unit -> digest_cache_stats
(** The model-digest ring ({!Store.Digest_cache}): [entries <=
    capacity] always; an eviction only costs a digest recompute, never
    a wrong answer. *)

val memo_reset : unit -> unit
(** Drop all entries and zero the counters — run this at the start of
    a harness whose output includes the counters, so consecutive runs
    report identical numbers. *)

val exploited : report -> (Env.t * Trace.t) list

val vulnerable_operations : report -> string list
(** Operations containing at least one pFSM with a hidden hit,
    ascending and unique. *)

val model_predset : Model.t -> Predset.t
(** The distinct spec/impl predicates of the model, as a packed
    {!Predset} bitset over intern ids. *)

val vulnerable_pfsms : report -> pfsm_finding list

val taxonomy_matrix : Model.t -> (Taxonomy.kind * (string * Primitive.t) list) list
(** Table 2's rows: every pFSM of the model bucketed by its generic
    type (empty buckets included). *)

val security_checks : report -> (string * Primitive.t) list
(** Where to add checks: the vulnerable pFSMs, each paired with the
    predicate that must be enforced ([pfsm.spec]). *)
