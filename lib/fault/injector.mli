(** The stateful half of a fault plan: a PRNG stream plus per-seam
    counters.  One injector is created per perturbed run; because the
    plan seed determines the PRNG and the counters start at zero, two
    runs of the same workload under the same plan make identical
    injection decisions. *)

type mutation = Drop_step of int | Dup_step of int

type io_fault =
  | Io_torn of int        (** only this many leading bytes reach disk *)
  | Io_flip of int * int  (** (byte offset, bit) corrupted in flight *)
  | Io_error of string    (** the write fails outright (ENOSPC/EACCES) *)
  | Io_crash              (** the commit dies before rename: orphan tmp *)

type t

val create : Plan.t -> t

val plan : t -> Plan.t

val events : t -> Event.t list
(** Every fault injected so far, oldest first.  The log keeps
    consecutive equal events as one entry with a count; this expands
    it. *)

val event_count : t -> int
(** [List.length (events t)], in O(1). *)

val heap_alloc_fails : t -> requested:int -> bool
(** Should this allocation be denied? *)

val recv_request : t -> requested:int -> consumed:int -> int
(** The chunk size actually granted to a [recv]; raises
    {!Condition.Simulated} with [Socket_reset] past the plan's reset
    point. *)

val fs_denies : t -> path:string -> bool
(** Deterministic per-path denial — the check and the use of the same
    path always agree. *)

val mangle : t -> string -> string
(** Possibly flip one bit of a bulk write's payload (same length). *)

val schedule_mutation : t -> steps:int -> mutation option
(** Perturb a schedule of [steps] steps: drop or duplicate one. *)

val store_write : t -> len:int -> io_fault option
(** Should this [len]-byte persistent-store write be perturbed?  At
    most one fault per write (first matching knob wins), so every
    degraded read traces back to exactly one injected event. *)
