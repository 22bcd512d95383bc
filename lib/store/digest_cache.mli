(** The identity-keyed digest cache, bounded.

    A memo key is the digest of a value's marshal image.  Serving the
    same physical value many times (a model built once and analyzed
    against every scenario, a corpus function linted on every request)
    would pay Marshal + MD5 on every lookup; this cache pays it once
    per value.  Keys are compared with a caller-supplied [same]
    ([( == )] by default), never structurally: the cache is sound only
    for immutable values, whose marshal image cannot change after it
    was digested.  A structurally equal but physically distinct value
    misses and digests afresh, so it still gets exactly the key its
    own image gives.

    The cache is a fixed-capacity FIFO ring: an eviction only costs a
    recompute of that value's digest, never a wrong answer, so
    correctness and determinism do not depend on the bound.  Lookups
    are safe from any domain. *)

type 'k t

type stats = { entries : int; capacity : int; evictions : int }

val create : ?same:('k -> 'k -> bool) -> unit -> 'k t
(** An empty ring of 64 slots.  [same] decides whether a slot's key is the looked-up one.  It must
    not raise, and may only equate keys whose marshal images are equal:
    physical identity of every component guarantees that. *)

val find : 'k t -> 'k -> ('k -> string) -> string
(** [find t k digest] is [digest k], computed on the first lookup of
    [k] (outside the cache's lock) and remembered until evicted. *)

val stats : 'k t -> stats
(** [entries <= capacity] always. *)

val marshal_hex : 'a -> string
(** The lowercase hex MD5 of a value's marshal image, closures
    included: the key spelling the memo tables and the store share. *)
