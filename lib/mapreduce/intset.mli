(** A flat set of non-negative ints: the scheduler's quarantine set of
    [(worker, task)] pairs and the spill set of a worker whose block
    cache outgrows its inline slots.

    Open addressing with linear probing over one power-of-two
    [int array], kept at most half full.  {!mem} never allocates, and
    {!add} allocates only when it doubles the table.  Only membership
    is queryable, so the slot layout cannot leak into results. *)

type t

val create : int -> t
(** [create cap]: an empty set with room for at least [cap] slots
    (rounded up to a power of two, at least 8). *)

val mem : t -> int -> bool

val add : t -> int -> unit
(** Idempotent.  Raises [Invalid_argument] on [min_int], the empty-slot
    marker. *)

val reset : t -> unit
(** Empties the set, keeping its capacity. *)

val probe_length : t -> int -> int
(** Slots {!mem} reads to decide [x]: 1 when [x] sits in (or [x]'s
    search ends at) its home slot.  For the hash-distribution tests. *)

val capacity : t -> int
(** Current slot count (for the growth tests). *)
