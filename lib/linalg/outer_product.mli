(** The outer product [aᵀ × b] of Section 4.1, executed for real under a
    zone distribution, with exact communication accounting.

    A worker assigned a zone of [rows × cols] results needs [rows]
    entries of [a] and [cols] entries of [b]: its communication is
    exactly the zone's half-perimeter.  For the Homogeneous Blocks
    strategy every block is paid in full even when a worker receives
    overlapping slices (the MapReduce redundancy the paper criticizes);
    a [dedup] option instead charges each (worker, entry) pair once, to
    quantify how much of the overhead is redundant transfers. *)

type stats = {
  per_worker : int array;  (** words received by each worker *)
  total : int;  (** [Σ per_worker] *)
  result : Matrix.t;  (** assembled [n × n] product, for verification *)
}

val sequential : float array -> float array -> Matrix.t

val distributed : zones:Zone.t array -> float array -> float array -> stats
(** One zone per worker; [zones] must tile [n × n] with
    [n = |a| = |b|] (checked).  Communication = half-perimeter of each
    zone. *)

val demand_driven_blocks :
  ?dedup:bool ->
  workers:int ->
  owners:int array ->
  n_side:int ->
  float array -> float array -> stats
(** Execute a block schedule on actual vectors: [owners.(b)] is the
    worker (in [\[0, workers)], checked) of block [b], as produced by
    {!Partition.Block_hom.hand_out}.  Blocks are
    laid out row-major on the [n_side × n_side] grid of blocks and each
    costs two slices of [block_side] entries ([dedup = false], default,
    the paper's accounting) or only the entries the worker has not yet
    received ([dedup = true]). *)
