(** The Homogeneous Blocks strategy of Section 4.1.1 — the
    MapReduce-style baseline.

    The [n × n] computational domain is cut into identical square blocks
    of side [D = √x₁·n] where [x₁] is the relative speed of the slowest
    worker, so that one block is exactly the slowest worker's fair
    share; the number of blocks is [1/x₁] (paper Section 4.1.1, all
    quantities treated as reals; we round the count to the nearest
    integer).  Blocks are handed out demand-driven: whenever a worker
    finishes a block it requests the next one.  Every block costs [2D]
    of input data regardless of overlap with data already sent, so the
    total communication is [#blocks · 2D].

    [Commhom/k] (Section 4.3) divides the block side by successive
    integers [k] — [k² / x₁] blocks of side [D/k] — until the load
    imbalance [e = (tmax - tmin)/tmin] drops below a threshold (1% in
    the paper). *)

type result = {
  k : int;  (** subdivision factor (1 for plain [Commhom]) *)
  blocks : int;
  block_side : float;  (** in data units *)
  per_worker : int array;  (** number of blocks per worker *)
  finish_times : float array;  (** per-worker computation finish time *)
  communication : float;  (** [blocks · 2 · block_side] *)
  imbalance : float;  (** [e]; [infinity] when some worker got no block *)
  makespan : float;
}

val block_count : Platform.Star.t -> k:int -> int
(** [max 1 (round (k²/x₁))]. *)

val demand_driven : Platform.Star.t -> n:float -> k:int -> result
(** Simulate the demand-driven hand-out with subdivision [k], through
    {!tally}: bit-identical to popping every block off an event heap.
    Requires [n > 0] and [k > 0]. *)

val hand_out : Platform.Star.t -> n:float -> k:int -> int array
(** The worker of each block of [demand_driven star ~n ~k], in hand-out
    order (a per-block event-heap merge: the one consumer that needs the
    order, not just the counts).  Requires [n > 0] and [k > 0]. *)

type tally = {
  counts : int array;  (** blocks per worker *)
  finish : float array;  (** finish time of each worker's last block, [0.] if none *)
  tie_walks : int;
      (** how many pairs of chains tied on both their next and their
          previous start time with different steps, and had to be
          compared further back *)
}

val tally : fetch:float array -> compute:float array -> blocks:int -> tally
(** The demand-driven hand-out of [blocks] identical blocks: each
    worker takes the next block the instant it is idle, FIFO among
    equal times, and worker [i] spends [fetch.(i)] then [compute.(i)]
    on each (its finish time from start [s] is
    [s +. fetch.(i) +. compute.(i)]).  Bit-identical to the per-block
    event-heap simulation, in O(blocks) float additions plus
    O(p log p) heap work: start times below a threshold that at most
    [blocks] of them reach are claimed by repeated addition, and only
    the last p to 2p blocks are merged through the heap.  All times
    must be non-negative. *)

val commhom : Platform.Star.t -> n:float -> result
(** [demand_driven ~k:1]: the paper's block size. *)

val commhom_over_k :
  ?target_imbalance:float -> ?max_k:int -> Platform.Star.t -> n:float -> result
(** Increase [k] until [imbalance <= target_imbalance] (default 0.01,
    the paper's 1%) or [k = max_k] (default 128); returns the first
    result meeting the target, or the last one attempted. *)

val ideal_ratio : Platform.Star.t -> float
(** Closed-form ratio of [Commhom] to the lower bound when all
    quantities are treated as reals: [1 / (√x₁ · Σ √x_i)]
    (= [Σs_i / (√s₁ · Σ √s_i)], the quantity bounded in §4.1.3). *)
