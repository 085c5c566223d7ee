(** Time-domain evaluation of the Section 4 distribution strategies.

    The paper compares communication *volumes*; this module adds the
    execution-time view under the parallel-link model of Section 1.2:
    worker [i] first receives its data at rate [bw_i], then computes its
    cells at rate [s_i] (one cell of the outer-product domain = one work
    unit, one vector entry = one data unit).

    For the Heterogeneous Blocks layout each worker makes one fetch;
    for Homogeneous Blocks the demand-driven hand-out is simulated with
    per-block fetches (every block pays its [2D] input words, as in the
    volume accounting). *)

type timing = {
  makespan : float;
  comm_makespan : float;  (** slowest single worker's total fetch time *)
  per_worker : float array;  (** finish time of each worker *)
}

val het : Platform.Star.t -> n:float -> timing
(** One zone per worker (PERI-SUM layout scaled to [n × n]). *)

val hom : ?k:int -> Platform.Star.t -> n:float -> timing
(** Demand-driven homogeneous blocks with subdivision [k]
    (default 1). *)

val hom_balanced : ?target_imbalance:float -> Platform.Star.t -> n:float -> timing
(** [Commhom/k]: the subdivision picked by the balance search. *)

val compute_bound : Platform.Star.t -> n:float -> float
(** [n² / Σ s_i]: the communication-free lower bound on the makespan. *)
