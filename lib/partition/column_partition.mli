(** Column-based partitioning of the unit square into rectangles of
    prescribed areas — the PERI-SUM / PERI-MAX algorithms of
    Beaumont, Boudet, Rastello & Robert (Algorithmica 2002), used by the
    Heterogeneous Blocks strategy (Section 4.1.2).

    A column-based partition cuts the square into vertical columns, each
    then sliced horizontally.  A column containing zones of areas
    [{a_i}] is forced to width [w = Σ a_i], and contributes
    [k·w + 1] to the sum of half-perimeters ([k] zones of width [w] and
    total height 1).  Restricting to partitions that assign areas sorted
    in non-increasing order to consecutive columns, the optimum over the
    class is computed exactly by an O(p²) dynamic program; it is within
    [1 + (5/4)·LB] of the unrestricted optimum, hence a
    [7/4]-approximation (asymptotically [5/4]). *)

type assignment = {
  columns : int array array;
      (** [columns.(c)] lists the indices (into the input [areas]) of
          the zones stacked in column [c], left to right. *)
  cost : float;  (** value of the optimized objective *)
}

val peri_sum : areas:float array -> assignment
(** Optimal column-based partition for the sum of half-perimeters.
    Raises [Invalid_argument] on an empty array, non-positive areas, or
    areas that do not sum to 1 (within 1e-6). *)

val peri_max : areas:float array -> assignment
(** Same DP, minimizing the maximum half-perimeter.  Unlike PERI-SUM,
    the min-max objective is not guaranteed optimal over arbitrary
    column groupings by the contiguity restriction; measured against
    exhaustive search it stays within ~2% (see the test suite). *)

val to_layout : areas:float array -> assignment -> Layout.t
(** Realize the assignment geometrically: columns left to right, zones
    stacked bottom-up; [rects.(i)] is the zone of [areas.(i)]. *)

val peri_sum_layout : areas:float array -> Layout.t
(** [to_layout ∘ peri_sum]. *)
