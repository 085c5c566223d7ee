(** The work-fraction analysis at the heart of Section 2 ("there is no
    free lunch") and its Section 3 counterpart for sorting.

    For a cost model where splitting the data changes the total work,
    the quantity of interest is the fraction of the sequential work
    [W = work(N)] actually performed when the load is split. *)

val power_partial_fraction : alpha:float -> p:int -> float
(** [W_partial / W = P^(1-alpha)]: the fraction of an [N^alpha] workload
    performed by one divisible-load round over [p] identical workers
    (Section 2).  Tends to 0 as [p] grows when [alpha > 1]. *)

val power_remaining_fraction : alpha:float -> p:int -> float
(** [1 - P^(1-alpha)], the fraction of work left after the round. *)

val sorting_gap : n:float -> p:int -> float
(** [(W - W_partial)/W = log p / log n] for sorting [n] keys split into
    [p] equal lists (Section 3).  Tends to 0 as [n] grows. *)

val done_fraction : Cost_model.t -> allocation:float array -> total:float -> float
(** Measured counterpart: [Σ work(n_i) / work(total)] for an arbitrary
    split of [total] data units.  Requires [total > 0]. *)
