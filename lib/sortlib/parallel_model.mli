(** Timing model of parallel sample sort on a star platform
    (Section 3): phases 1 and 2 run on the master, phase 3 in parallel
    on the workers.

    Costs (in comparison units, scaled by the master/worker speeds):
    - phase 1: [s·p · log₂(s·p)] — sorting the sample;
    - phase 2: [N · log₂ p] — one binary search per key;
    - phase 3: [max_i w_i · |bucket_i| · log₂ |bucket_i|];
    plus an optional communication term [c_i · |bucket_i|] per worker
    under the parallel-link model. *)

type timing = {
  phase1 : float;
  phase2 : float;
  phase3 : float;  (** the parallel local-sort phase *)
  communication : float;  (** max over workers of its bucket transfer *)
  total : float;
  sequential : float;  (** [N log₂ N] on the master, for speedup *)
  speedup : float;
  divisible_fraction : float;
      (** measured [Σ work(bucket_i) / work(N)] with the [N log N]
          model: how much of the sequential work phase 3 represents *)
}

val evaluate :
  ?master_speed:float ->
  ?with_communication:bool ->
  Platform.Star.t ->
  bucket_sizes:int array ->
  s:int ->
  timing
(** [bucket_sizes] in platform order (bucket [i] on worker [i]).
    [master_speed] defaults to 1; [with_communication] defaults to
    [true].  Raises [Invalid_argument] when the number of buckets
    differs from the platform size. *)
