(** Deterministic fault plans.

    A plan is a pure, immutable description of every fault a run will
    inject: permanent or recoverable {e worker crashes} at fixed
    simulated times, {e transient slowdown windows} (a worker computes
    [factor] times slower inside the window — the stragglers of Dean &
    Ghemawat and of LATE), and {e fetch failures} with a per-link
    probability.  All randomness is fixed when the plan is built:
    crash/slowdown placement is drawn from the seeded [Numerics.Rng]
    passed to {!generate}, and per-attempt fetch-failure decisions are
    a pure hash of [(plan salt, worker, attempt counter)] — so replay
    is byte-identical no matter how many domains run trials
    concurrently or in which order links are queried. *)

type crash = {
  worker : int;
  at : float;  (** crash instant (simulated time) *)
  recovery : float option;  (** rejoin instant; [None] = permanent *)
}

type slowdown = {
  worker : int;
  from_time : float;
  until : float;
  factor : float;  (** computation runs [factor >= 1] times slower *)
}

type t

val none : t
(** The empty plan: no faults, valid for any platform size. *)

val make :
  ?crashes:crash list ->
  ?slowdowns:slowdown list ->
  ?fetch_failure:(int * float) list ->
  ?seed:int ->
  p:int ->
  unit ->
  t
(** Build an explicit plan for a [p]-worker platform.  [fetch_failure]
    maps worker index to the probability that one fetch attempt on its
    link fails; [seed] salts the per-attempt failure hash.  Raises
    [Invalid_argument] on out-of-range workers, probabilities outside
    [\[0, 1\]], factors [< 1], empty or inverted windows, overlapping
    windows or crash intervals on one worker, or a non-final permanent
    crash. *)

val generate :
  rng:Numerics.Rng.t ->
  p:int ->
  horizon:float ->
  ?crash_rate:float ->
  ?downtime:float ->
  ?permanent:bool ->
  ?slowdown_rate:float ->
  ?slowdown_factor:float ->
  ?fetch_failure:float ->
  unit ->
  t
(** Draw a random plan: each worker crashes with probability
    [crash_rate] (default 0) at a uniform time in [\[0, horizon)],
    recovering after [downtime] (default [horizon /. 4.]; ignored when
    [permanent], default false); each worker gets, with probability
    [slowdown_rate] (default 0), one slowdown window of factor
    [slowdown_factor] (default 4) covering a uniform quarter of the
    horizon; every link fails each fetch attempt with probability
    [fetch_failure] (default 0).  All draws come from [rng] in a fixed
    order, so the same seed yields the same plan. *)

val p : t -> int
(** Worker count the plan addresses (0 for {!none}). *)

val crashes : t -> crash list
(** All crashes, sorted by time (ties: worker index). *)

val slowdowns : t -> slowdown list

val fetch_failure : t -> worker:int -> float
(** Per-attempt failure probability of the link to [worker]. *)

val fetch_fails : t -> worker:int -> attempt:int -> bool
(** Whether the [attempt]-th fetch ever issued on [worker]'s link
    fails: a pure hash decision, independent of query order. *)

val next_crash : t -> worker:int -> after:float -> crash option
(** First crash of [worker] with [at >= after]. *)

val advance : t -> worker:int -> start:float -> duration:float -> float
(** Completion instant of [duration] seconds of unslowed computation
    started at [start], stretched through the worker's slowdown
    windows.  Crashes are {e not} applied here — truncate with
    {!next_crash}. *)

val work_between : t -> worker:int -> start:float -> until:float -> float
(** Inverse of {!advance}: unslowed-equivalent seconds of computation
    accumulated over [\[start, until\]] — the progress observations the
    LATE-style scheduler extrapolates from. *)
