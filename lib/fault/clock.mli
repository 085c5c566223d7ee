(** The fault clock: the stateful bridge between an immutable
    {!Plan} and one run of a consumer (the MapReduce scheduler, a
    [Des.Engine] simulation, ...).

    A clock records every fault the run actually injects, in
    simulated-time order, and mirrors each one into the observability
    layer: an [Obs.Trace] instant (static names, ["fault.crash"],
    ["fault.fetch_failure"], ...) stamped at the wall-clock moment the
    simulator processed it — so Perfetto shows injected faults inline
    with the run's spans — plus an [Obs.Metrics] counter per kind. *)

type event =
  | Crash of { worker : int; time : float }
  | Recover of { worker : int; time : float }
  | Fetch_failure of { worker : int; task : int; attempt : int; time : float }
      (** [attempt] is the 1-based attempt within one copy's fetch *)
  | Task_retry of { task : int; attempt : int; time : float }
      (** the task was re-enqueued; it will restart at [time] *)
  | Quarantine of { worker : int; task : int; time : float }
      (** [worker] exhausted its fetch retries on [task]; the pair is
          barred for the rest of the run *)

type t

val create : ?sink:(event -> unit) -> Plan.t -> t
(** A fresh clock over [plan].  [sink], when given, additionally
    receives every recorded event (for tests and custom exporters). *)

val plan : t -> Plan.t

val record : t -> event -> unit
(** Append an event and emit its trace instant / metric counter. *)

val events : t -> event list
(** Everything recorded so far, in recording (simulated-time) order. *)

type tally = {
  crashes : int;
  recoveries : int;
  fetch_failures : int;
  retries : int;
  quarantines : int;
}

val counts : t -> tally

val arm :
  t ->
  Des.Engine.t ->
  ?on_recover:(worker:int -> Des.Engine.t -> unit) ->
  on_crash:(worker:int -> Des.Engine.t -> unit) ->
  unit ->
  unit
(** Schedule the plan's crash (and recovery) instants into a
    discrete-event engine: at each instant the clock records the event
    and invokes the callback.  This is how a [Des.Engine]-based
    simulation consumes a plan without re-implementing the timeline. *)
