type event =
  | Crash of { worker : int; time : float }
  | Recover of { worker : int; time : float }
  | Fetch_failure of { worker : int; task : int; attempt : int; time : float }
  | Task_retry of { task : int; attempt : int; time : float }
  | Quarantine of { worker : int; task : int; time : float }

type tally = {
  crashes : int;
  recoveries : int;
  fetch_failures : int;
  retries : int;
  quarantines : int;
}

type t = {
  plan : Plan.t;
  mutable events : event list;  (* reverse recording order *)
  mutable tally : tally;
  sink : (event -> unit) option;
}

let m_crashes = Obs.Metrics.counter "fault.crashes"
let m_recoveries = Obs.Metrics.counter "fault.recoveries"
let m_fetch_failures = Obs.Metrics.counter "fault.fetch_failures"
let m_retries = Obs.Metrics.counter "fault.task_retries"
let m_quarantines = Obs.Metrics.counter "fault.quarantines"

let zero_tally =
  { crashes = 0; recoveries = 0; fetch_failures = 0; retries = 0; quarantines = 0 }

let create ?sink plan = { plan; events = []; tally = zero_tally; sink }
let plan t = t.plan

let record t ev =
  t.events <- ev :: t.events;
  let y = t.tally in
  (match ev with
  | Crash _ ->
      t.tally <- { y with crashes = y.crashes + 1 };
      Obs.Metrics.incr_counter m_crashes;
      Obs.Trace.instant "fault.crash"
  | Recover _ ->
      t.tally <- { y with recoveries = y.recoveries + 1 };
      Obs.Metrics.incr_counter m_recoveries;
      Obs.Trace.instant "fault.recover"
  | Fetch_failure _ ->
      t.tally <- { y with fetch_failures = y.fetch_failures + 1 };
      Obs.Metrics.incr_counter m_fetch_failures;
      Obs.Trace.instant "fault.fetch_failure"
  | Task_retry _ ->
      t.tally <- { y with retries = y.retries + 1 };
      Obs.Metrics.incr_counter m_retries;
      Obs.Trace.instant "fault.task_retry"
  | Quarantine _ ->
      t.tally <- { y with quarantines = y.quarantines + 1 };
      Obs.Metrics.incr_counter m_quarantines;
      Obs.Trace.instant "fault.quarantine");
  match t.sink with None -> () | Some f -> f ev

let events t = List.rev t.events
let counts t = t.tally

let arm t engine ?on_recover ~on_crash () =
  List.iter
    (fun (c : Plan.crash) ->
      Des.Engine.schedule engine ~time:c.at (fun eng ->
          record t (Crash { worker = c.worker; time = c.at });
          on_crash ~worker:c.worker eng);
      match (c.recovery, on_recover) with
      | Some r, Some f ->
          Des.Engine.schedule engine ~time:r (fun eng ->
              record t (Recover { worker = c.worker; time = r });
              f ~worker:c.worker eng)
      | _ -> ())
    (Plan.crashes t.plan)
