let trace (o : Scheduler.outcome) =
  let t = Des.Trace.create () in
  for k = 0 to Array.length o.Scheduler.copy_task - 1 do
    let resource = Printf.sprintf "w%d" o.Scheduler.copy_worker.(k) in
    let start = o.Scheduler.copy_start.(k) and fetch_end = o.Scheduler.copy_fetch_end.(k) in
    if fetch_end > start then Des.Trace.record t ~resource ~start ~finish:fetch_end ~label:"f";
    Des.Trace.record t ~resource ~start:fetch_end ~finish:o.Scheduler.copy_finish.(k) ~label:"x"
  done;
  t

let gantt ?width outcome = Des.Trace.render_gantt ?width (trace outcome)

(* Chrome export of the schedule through the shared [Des.Trace] bridge.
   A million-task outcome holds up to two intervals per executed copy;
   [max_events] bounds the artifact via the bridge's deterministic
   1-in-k sampler, with explicit sampled_out accounting in the emitted
   trace_stats event. *)
let chrome ?max_events outcome = Des.Trace.to_chrome ?max_events (trace outcome)

let write_chrome ?max_events outcome path =
  Des.Trace.write_chrome ?max_events (trace outcome) path

let utilizations star (outcome : Scheduler.outcome) =
  let t = trace outcome in
  let makespan = outcome.Scheduler.makespan in
  Array.init (Platform.Star.size star) (fun w ->
      if makespan <= 0. then 0.
      else Des.Trace.busy_time t ~resource:(Printf.sprintf "w%d" w) /. makespan)
