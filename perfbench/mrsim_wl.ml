(* Workload [mrsim_faults]: the fault-injected MapReduce map phase at
   the ROADMAP's DES headline scale, 10^5 unit-speed workers and 10^6
   unit tasks, under the [nldl mrsim] default fault plan (0.1% crash,
   1% slowdown, 1% fetch failure) drawn from the run's seed.  Only the
   event heap, the scheduler's handlers and [Fault.Plan] do work; no
   socket, JSON or solver code runs.

   One untimed warm-up pass precedes the timed passes: back-to-back
   runs of the same simulation differ by almost 2x on a cold heap. *)

open Common
module Stats = Numerics.Stats
module Scheduler = Mapreduce.Scheduler

let workers = 100_000
let tasks = 1_000_000

type inputs = { star : Platform.Star.t; task_set : Mapreduce.Task.t array; plan : Fault.Plan.t }

let build seed =
  let star, star_ns =
    timed (fun () -> Platform.Star.of_speeds (List.init workers (fun _ -> 1.)))
  in
  let task_set, tasks_ns =
    timed (fun () ->
        Array.init tasks (fun i -> Mapreduce.Task.make ~id:i ~data_ids:[| i |] ~cost:1.))
  in
  let plan, plan_ns =
    timed (fun () ->
        Fault.Plan.generate
          ~rng:(Numerics.Rng.create ~seed ())
          ~p:workers ~horizon:20. ~crash_rate:0.001 ~slowdown_rate:0.01 ~fetch_failure:0.01 ())
  in
  ({ star; task_set; plan }, star_ns, tasks_ns, plan_ns)

(* What must repeat exactly for one seed. *)
type counts = {
  events : int;
  retries : int;
  crashes : int;
  duplicates : int;
  wasted_work : float;
  makespan : float;
}

let counts_of (o : Scheduler.outcome) =
  {
    events = o.Scheduler.events_processed;
    retries = o.Scheduler.retries;
    crashes = o.Scheduler.crashes_survived;
    duplicates = o.Scheduler.duplicates;
    wasted_work = o.Scheduler.wasted_work;
    makespan = o.Scheduler.makespan;
  }

(* The per-pass oracle: every task finished at a finite time. *)
let outcome_ok (o : Scheduler.outcome) =
  o.Scheduler.unfinished = [] && Array.for_all Float.is_finite o.Scheduler.completion

let pass ?(faults = true) inp =
  Gc.full_major ();
  let faults = if faults then inp.plan else Fault.Plan.none in
  let (o, ns), gc =
    with_gc (fun () ->
        timed (fun () ->
            Scheduler.run ~faults inp.star ~tasks:inp.task_set ~block_size:(fun _ -> 1.)))
  in
  (counts_of o, outcome_ok o, ns, gc)

(* Mean ns per push or pop on a heap held at [depth] entries: the hold
   model (pop the minimum, push a later event) the scheduler runs. *)
let heap_ns_per_op ~depth =
  let h = Des.Event_heap.create ~initial_capacity:depth () in
  let rng = Numerics.Rng.create ~seed:7 () in
  for i = 0 to depth - 1 do
    Des.Event_heap.push h ~priority:(Numerics.Rng.float rng) i
  done;
  let ops = 2_000_000 in
  let (), ns =
    timed (fun () ->
        for _ = 1 to ops / 2 do
          let now = Des.Event_heap.min_priority h in
          let e = Des.Event_heap.pop h in
          Des.Event_heap.push h ~priority:(now +. Numerics.Rng.float rng) e
        done)
  in
  float_of_int ns /. float_of_int ops

let run ~seed ~seconds ~trace ~corrupt =
  (* Set-up [setup_reps] times on each side of the timed passes; keep
     the last inputs only. *)
  calibrate ~times:2 ();
  let last = ref None in
  let setups () =
    Array.init setup_reps (fun _ ->
        last := None;
        Gc.full_major ();
        let inp, a, b, c = build seed in
        last := Some inp;
        (a, b, c))
  in
  let before = setups () in
  let inp = Option.get !last in
  let reference, ok0, _, _ = pass inp in
  let timed_passes = ref [] in
  let budget_end = now_ns () + int_of_float (seconds *. 1e9) in
  while List.length !timed_passes < 3 || now_ns () < budget_end do
    calibrate ();
    timed_passes := pass inp :: !timed_passes
  done;
  let gc_minor = List.fold_left (fun acc (_, _, _, g) -> acc +. g.minor_words) 0. !timed_passes in
  let gc_major = List.fold_left (fun acc (_, _, _, g) -> acc + g.major_collections) 0 !timed_passes in
  let passes = Array.of_list (List.rev_map (fun (c, ok, ns, _) -> (c, ok, ns)) !timed_passes) in
  let times = Array.append before (setups ()) in
  let inp = Option.get !last in
  let med f = Stats.median (Array.map f times) in
  let setup_s = med (fun (a, b, c) -> ns_to_s (a + b + c)) in
  let star_s = med (fun (a, _, _) -> ns_to_s a) in
  let plan_s = med (fun (_, _, c) -> ns_to_s c) in
  (if corrupt then
     let c, ok, ns = passes.(0) in
     passes.(0) <- ({ c with events = c.events + 1 }, ok, ns));
  let bad = Array.fold_left (fun n (c, ok, _) -> if ok && c = reference then n else n + 1) 0 passes in
  let failed = (if ok0 then 0 else 1) + bad in
  let walls = Array.map (fun (_, _, ns) -> float_of_int ns /. 1e3) passes in
  let events = reference.events in
  let rate = float_of_int (events * Array.length passes) /. (sum walls /. 1e6) in
  let e2e =
    [
      metric "setup_s" "s" setup_s;
      metric "latency_p50_us" "us" (Stats.median walls);
      metric "throughput_per_s" "1/s" rate;
      metric "peak_rss_mb" "MiB" (peak_rss_mb 0);
    ]
  in
  let report =
    [
      Printf.sprintf
        "mrsim_faults: %d workers x %d tasks, %d events, makespan %.3f, %d retries, %d crashes survived, %d duplicates"
        workers tasks events reference.makespan reference.retries reference.crashes reference.duplicates;
      Printf.sprintf "mrsim_faults: %d timed passes after one warm-up, median %.1f ms, slowest %.1f ms, %.3e events/s"
        (Array.length passes) (Stats.median walls /. 1e3) (max_of walls /. 1e3) rate;
    ]
  in
  let layers, shares, trace_failed =
    if not trace then ([], [], 0)
    else begin
      (* Peel the layers: scheduler alone (no faults), then faults, then
         obs on; the heap is timed alone at the run's high-water depth. *)
      let pass3 ?faults () = let c, ok, ns, _ = pass ?faults inp in (c, ok, ns) in
      let tier ?faults n = Array.init n (fun _ -> pass3 ?faults ()) in
      let ns_per_event t =
        Stats.median (Array.map (fun (c, _, ns) -> float_of_int ns /. float_of_int c.events) t)
      in
      (* Untraced and traced passes alternate, so a slower spell of the
         host does not land on one side only. *)
      let pairs =
        Array.init 3 (fun _ ->
            let u = pass3 () in
            Span.on := true;
            let t = Span.time "mapreduce.scheduler.run" (fun () -> pass3 ()) in
            Span.on := false;
            (u, t))
      in
      let untraced = Array.map fst pairs and traced = Array.map snd pairs in
      let none = tier ~faults:false 2 in
      Obs.Metrics.reset ();
      Obs.Metrics.set_enabled true;
      Obs.Hist.set_enabled true;
      let obs = tier 2 in
      Obs.Metrics.set_enabled false;
      Obs.Hist.set_enabled false;
      let depth =
        match List.assoc_opt "mapreduce.heap_hwm" (Obs.Metrics.snapshot ()).Obs.Metrics.gauges with
        | Some d when Float.is_finite d -> int_of_float d
        | _ -> workers
      in
      let heap_op = heap_ns_per_op ~depth in
      let f = ns_per_event untraced and n = ns_per_event none and o = ns_per_event obs in
      (* Outcome counts must repeat exactly between the timed passes and
         every faulted pass of the traced run. *)
      let mismatched t = Array.fold_left (fun k (c, ok, _) -> if ok && c = reference then k else k + 1) 0 t in
      let tf = mismatched untraced + mismatched traced + mismatched obs in
      let none_ok = Array.for_all (fun (_, ok, _) -> ok) none in
      let heap_per_event = 2. *. heap_op in
      (* Only the heap (timed alone) and [Fault.Plan] (the faulted tier
         minus the unfaulted one) are measured on their own.  The
         scheduler's handlers are the residual of the unfaulted tier, so
         coverage leaves them out. *)
      let coverage = (heap_per_event +. (f -. n)) /. f in
      let gc_per_event = gc_minor /. float_of_int (events * Array.length passes) in
      ( [
          metric "des.event_heap.ns_per_op" "ns" heap_op;
          metric "des.event_heap.depth" "count" (float_of_int depth);
          metric "mapreduce.scheduler.ns_per_event" "ns" (n -. heap_per_event);
          metric "fault.plan.ns_per_event" "ns" (f -. n);
          metric "obs.enabled_ns_per_event" "ns" (o -. f);
          metric "mapreduce.scheduler.events" "count" (float_of_int events);
          metric "mapreduce.scheduler.retries" "count" (float_of_int reference.retries);
          metric "mapreduce.scheduler.crashes_survived" "count" (float_of_int reference.crashes);
          metric "mapreduce.scheduler.duplicates" "count" (float_of_int reference.duplicates);
          metric "mapreduce.scheduler.wasted_work" "work" reference.wasted_work;
          metric "fault.plan.generate_s" "s" plan_s;
          metric "platform.star.build_s" "s" star_s;
          metric "gc.minor_words_per_op" "words" gc_per_event;
          metric "gc.major_collections" "count" (float_of_int gc_major);
          metric "trace.overhead_frac" "ratio"
            ((Stats.median (Array.map (fun (_, _, ns) -> float_of_int ns) traced)
             /. Stats.median (Array.map (fun (_, _, ns) -> float_of_int ns) untraced))
            -. 1.);
          metric "trace.coverage_frac" "ratio" coverage;
        ],
        [ ("des.event_heap", heap_per_event /. f);
          ("(mapreduce.scheduler handlers: residual, not timed alone)", (n -. heap_per_event) /. f);
          ("fault.plan", (f -. n) /. f) ],
        tf + if none_ok then 0 else 1 )
    end
  in
  {
    attempted = 1 + Array.length passes;
    failed = failed + trace_failed;
    checks_ok = true;
    (* Scaling to the calibration kernel narrowed the ten-run spreads of
       the pass time and the event rate in every set measured: the
       simulation runs on one domain, as the kernel does. *)
    scaled = [ "setup_s"; "latency_p50_us"; "throughput_per_s" ];
    e2e;
    layers;
    shares;
    report;
  }
