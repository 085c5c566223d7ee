(* Benchmark harness.

   Two parts:
   1. Bechamel micro-benchmarks of the core kernels (one Test.make per
      kernel, grouped in a single executable).
   2. The paper-reproduction harness: prints the rows/series of every
      experiment of DESIGN.md (E1, E2, E3, Figures 4a-4c, and the
      affinity ablation).

   Usage: main.exe [--quick]   (--quick cuts trial counts for CI)

   In addition to the human-readable report, the harness writes
   BENCH_results.json (kernel name -> ns/run, pool overhead, multicore
   speedup, Fig. 4 domain-scaling) so the perf trajectory is tracked
   across PRs. *)

open Bechamel
open Toolkit

let flag_present f = Array.exists (fun a -> a = f) Sys.argv
let quick = flag_present "--quick"

(* [--check-alloc PATH]: after measuring, diff the per-kernel allocation
   counters against the committed baseline and exit non-zero on >10%
   growth.  [--write-alloc-baseline PATH]: regenerate that baseline. *)
let arg_value flag =
  let rec find = function
    | f :: value :: _ when f = flag -> Some value
    | _ :: rest -> find rest
    | [] -> None
  in
  find (Array.to_list Sys.argv)

let check_alloc_path = arg_value "--check-alloc"
let write_alloc_path = arg_value "--write-alloc-baseline"

(* [--check-throughput PATH]: gate the discrete-event core's events/sec
   against the committed BENCH_results.json (PATH usually names that
   very file, so it is read eagerly here — before the run overwrites it
   at the end). *)
let check_throughput_path = arg_value "--check-throughput"

(* [--check-overhead]: gate the observability tax measured by the
   obs_overhead section — full instrumentation must cost <= 5% of the
   big-MapReduce run, and the disabled path <= 1%.  Both are ratios of
   timings taken in this very process, so machine speed cancels out. *)
let check_overhead = flag_present "--check-overhead"

(* [--check-serve-throughput]: gate the serve_throughput section — warm
   (memo-hit) queries must answer at >= 10x the cold (solve) rate.  A
   ratio of two rates measured in this very process, so machine speed
   cancels out. *)
let check_serve = flag_present "--check-serve-throughput"

(* [--check-lint-time]: gate the lint_time section — the whole two-phase
   pipeline must cost <= 2x its phase 1 (parse + per-file rules), i.e.
   the callgraph, escape set and R-rules together stay within one more
   phase-1 pass.  A ratio of timings taken in this very process, so
   machine speed cancels out. *)
let check_lint_time = flag_present "--check-lint-time"

let throughput_baseline =
  match check_throughput_path with
  | None -> None
  | Some path ->
      let ic = open_in_bin path in
      let raw = really_input_string ic (in_channel_length ic) in
      close_in ic;
      (match Obs.Json.of_string raw with
      | Ok json -> Some (path, json)
      | Error e -> failwith (Printf.sprintf "--check-throughput %s: %s" path e))

(* [--trace [FILE]]: record Obs spans for the whole run and write a
   Chrome trace-event JSON.  [--metrics]: enable the metrics registry
   and embed the merged snapshot in BENCH_results.json. *)
let trace_path =
  if flag_present "--trace" then
    match arg_value "--trace" with
    | Some v when String.length v > 0 && v.[0] <> '-' -> Some v
    | _ -> Some "bench_trace.json"
  else None

let metrics_on = flag_present "--metrics"

let elapsed_s = Obs.Clock.elapsed_s

(* --- Part 1: Bechamel micro-benchmarks --------------------------------- *)

let bench_platform p =
  let rng = Core.Rng.create ~seed:99 () in
  Core.Profiles.generate rng ~p Core.Profiles.paper_lognormal

let test_peri_sum =
  let star = bench_platform 100 in
  let areas = Core.Star.relative_speeds star in
  Test.make ~name:"peri-sum DP (p=100)"
    (Staged.stage (fun () -> ignore (Core.Column_partition.peri_sum ~areas)))

let test_peri_max =
  let star = bench_platform 100 in
  let areas = Core.Star.relative_speeds star in
  Test.make ~name:"peri-max DP (p=100)"
    (Staged.stage (fun () -> ignore (Core.Column_partition.peri_max ~areas)))

let test_demand_driven =
  let star = bench_platform 100 in
  Test.make ~name:"demand-driven blocks (p=100, k=2)"
    (Staged.stage (fun () -> ignore (Core.Block_hom.demand_driven star ~n:1e6 ~k:2)))

let test_commhom_search =
  let star = bench_platform 100 in
  Test.make ~name:"Commhom/k search (p=100, log-normal)"
    (Staged.stage (fun () -> ignore (Core.Block_hom.commhom_over_k star ~n:1e6)))

let test_nonlinear_solver =
  let star = bench_platform 64 in
  Test.make ~name:"nonlinear DLT solve (p=64, alpha=2)"
    (Staged.stage (fun () ->
         ignore
           (Core.Nonlinear_dlt.equal_finish_allocation Core.Dlt_schedule.Parallel star
              (Core.Cost_model.Power 2.) ~total:1e4)))

let test_sample_sort =
  let rng = Core.Rng.create ~seed:4 () in
  let keys = Array.init 100_000 (fun _ -> Core.Rng.float rng) in
  Test.make ~name:"sample sort (N=1e5, p=16)"
    (Staged.stage (fun () ->
         let rng = Core.Rng.create ~seed:5 () in
         ignore (Core.Sample_sort.sort ~cmp:Float.compare rng keys ~p:16)))

let test_distributed_matmul =
  let rng = Core.Rng.create ~seed:6 () in
  let n = 96 in
  let a = Core.Matrix.random rng ~rows:n ~cols:n in
  let b = Core.Matrix.random rng ~rows:n ~cols:n in
  let star = bench_platform 8 in
  let zones = Core.Zone.for_platform star ~n in
  Test.make ~name:"distributed matmul (n=96, p=8)"
    (Staged.stage (fun () -> ignore (Core.Matmul.distributed ~zones a b)))

let test_event_queue =
  Test.make ~name:"event queue push+pop (10k)"
    (Staged.stage (fun () ->
         let q = Des.Event_queue.create () in
         for i = 0 to 9_999 do
           Des.Event_queue.push q ~priority:(float_of_int ((i * 7919) mod 10_000)) i
         done;
         while not (Des.Event_queue.is_empty q) do
           ignore (Des.Event_queue.pop q)
         done))

let test_event_heap =
  (* [exercise] drives push+pop from inside the module, so the number
     does not depend on cross-module inlining (dev profiles pass
     [-opaque], which would box one float per out-of-module push). *)
  Test.make ~name:"event heap push+pop (10k)"
    (Staged.stage (fun () ->
         let h = Des.Event_heap.create ~initial_capacity:10_000 () in
         Des.Event_heap.exercise h ~rounds:1 ~batch:10_000))

let test_strassen =
  let rng = Core.Rng.create ~seed:7 () in
  let n = 128 in
  let a = Core.Matrix.random rng ~rows:n ~cols:n in
  let b = Core.Matrix.random rng ~rows:n ~cols:n in
  Test.make ~name:"strassen (n=128, cutoff=32)"
    (Staged.stage (fun () -> ignore (Core.Strassen.multiply ~cutoff:32 a b)))

let test_cannon =
  let rng = Core.Rng.create ~seed:9 () in
  let n = 96 in
  let a = Core.Matrix.random rng ~rows:n ~cols:n in
  let b = Core.Matrix.random rng ~rows:n ~cols:n in
  Test.make ~name:"cannon (n=96, 4x4 grid)"
    (Staged.stage (fun () -> ignore (Core.Cannon.distributed ~grid:4 a b)))

let test_histogram_sort =
  let rng = Core.Rng.create ~seed:10 () in
  let keys = Array.init 100_000 (fun _ -> Core.Rng.float rng) in
  Test.make ~name:"histogram splitters (N=1e5, p=16)"
    (Staged.stage (fun () ->
         ignore (Core.Histogram_sort.splitters ~tolerance:0.01 keys ~p:16)))

let test_lu =
  let rng = Core.Rng.create ~seed:11 () in
  let n = 96 in
  let base = Core.Matrix.random rng ~rows:n ~cols:n in
  let a = Core.Matrix.add base (Core.Matrix.scale (float_of_int n) (Core.Matrix.identity n)) in
  Test.make ~name:"LU factorize (n=96, block=32)"
    (Staged.stage (fun () -> ignore (Core.Lu.factorize ~block:32 a)))

let test_cholesky =
  let rng = Core.Rng.create ~seed:12 () in
  let n = 96 in
  let m = Core.Matrix.random rng ~rows:n ~cols:n in
  let a =
    Core.Matrix.add
      (Core.Matrix.mul m (Core.Matrix.transpose m))
      (Core.Matrix.scale (float_of_int n) (Core.Matrix.identity n))
  in
  Test.make ~name:"Cholesky factorize (n=96, block=32)"
    (Staged.stage (fun () -> ignore (Core.Cholesky.factorize ~block:32 a)))

let test_karatsuba =
  let rng = Core.Rng.create ~seed:13 () in
  let a = Array.init 1024 (fun _ -> Core.Rng.uniform rng (-1.) 1.) in
  let b = Array.init 1024 (fun _ -> Core.Rng.uniform rng (-1.) 1.) in
  Test.make ~name:"karatsuba (n=1024)"
    (Staged.stage (fun () -> ignore (Core.Poly.karatsuba ~cutoff:32 a b)))

let test_psrs =
  let rng = Core.Rng.create ~seed:14 () in
  let keys = Array.init 100_000 (fun _ -> Core.Rng.float rng) in
  Test.make ~name:"PSRS sort (N=1e5, p=16)"
    (Staged.stage (fun () -> ignore (Core.Psrs.sort keys ~p:16)))

let test_mapreduce =
  let rng = Core.Rng.create ~seed:8 () in
  let a = Array.init 256 (fun _ -> Core.Rng.float rng) in
  let b = Array.init 256 (fun _ -> Core.Rng.float rng) in
  let star = bench_platform 8 in
  Test.make ~name:"MapReduce outer-product map phase (n=256, p=8)"
    (Staged.stage (fun () ->
         let job = Core.Mr_jobs.outer_product ~a ~b ~chunk:32 in
         ignore
           (Core.Mr_scheduler.run star ~tasks:job.Core.Mr_engine.tasks
              ~block_size:job.Core.Mr_engine.block_size)))

let report_multicore () =
  (* Real-parallelism check of phase 3 (§3): host-dependent, so
     reported rather than benchmarked. *)
  let domains = Core.Parallel.default_domains () in
  let seq, par, speedup =
    Core.Multicore_sort.speedup (Core.Rng.create ~seed:77 ()) ~n:500_000 ~p:16
  in
  Printf.printf
    "\nMulticore sample sort (N=5e5, p=16, %d domains): %.3fs sequential, %.3fs parallel \
     (speedup %.2fx)\n%!"
    domains seq par speedup;
  Obs.Json.Obj
    [
      ("domains", Obs.Json.Int domains);
      ("sequential_s", Obs.Json.Float seq);
      ("parallel_s", Obs.Json.Float par);
      ("speedup", Obs.Json.Float speedup);
    ]

let report_sort_throughput () =
  (* Headline keys/sec of the flat-buffer sort pipelines, median of >= 3
     interleaved trials so drift hits every variant equally. *)
  let n = if quick then 200_000 else 1_000_000 in
  let p = 16 in
  let trials = if quick then 3 else 5 in
  let rng = Core.Rng.create ~seed:31 () in
  let keys = Array.init n (fun _ -> Core.Rng.float rng) in
  let domains = Core.Parallel.default_domains () in
  Core.Parallel.warm_up ~domains ();
  let median samples =
    let sorted = Array.copy samples in
    Array.sort Float.compare sorted;
    sorted.(Array.length sorted / 2)
  in
  let pipelines =
    [
      ( "multicore",
        fun () -> ignore (Core.Multicore_sort.sort ~domains (Core.Rng.create ~seed:32 ()) keys ~p) );
      ("psrs", fun () -> ignore (Core.Psrs.sort keys ~p));
      ("histogram", fun () -> ignore (Core.Histogram_sort.sort keys ~p));
    ]
  in
  (* Untimed warm-up of each pipeline, then interleaved trials. *)
  List.iter (fun (_, f) -> f ()) pipelines;
  let times = List.map (fun (name, _) -> (name, Array.make trials 0.)) pipelines in
  for t = 0 to trials - 1 do
    List.iter
      (fun (name, f) ->
        let (), s = elapsed_s f in
        (List.assoc name times).(t) <- s)
      pipelines
  done;
  Experiments.Report.section
    (Printf.sprintf "Sort throughput (N=%d, p=%d, median of %d trials)" n p trials);
  let table = Numerics.Ascii_table.create ~headers:[ "pipeline"; "keys/sec"; "seconds" ] in
  Numerics.Ascii_table.set_align table [ Numerics.Ascii_table.Left; Right; Right ];
  let rows =
    List.map
      (fun (name, samples) ->
        let seconds = median samples in
        let throughput = float_of_int n /. seconds in
        Numerics.Ascii_table.add_row table
          [ name; Printf.sprintf "%.3e" throughput; Printf.sprintf "%.3f" seconds ];
        ( name,
          Obs.Json.Obj
            [
              ("keys_per_sec", Obs.Json.Float throughput);
              ("median_seconds", Obs.Json.Float seconds);
            ] ))
      times
  in
  Numerics.Ascii_table.print table;
  Obs.Json.Obj
    ([ ("n_keys", Obs.Json.Int n); ("p", Obs.Json.Int p); ("trials", Obs.Json.Int trials) ] @ rows)

let report_pool_overhead () =
  (* Tentpole check: submitting to the persistent pool must beat paying
     a Domain.spawn/join round-trip per call. *)
  let d = max 2 (min 8 (Core.Parallel.default_domains ())) in
  let iters = if quick then 200 else 1000 in
  let pool = Core.Pool.create ~domains:d () in
  Core.Pool.parallel_for pool d (fun _ -> ());
  let (), pool_s =
    elapsed_s (fun () ->
        for _ = 1 to iters do
          Core.Pool.parallel_for pool d (fun _ -> ())
        done)
  in
  let (), spawn_s =
    elapsed_s (fun () ->
        for _ = 1 to iters do
          let spawned = List.init (d - 1) (fun _ -> Domain.spawn (fun () -> ())) in
          List.iter Domain.join spawned
        done)
  in
  Core.Pool.teardown pool;
  let pool_ns = pool_s *. 1e9 /. float_of_int iters in
  let spawn_ns = spawn_s *. 1e9 /. float_of_int iters in
  Printf.printf
    "\nPool dispatch overhead (%d domains, %d calls): %.1f us/call pooled vs %.1f us/call \
     spawn-per-call (%.1fx less)\n%!"
    d iters (pool_ns /. 1e3) (spawn_ns /. 1e3)
    (spawn_ns /. pool_ns);
  Obs.Json.Obj
    [
      ("domains", Obs.Json.Int d);
      ("iterations", Obs.Json.Int iters);
      ("pool_ns_per_call", Obs.Json.Float pool_ns);
      ("spawn_ns_per_call", Obs.Json.Float spawn_ns);
      ("overhead_ratio", Obs.Json.Float (spawn_ns /. pool_ns));
    ]

let report_fig4_scaling () =
  (* Domain-count scaling of the Fig. 4 Monte-Carlo sweep, with an
     output-identity check: the pre-split per-trial RNGs make the rows
     byte-identical at any domain count.

     Each domain count is timed as the median of three sweeps after an
     untimed warm-up: a single-shot timing once recorded a phantom
     0.786x "regression" at 2 domains that median sampling does not
     reproduce (see EXPERIMENTS.md).  Domain counts above the
     hardware's recommended count are still measured (the series keeps
     its shape across hosts) but flagged [oversubscribed]: on such
     hosts the extra domain can only time-slice, so speedup ~1.0 is
     the expected reading, not a regression. *)
  let trials = if quick then 10 else 100 in
  let processor_counts = if quick then [ 10; 20; 40 ] else Experiments.Fig4.default_processor_counts in
  let profile = Core.Profiles.paper_lognormal in
  let max_d = Core.Parallel.default_domains () in
  let domain_counts =
    List.sort_uniq compare (List.filter (fun d -> d <= max 2 max_d) [ 1; 2; 4; max_d ])
  in
  Core.Parallel.warm_up ~domains:(List.fold_left max 1 domain_counts) ();
  let runs =
    List.map
      (fun d ->
        let points =
          Experiments.Fig4.sweep ~processor_counts ~trials ~domains:d profile
        in
        let times =
          Array.init 3 (fun _ ->
              let _, s =
                elapsed_s (fun () ->
                    Experiments.Fig4.sweep ~processor_counts ~trials ~domains:d profile)
              in
              s)
        in
        Array.sort Float.compare times;
        (d, times.(1), Experiments.Fig4.csv points))
      domain_counts
  in
  let _, base_seconds, base_csv = List.hd runs in
  let identical =
    List.for_all (fun (_, _, csv) -> csv = base_csv) runs
  in
  Experiments.Report.section
    (Printf.sprintf "Fig. 4 sweep domain scaling (lognormal, %d trials/point, %d hardware domains)"
       trials max_d);
  let table =
    Numerics.Ascii_table.create ~headers:[ "domains"; "seconds"; "speedup"; "output" ]
  in
  List.iter
    (fun (d, seconds, csv) ->
      Numerics.Ascii_table.add_row table
        [
          (if d > max_d then Printf.sprintf "%d (oversubscribed)" d else string_of_int d);
          Printf.sprintf "%.3f" seconds;
          Printf.sprintf "%.2fx" (base_seconds /. seconds);
          (if csv = base_csv then "identical" else "DIFFERS");
        ])
    runs;
  Numerics.Ascii_table.print table;
  if not identical then
    Printf.printf "WARNING: Fig. 4 output changed with the domain count!\n%!";
  Obs.Json.Obj
    [
      ("trials", Obs.Json.Int trials);
      ("hardware_domains", Obs.Json.Int max_d);
      ("outputs_identical", Obs.Json.Bool identical);
      ( "runs",
        Obs.Json.List
          (List.map
             (fun (d, seconds, _) ->
               Obs.Json.Obj
                 [
                   ("domains", Obs.Json.Int d);
                   ("seconds", Obs.Json.Float seconds);
                   ("speedup", Obs.Json.Float (base_seconds /. seconds));
                   ("oversubscribed", Obs.Json.Bool (d > max_d));
                 ])
             runs) );
    ]

(* --- Discrete-event core throughput ------------------------------------ *)

(* Sustained seconds per [n]-push-[n]-pop cycle: median of [samples]
   timed blocks, GC work left inside the timed region.  Bechamel-style
   stabilized sampling would let the allocating queue dodge its
   collections, a mean would let one descheduling hiccup sink the gated
   rate; the median of sustained blocks avoids both.  One untimed
   warm-up call grows the buffers first. *)
let sustained ~samples ~rounds f =
  f ();
  let times =
    Array.init samples (fun _ ->
        let (), s =
          elapsed_s (fun () ->
              for _ = 1 to rounds do
                f ()
              done)
        in
        s /. float_of_int rounds)
  in
  Array.sort Float.compare times;
  times.(samples / 2)

let rounds_for n = max 1 (400_000 / n)

let time_heap_push_pop n =
  let h = Des.Event_heap.create ~initial_capacity:n () in
  sustained ~samples:(if n >= 1_000_000 then 3 else 5) ~rounds:(rounds_for n)
    (fun () -> Des.Event_heap.exercise h ~rounds:1 ~batch:n)

let time_queue_push_pop n =
  let run () =
    let q = Des.Event_queue.create () in
    for i = 0 to n - 1 do
      Des.Event_queue.push q ~priority:(float_of_int ((i * 7919) land 0xFFFFF)) i
    done;
    while not (Des.Event_queue.is_empty q) do
      ignore (Des.Event_queue.pop q)
    done
  in
  sustained ~samples:3 ~rounds:(rounds_for n) run

(* The fault-injected big-MapReduce workload shared by the
   [des_throughput] and [obs_overhead] sections: 10^5 uniform workers,
   10^6 unit tasks, the ISSUE 7 headline scale.  Rebuilding the inputs
   per section keeps each section self-contained; the returned thunk
   runs one deterministic simulation. *)
let big_mr_workers = 100_000
let big_mr_tasks = 1_000_000

let big_mr_run () =
  let star = Core.Star.of_speeds (List.init big_mr_workers (fun _ -> 1.)) in
  let tasks =
    Array.init big_mr_tasks (fun i -> Core.Mr_task.make ~id:i ~data_ids:[| i |] ~cost:1.)
  in
  let faults =
    Fault.Plan.generate
      ~rng:(Core.Rng.create ~seed:42 ())
      ~p:big_mr_workers ~horizon:20. ~crash_rate:0.001 ~slowdown_rate:0.01
      ~fetch_failure:0.01 ()
  in
  fun () -> Core.Mr_scheduler.run ~faults star ~tasks ~block_size:(fun _ -> 1.)

let report_des_throughput ~best_mr_seconds () =
  Experiments.Report.section "Discrete-event core throughput (events/sec)";
  (* Heap vs boxed queue, like for like, at both scales.  The 10k point
     is the historical micro-benchmark; the 1M point is what this PR is
     for — the boxed queue collapses there (deep boxed comparisons plus
     a multi-megabyte live set the minor GC walks), which is exactly the
     gap the flat heap closes. *)
  let rate_of n s = float_of_int (2 * n) /. s in
  let heap_s_10k = time_heap_push_pop 10_000 in
  let queue_s_10k = time_queue_push_pop 10_000 in
  let heap_s_1m = time_heap_push_pop 1_000_000 in
  let queue_s_1m = time_queue_push_pop 1_000_000 in
  let heap_rate_10k = rate_of 10_000 heap_s_10k in
  let queue_rate_10k = rate_of 10_000 queue_s_10k in
  let heap_rate_1m = rate_of 1_000_000 heap_s_1m in
  let queue_rate_1m = rate_of 1_000_000 queue_s_1m in
  let speedup_10k = heap_rate_10k /. queue_rate_10k in
  let speedup_1m = heap_rate_1m /. queue_rate_1m in
  let table =
    Numerics.Ascii_table.create ~headers:[ "workload"; "events/sec"; "seconds" ]
  in
  Numerics.Ascii_table.set_align table [ Numerics.Ascii_table.Left; Right; Right ];
  List.iter
    (fun (name, r, s) ->
      Numerics.Ascii_table.add_row table
        [ name; Printf.sprintf "%.3e" r; Printf.sprintf "%.4f" s ])
    [
      ("heap push+pop (10000)", heap_rate_10k, heap_s_10k);
      ("queue push+pop (10000)", queue_rate_10k, queue_s_10k);
      ("heap push+pop (1000000)", heap_rate_1m, heap_s_1m);
      ("queue push+pop (1000000)", queue_rate_1m, queue_s_1m);
    ];
  (* Fault-injected MapReduce at paper-sweep scale: the end-to-end
     events/sec of the rewritten scheduler, [events_processed] over wall
     time.  This one does NOT shrink in --quick — 10^5 workers x 10^6
     tasks is the ISSUE 7 headline and the whole run is ~3s, so CI and
     the committed artifact always gate like-for-like at full scale
     (the rate is scale-dependent: the 10x smaller run clocks ~3x
     higher events/sec on a smaller working set).  Low fault rates keep
     the workload dominated by regular dispatch: ~0.1% of workers crash
     (with recovery), 1% are slowed, and every link drops 1% of
     fetches. *)
  let workers = big_mr_workers in
  let n_tasks = big_mr_tasks in
  let run_mr = big_mr_run () in
  (* The run is deterministic, so timing the same simulation twice and
     keeping the faster pass is pure noise control; the [full_major]
     keeps garbage from the queue loop above (and from the first pass)
     out of the timed region.  [best_mr_seconds] folds in the best of
     the obs_overhead section's passes over the identical workload, so
     the gated headline is a min over ~8 timings spread across the
     process instead of 2 adjacent ones — a transient slow window on a
     shared runner can no longer sink the committed-baseline gate. *)
  Gc.full_major ();
  let outcome, s1 = elapsed_s run_mr in
  Gc.full_major ();
  let _, s2 = elapsed_s run_mr in
  let seconds = Float.min (Float.min s1 s2) best_mr_seconds in
  let events = outcome.Core.Mr_scheduler.events_processed in
  let mr_rate = float_of_int events /. seconds in
  Numerics.Ascii_table.add_row table
    [
      Printf.sprintf "mapreduce %dx%d (faults on)" workers n_tasks;
      Printf.sprintf "%.3e" mr_rate;
      Printf.sprintf "%.4f" seconds;
    ];
  Numerics.Ascii_table.print table;
  Printf.printf
    "Heap vs queue: %.1fx at 10k, %.1fx at 1M; large MapReduce: %d events, makespan \
     %.2f, %d retries, %d crashes, %d unfinished\n%!"
    speedup_10k speedup_1m events outcome.Core.Mr_scheduler.makespan
    outcome.Core.Mr_scheduler.retries outcome.Core.Mr_scheduler.crashes_survived
    (List.length outcome.Core.Mr_scheduler.unfinished);
  Obs.Json.Obj
    [
      ("heap_ops_per_sec_10k", Obs.Json.Float heap_rate_10k);
      ("heap_ops_per_sec_1m", Obs.Json.Float heap_rate_1m);
      ("queue_ops_per_sec_10k", Obs.Json.Float queue_rate_10k);
      ("queue_ops_per_sec_1m", Obs.Json.Float queue_rate_1m);
      ("heap_vs_queue_speedup_10k", Obs.Json.Float speedup_10k);
      ("heap_vs_queue_speedup_1m", Obs.Json.Float speedup_1m);
      ( "mapreduce",
        Obs.Json.Obj
          [
            ("workers", Obs.Json.Int workers);
            ("tasks", Obs.Json.Int n_tasks);
            ("events_processed", Obs.Json.Int events);
            ("seconds", Obs.Json.Float seconds);
            ("events_per_sec", Obs.Json.Float mr_rate);
            ("makespan", Obs.Json.Float outcome.Core.Mr_scheduler.makespan);
            ("retries", Obs.Json.Int outcome.Core.Mr_scheduler.retries);
            ( "crashes_survived",
              Obs.Json.Int outcome.Core.Mr_scheduler.crashes_survived );
            ( "unfinished",
              Obs.Json.Int (List.length outcome.Core.Mr_scheduler.unfinished) );
          ] );
    ]

(* --- Observability overhead -------------------------------------------- *)

(* Run the big MapReduce with the full observability stack forced off,
   then forced on (metrics + histograms + tracing), interleaved
   min-of-2 on each side — same process, same deterministic workload,
   back to back, so the ratio is the instrumentation tax and nothing
   else.  The section sets the flags itself on both sides: it must not
   inherit --metrics, or the "disabled" baseline would be instrumented
   too and the ratio would gate nothing.

   The disabled path is too cheap to resolve that way (the gate is 1%
   of ~600ns/event), so it gets a microbenchmark instead: the
   instrumented hot loops hoist one [obs_on] bool per run and guard
   each record site with a plain conditional on it, so the disabled
   per-event cost is a handful of load+branch tests.  We time a tight
   loop with and without that exact shape and charge three such tests
   per event (an upper bound: the scheduler executes at most ~3 gated
   sites per event). *)
let report_obs_overhead () =
  Experiments.Report.section "Observability overhead (big MapReduce, full stack on)";
  let run_mr = big_mr_run () in
  let prev_m = Obs.Metrics.enabled () in
  let prev_h = Obs.Hist.enabled () in
  let prev_t = Obs.Trace.enabled () in
  let set_all on =
    Obs.Metrics.set_enabled on;
    Obs.Hist.set_enabled on;
    Obs.Trace.set_enabled on
  in
  let timed_pass on =
    set_all on;
    Gc.full_major ();
    let outcome, s = elapsed_s run_mr in
    (outcome.Core.Mr_scheduler.events_processed, s)
  in
  (* Three interleaved disabled/enabled pairs, min per side: the min is
     the noise-robust estimator for a ratio gate, and interleaving keeps
     slow drift (thermal, page cache) from biasing one side. *)
  let pairs = 3 in
  let events = ref 0 in
  let disabled_seconds = ref infinity in
  let enabled_seconds = ref infinity in
  for _ = 1 to pairs do
    let ev, d = timed_pass false in
    events := ev;
    if d < !disabled_seconds then disabled_seconds := d;
    let _, e = timed_pass true in
    if e < !enabled_seconds then enabled_seconds := e
  done;
  Obs.Metrics.set_enabled prev_m;
  Obs.Hist.set_enabled prev_h;
  Obs.Trace.set_enabled prev_t;
  let events = !events in
  let disabled_seconds = !disabled_seconds in
  let enabled_seconds = !enabled_seconds in
  let overhead_ratio = enabled_seconds /. disabled_seconds in
  (* Disabled-path microbenchmark.  [gate] is a ref so the load cannot
     be hoisted out of the loop, and it is plain [false] — exactly the
     hoisted [obs_on] the instrumented loops test — so the guarded
     record never fires, just like a disabled run. *)
  let h_probe = Obs.Hist.create "bench.obs_probe" in
  let sh_probe = Obs.Hist.shard h_probe in
  let gate = ref false in
  let iters = 20_000_000 in
  let time_loop body =
    let best = ref infinity in
    for _ = 1 to 3 do
      let _, s = elapsed_s body in
      if s < !best then best := s
    done;
    !best
  in
  let base_s =
    time_loop (fun () ->
        let acc = ref 0 in
        for i = 0 to iters - 1 do
          acc := !acc + (i land 1023)
        done;
        ignore (Sys.opaque_identity !acc))
  in
  let gated_s =
    time_loop (fun () ->
        let acc = ref 0 in
        for i = 0 to iters - 1 do
          if !gate then Obs.Hist.record_into sh_probe i;
          acc := !acc + (i land 1023)
        done;
        ignore (Sys.opaque_identity !acc))
  in
  let gated_ns = Float.max 0. ((gated_s -. base_s) /. float_of_int iters *. 1e9) in
  let ns_per_event = disabled_seconds /. float_of_int events *. 1e9 in
  let disabled_fraction = gated_ns *. 3. /. ns_per_event in
  Printf.printf
    "enabled %.4fs vs disabled %.4fs: %.2f%% overhead (full stack)\n\
     disabled path: %.3f ns/gated check, %.1f ns/event -> %.3f%% charged at 3 \
     checks/event\n\
     %!"
    enabled_seconds disabled_seconds
    ((overhead_ratio -. 1.) *. 100.)
    gated_ns ns_per_event (disabled_fraction *. 100.);
  ( Obs.Json.Obj
      [
        ("disabled_seconds", Obs.Json.Float disabled_seconds);
        ("enabled_seconds", Obs.Json.Float enabled_seconds);
        ("overhead_ratio", Obs.Json.Float overhead_ratio);
        ("gated_check_ns", Obs.Json.Float gated_ns);
        ("ns_per_event", Obs.Json.Float ns_per_event);
        ("disabled_path_fraction", Obs.Json.Float disabled_fraction);
      ],
    Float.min disabled_seconds enabled_seconds )

(* --- serve throughput: the query-plane daemon's engine, in-process ---- *)

(* Distinct nonlinear Ratio queries exercise the cold path (parse ->
   fingerprint -> bisection solve -> insert); replaying the same lines
   exercises the warm memo-hit path the daemon answers repeats from.
   Driving Serve.Batch directly keeps socket I/O out of the measurement
   — this is the cache's speedup, which is what the 10x gate pins. *)
let report_serve_throughput () =
  Printf.printf "\n-- serve throughput (cold solve vs warm cache hit) --\n%!";
  let n = if quick then 64 else 256 in
  let lines =
    Array.init n (fun i ->
        match
          Api.Request.make
            ~workload:(Dlt.Cost_model.Power 2.)
            ~total:(100. +. float_of_int i)
            ~platform:(Api.Request.Speeds [| 1.; 2.; 3.; 5.; 8.; 13.; 21.; 34. |])
            ~kind:Api.Request.Ratio ()
        with
        | Ok r -> Obs.Json.to_compact (Api.Request.to_json r)
        | Error e -> failwith ("serve bench request: " ^ e))
  in
  let batch =
    Serve.Batch.create
      { Serve.Batch.default_config with Serve.Batch.cache_capacity = 2 * n }
  in
  let t0 = Obs.Clock.now_ns () in
  Array.iter (fun l -> ignore (Serve.Batch.handle_line batch l)) lines;
  let cold_s = Obs.Clock.ns_to_s (Obs.Clock.now_ns () - t0) in
  let reps = if quick then 50 else 200 in
  let t1 = Obs.Clock.now_ns () in
  for _ = 1 to reps do
    Array.iter (fun l -> ignore (Serve.Batch.handle_line batch l)) lines
  done;
  let warm_s = Obs.Clock.ns_to_s (Obs.Clock.now_ns () - t1) in
  let cold_qps = float_of_int n /. cold_s in
  let warm_qps = float_of_int (n * reps) /. warm_s in
  let ratio = warm_qps /. cold_qps in
  Printf.printf
    "cold %.0f queries/s (%d distinct), warm %.0f queries/s (%d hits): %.1fx\n%!"
    cold_qps n warm_qps (n * reps) ratio;
  assert (Serve.Batch.hits batch = n * reps);
  Obs.Json.Obj
    [
      ("queries", Obs.Json.Int n);
      ("cold_queries_per_sec", Obs.Json.Float cold_qps);
      ("warm_queries_per_sec", Obs.Json.Float warm_qps);
      ("warm_over_cold", Obs.Json.Float ratio);
      ("cache_hits", Obs.Json.Int (Serve.Batch.hits batch));
      ("cache_misses", Obs.Json.Int (Serve.Batch.misses batch));
    ]

let check_serve_gate serve_json =
  if not check_serve then true
  else
    let ratio =
      match Obs.Json.member "warm_over_cold" serve_json with
      | Some (Obs.Json.Float f) -> f
      | Some (Obs.Json.Int i) -> float_of_int i
      | _ -> nan
    in
    if ratio >= 10. then begin
      Printf.printf "\nServe throughput check: OK (warm %.1fx cold >= 10x)\n%!" ratio;
      true
    end
    else begin
      Printf.printf "\nServe throughput check: FAILED\n%!";
      Printf.printf "  REGRESSION warm/cold %.2fx < required 10x floor\n%!" ratio;
      false
    end

(* Gate for [--check-overhead]: instrumentation <= 5% on the big run,
   disabled path <= 1%.  Pure same-process ratios — no committed
   baseline involved, so the gate is machine-independent. *)
let check_overhead_gate obs_overhead =
  if not check_overhead then true
  else
    let num k =
      match Obs.Json.member k obs_overhead with
      | Some (Obs.Json.Float f) -> f
      | Some (Obs.Json.Int i) -> float_of_int i
      | _ -> nan
    in
    let ratio = num "overhead_ratio" in
    let frac = num "disabled_path_fraction" in
    let failures = ref [] in
    if not (ratio <= 1.05) then
      failures :=
        Printf.sprintf "enabled instrumentation costs %.2f%% > 5%% budget"
          ((ratio -. 1.) *. 100.)
        :: !failures;
    if not (frac <= 0.01) then
      failures :=
        Printf.sprintf "disabled path costs %.3f%% > 1%% budget" (frac *. 100.)
        :: !failures;
    match List.rev !failures with
    | [] ->
        Printf.printf "\nObservability overhead check: OK\n%!";
        true
    | failures ->
        Printf.printf "\nObservability overhead check: FAILED\n%!";
        List.iter (fun f -> Printf.printf "  REGRESSION %s\n%!" f) failures;
        false

(* --- lint time: whole pipeline vs its phase 1 ---------------------- *)

(* One driver run over the tree [dune build @lint] gates, then phase 2
   (Callgraph.build + Escape.compute + Interproc.findings) re-timed
   alone over that run's fragments; phase 1 (read, parse, per-file
   rules, fragment extraction) is the remainder.  The interprocedural
   layer's whole cost budget is "parse dominates": linking fragments
   and walking the escape set must stay within one extra phase-1 pass. *)
let report_lint_time () =
  Printf.printf "\n-- lint time (whole pipeline vs its phase 1) --\n%!";
  let rec find_root dir =
    if
      Sys.file_exists (Filename.concat dir "dune-project")
      && Sys.file_exists (Filename.concat dir "lib")
    then Some dir
    else
      let parent = Filename.dirname dir in
      if parent = dir then None else find_root parent
  in
  match find_root (Sys.getcwd ()) with
  | None ->
      Printf.printf "repo root not found; section skipped\n%!";
      Obs.Json.Null
  | Some root ->
      let r, run_s = Obs.Clock.elapsed_s (fun () -> Lint.Driver.run ~root ()) in
      let frags = Lint.Callgraph.fragments r.Lint.Driver.graph in
      let (), phase2_s =
        Obs.Clock.elapsed_s (fun () ->
            let g = Lint.Callgraph.build frags in
            ignore (Lint.Interproc.findings g (Lint.Escape.compute g)))
      in
      let per_file_s = run_s -. phase2_s in
      let full_over_per_file =
        if per_file_s > 0. then run_s /. per_file_s else infinity
      in
      Printf.printf
        "whole run %.0f ms = phase 1 %.0f ms + phase 2 %.0f ms (%.2fx phase 1) \
         over %d files\n%!"
        (run_s *. 1e3) (per_file_s *. 1e3) (phase2_s *. 1e3) full_over_per_file
        r.Lint.Driver.files;
      assert (Lint.Callgraph.node_count r.Lint.Driver.graph > 0);
      Obs.Json.Obj
        [
          ("files", Obs.Json.Int r.Lint.Driver.files);
          ("graph_nodes", Obs.Json.Int (Lint.Callgraph.node_count r.Lint.Driver.graph));
          ("run_seconds", Obs.Json.Float run_s);
          ("per_file_seconds", Obs.Json.Float per_file_s);
          ("phase2_seconds", Obs.Json.Float phase2_s);
          ("full_over_per_file", Obs.Json.Float full_over_per_file);
        ]

let check_lint_time_gate lint_json =
  if not check_lint_time then true
  else
    let num k =
      match Obs.Json.member k lint_json with
      | Some (Obs.Json.Float f) -> f
      | Some (Obs.Json.Int i) -> float_of_int i
      | _ -> nan
    in
    let full = num "full_over_per_file" in
    if full <= 2. then begin
      Printf.printf "\nLint time check: OK (two-phase %.2fx its phase 1)\n%!" full;
      true
    end
    else begin
      Printf.printf
        "\nLint time check: FAILED\n  REGRESSION two-phase pipeline costs \
         %.2fx > 2x its phase 1\n%!"
        full;
      false
    end

(* Hard gate on the DES core: (a) the heap must hold a >= 4x (10k) and
   >= 6x (1M, the scale this core exists for) throughput lead over the
   boxed queue measured in this very run — ratios of two timings from
   the same process, so machine speed cancels out; and (b) the headline
   events/sec — heap at 1M and the large MapReduce — must stay within
   10% of the committed artifact.  (b) is a wall-clock rate, so unlike
   the allocation gate it assumes runners comparable to the one that
   produced the committed numbers; ISSUE 7 wants the headline gated
   hard, so it is. *)
let check_throughput fresh =
  match throughput_baseline with
  | None -> true
  | Some (path, committed) ->
      let failures = ref [] in
      let rec get json = function
        | [] -> Some json
        | k :: rest -> (
            match Obs.Json.member k json with
            | Some v -> get v rest
            | None -> None)
      in
      let num = function
        | Some (Obs.Json.Float f) -> Some f
        | Some (Obs.Json.Int i) -> Some (float_of_int i)
        | _ -> None
      in
      List.iter
        (fun (key, floor) ->
          match num (get fresh [ key ]) with
          | Some r when r >= floor -> ()
          | Some r ->
              failures :=
                Printf.sprintf "%s %.2fx < required %.0fx floor" key r floor
                :: !failures
          | None -> failures := Printf.sprintf "%s missing from fresh run" key :: !failures)
        [ ("heap_vs_queue_speedup_10k", 4.0); ("heap_vs_queue_speedup_1m", 6.0) ];
      List.iter
        (fun keys ->
          let name = String.concat "." keys in
          match (num (get fresh keys), num (get committed ("des_throughput" :: keys))) with
          | Some f, Some c ->
              if f < 0.9 *. c then
                failures :=
                  Printf.sprintf "%s: %.3e/s < 90%% of committed %.3e/s" name f c
                  :: !failures
          | _, None ->
              failures :=
                Printf.sprintf
                  "%s missing from %s — regenerate the committed artifact" name path
                :: !failures
          | None, _ -> failures := Printf.sprintf "%s missing from fresh run" name :: !failures)
        [ [ "heap_ops_per_sec_1m" ]; [ "mapreduce"; "events_per_sec" ] ];
      (match List.rev !failures with
      | [] ->
          Printf.printf "\nThroughput check against %s: OK\n%!" path;
          true
      | failures ->
          Printf.printf "\nThroughput check against %s: FAILED\n%!" path;
          List.iter (fun f -> Printf.printf "  REGRESSION %s\n%!" f) failures;
          false)

(* --- Allocation accounting --------------------------------------------- *)

(* One closure per tracked kernel.  Domain counts are pinned (never
   host-derived) and input sizes fixed, so the counters are comparable
   across machines — which is what lets CI hard-fail on regressions
   against the committed baseline.  [Gc.minor_words]/[major_words] count
   the submitting domain, so pool-worker noise is excluded. *)
let alloc_kernels () =
  let n_keys = 200_000 and p = 16 in
  let rng = Core.Rng.create ~seed:21 () in
  let keys = Array.init n_keys (fun _ -> Core.Rng.float rng) in
  let splitters =
    Core.Sample_sort.choose_splitters ~cmp:Float.compare
      (Core.Rng.create ~seed:22 ())
      keys ~p
      ~s:(Core.Sample_sort.default_oversampling ~n:n_keys)
  in
  let mat_rng = Core.Rng.create ~seed:23 () in
  let n_mat = 96 in
  let a = Core.Matrix.random mat_rng ~rows:n_mat ~cols:n_mat in
  let b = Core.Matrix.random mat_rng ~rows:n_mat ~cols:n_mat in
  let star = bench_platform 8 in
  let zones = Core.Zone.for_platform star ~n:n_mat in
  let n_vec = 256 in
  let va = Array.init n_vec (fun _ -> Core.Rng.float mat_rng) in
  let vb = Array.init n_vec (fun _ -> Core.Rng.float mat_rng) in
  let vzones = Core.Zone.for_platform star ~n:n_vec in
  [
    ( "scatter_partition_floats",
      fun () -> ignore (Core.Scatter.partition_floats keys ~splitters) );
    ( "scatter_partition_pool",
      fun () ->
        ignore
          (Core.Scatter.partition_floats_pool ~workers:2
             (Core.Pool.get_global ~at_least:2 ())
             keys ~splitters) );
    ( "multicore_sort",
      fun () -> ignore (Core.Multicore_sort.sort ~domains:2 (Core.Rng.create ~seed:24 ()) keys ~p) );
    ("psrs_sort", fun () -> ignore (Core.Psrs.sort keys ~p));
    ("histogram_splitters", fun () -> ignore (Core.Histogram_sort.splitters keys ~p));
    ("matmul_distributed", fun () -> ignore (Core.Matmul.distributed ~zones a b));
    ( "outer_product_distributed",
      fun () -> ignore (Core.Outer_product.distributed ~zones:vzones va vb) );
    ("parallel_matmul", fun () -> ignore (Core.Parallel_matmul.multiply ~domains:2 a b));
  ]

let report_allocations () =
  Experiments.Report.section "Allocation counters (Gc words per run)";
  let table =
    Numerics.Ascii_table.create ~headers:[ "kernel"; "minor words"; "major words" ]
  in
  Numerics.Ascii_table.set_align table [ Numerics.Ascii_table.Left; Right; Right ];
  let measured =
    List.map
      (fun (name, f) ->
        (* Untimed warm-up so one-time costs (pool spawn, lazy globals)
           are not charged to the kernel. *)
        f ();
        Gc.full_major ();
        let minor0 = Gc.minor_words () in
        let major0 = (Gc.quick_stat ()).Gc.major_words in
        f ();
        let minor = Gc.minor_words () -. minor0 in
        let major = (Gc.quick_stat ()).Gc.major_words -. major0 in
        Numerics.Ascii_table.add_row table
          [ name; Printf.sprintf "%.0f" minor; Printf.sprintf "%.0f" major ];
        (name, minor, major))
      (alloc_kernels ())
  in
  Numerics.Ascii_table.print table;
  let json =
    Obs.Json.Obj
      (List.map
         (fun (name, minor, major) ->
           ( name,
             Obs.Json.Obj
               [ ("minor_words", Obs.Json.Float minor); ("major_words", Obs.Json.Float major) ]
           ))
         measured)
  in
  (measured, json)

(* Kernels whose flat-buffer overhauls are locked in: their baseline
   lines carry a `ratchet` marker, and the gate holds them to the
   baseline itself (no 10% headroom) so the order-of-magnitude win
   cannot silently erode. *)
let ratcheted_kernels = [ "psrs_sort"; "histogram_splitters"; "multicore_sort" ]

(* Baseline file: one `name minor_words major_words [ratchet]` line per
   kernel. *)
let write_alloc_baseline path measured =
  let oc = open_out path in
  output_string oc "# Allocation baseline: kernel minor_words major_words [ratchet]\n";
  output_string oc "# Regenerate with: dune exec bench/main.exe -- --quick --write-alloc-baseline <path>\n";
  output_string oc
    "# `ratchet` pins the kernel to the baseline (no growth tolerance); see DESIGN.md s12.\n";
  List.iter
    (fun (name, minor, major) ->
      let flag = if List.mem name ratcheted_kernels then " ratchet" else "" in
      Printf.fprintf oc "%s %.0f %.0f%s\n" name minor major flag)
    measured;
  close_out oc;
  Printf.printf "Wrote allocation baseline to %s\n%!" path

let read_alloc_baseline path =
  let ic = open_in path in
  let entries = ref [] in
  (try
     while true do
       let line = String.trim (input_line ic) in
       if line <> "" && line.[0] <> '#' then
         match String.split_on_char ' ' line with
         | [ name; minor; major ] ->
             entries := (name, float_of_string minor, float_of_string major, false) :: !entries
         | [ name; minor; major; "ratchet" ] ->
             entries := (name, float_of_string minor, float_of_string major, true) :: !entries
         | _ -> failwith (Printf.sprintf "malformed baseline line: %S" line)
     done
   with End_of_file -> ());
  close_in ic;
  List.rev !entries

(* Hard gate: fail on >10% allocation growth (plus a small absolute
   slack so tiny counters don't flap).  Ratcheted kernels get no
   headroom — any growth past a rounding-level slack fails, and a run
   that comes in far below the baseline prints a reminder to tighten
   it.  Timing is advisory only — shared runners and single-CPU hosts
   make ns/run too noisy to gate on. *)
let check_alloc_baseline path measured =
  let failures = ref [] in
  List.iter
    (fun (name, base_minor, base_major, ratchet) ->
      match List.find_opt (fun (n, _, _) -> n = name) measured with
      | None -> failures := Printf.sprintf "%s: kernel missing from bench run" name :: !failures
      | Some (_, minor, major) ->
          let tolerance = if ratchet then 1.0 else 1.10 in
          let slack = if ratchet then 512. else 4096. in
          let label = if ratchet then "ratcheted baseline" else "baseline" in
          let headroom = if ratchet then "+0%" else "+10%" in
          let over v base = v > (base *. tolerance) +. slack in
          if over minor base_minor then
            failures :=
              Printf.sprintf "%s: minor words %.0f > %.0f (%s %.0f %s)" name minor
                ((base_minor *. tolerance) +. slack)
                label base_minor headroom
              :: !failures;
          if over major base_major then
            failures :=
              Printf.sprintf "%s: major words %.0f > %.0f (%s %.0f %s)" name major
                ((base_major *. tolerance) +. slack)
                label base_major headroom
              :: !failures;
          if ratchet && minor < 0.5 *. base_minor then
            Printf.printf
              "  NOTE %s: minor words %.0f are far below the ratcheted baseline %.0f — \
               regenerate the baseline to lock in the win\n%!"
              name minor base_minor)
    (read_alloc_baseline path);
  match List.rev !failures with
  | [] ->
      Printf.printf "\nAllocation check against %s: OK\n%!" path;
      true
  | failures ->
      Printf.printf "\nAllocation check against %s: FAILED\n%!" path;
      List.iter (fun f -> Printf.printf "  REGRESSION %s\n%!" f) failures;
      false

let run_micro_benchmarks () =
  Experiments.Report.section "Bechamel micro-benchmarks";
  let tests =
    [
      test_event_queue;
      test_event_heap;
      test_peri_sum;
      test_peri_max;
      test_demand_driven;
      test_commhom_search;
      test_nonlinear_solver;
      test_sample_sort;
      test_histogram_sort;
      test_psrs;
      test_distributed_matmul;
      test_strassen;
      test_cannon;
      test_lu;
      test_cholesky;
      test_karatsuba;
      test_mapreduce;
    ]
  in
  let grouped = Test.make_grouped ~name:"nldl" tests in
  let quota = if quick then Time.second 0.2 else Time.second 0.5 in
  let cfg = Benchmark.cfg ~limit:2000 ~quota ~kde:None () in
  let raw = Benchmark.all cfg Instance.[ monotonic_clock ] grouped in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let table = Numerics.Ascii_table.create ~headers:[ "kernel"; "time/run"; "r^2" ] in
  Numerics.Ascii_table.set_align table [ Numerics.Ascii_table.Left; Right; Right ];
  let rows = Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) results [] in
  let rows = List.sort (fun (a, _) (b, _) -> String.compare a b) rows in
  List.iter
    (fun (name, ols) ->
      let estimate =
        match Analyze.OLS.estimates ols with
        | Some (e :: _) -> e
        | Some [] | None -> Float.nan
      in
      let human =
        if estimate > 1e9 then Printf.sprintf "%.3f s" (estimate /. 1e9)
        else if estimate > 1e6 then Printf.sprintf "%.3f ms" (estimate /. 1e6)
        else if estimate > 1e3 then Printf.sprintf "%.3f us" (estimate /. 1e3)
        else Printf.sprintf "%.1f ns" estimate
      in
      let r2 =
        match Analyze.OLS.r_square ols with
        | Some r -> Printf.sprintf "%.4f" r
        | None -> "-"
      in
      Numerics.Ascii_table.add_row table [ name; human; r2 ])
    rows;
  Numerics.Ascii_table.print table;
  List.filter_map
    (fun (name, ols) ->
      match Analyze.OLS.estimates ols with
      | Some (e :: _) -> Some (name, e)
      | Some [] | None -> None)
    rows

(* --- Part 2: paper reproduction ---------------------------------------- *)

let run_e1 () =
  let rows = Experiments.Nonlinear_exp.run () in
  Experiments.Nonlinear_exp.print rows

let run_e2 () =
  let sizes = if quick then [ 10_000; 100_000 ] else [ 10_000; 100_000; 1_000_000 ] in
  let rows = Experiments.Sorting_exp.run ~sizes () in
  Experiments.Sorting_exp.print rows;
  let hetero = Experiments.Sorting_exp.run_hetero ~trials:(if quick then 2 else 5) () in
  Experiments.Sorting_exp.print_hetero hetero

let run_e3 () =
  Experiments.Ratio_exp.print_bimodal (Experiments.Ratio_exp.run_bimodal ());
  Experiments.Ratio_exp.print_general
    (Experiments.Ratio_exp.run_general ~trials:(if quick then 5 else 20) ())

let run_fig4 () =
  let trials = if quick then 10 else 100 in
  let figure tag profile =
    let points = Experiments.Fig4.sweep ~trials profile in
    Experiments.Fig4.print
      ~title:
        (Printf.sprintf "Figure 4(%s): ratio to lower bound, %s speeds (%d trials/point)"
           tag (Core.Profiles.name profile) trials)
      points
  in
  figure "a" Core.Profiles.paper_homogeneous;
  figure "b" Core.Profiles.paper_uniform;
  figure "c" Core.Profiles.paper_lognormal

let run_e4 () =
  let trials = if quick then 3 else 10 in
  List.iter
    (fun profile ->
      Experiments.Time_exp.print
        ~profile:(Core.Profiles.name profile)
        (Experiments.Time_exp.run ~trials profile))
    [ Core.Profiles.paper_uniform; Core.Profiles.paper_lognormal ]

let run_ablation () =
  let rows =
    Experiments.Mapreduce_exp.run ~trials:(if quick then 1 else 3)
      ~n:(if quick then 256 else 512) ()
  in
  Experiments.Mapreduce_exp.print rows;
  if quick then begin
    Experiments.Ablations.print_partitioners
      (Experiments.Ablations.partitioners ~trials:5 ());
    Experiments.Ablations.print_summa (Experiments.Ablations.summa_panels ~n:32 ());
    Experiments.Ablations.print_c25d (Experiments.Ablations.c25d ());
    Experiments.Ablations.print_splitters
      (Experiments.Ablations.splitters ~n:20_000 ());
    Experiments.Ablations.print_speculation (Experiments.Ablations.speculation ~trials:5 ());
    Experiments.Ablations.print_ordering (Experiments.Ablations.ordering ())
  end
  else Experiments.Ablations.print_all ()

let () =
  Printf.printf "nldl bench harness (version %s)%s\n%!" Core.version
    (if quick then " [quick mode]" else "");
  if trace_path <> None then Obs.Trace.set_enabled true;
  if metrics_on then Obs.Metrics.set_enabled true;
  let kernels = run_micro_benchmarks () in
  let multicore = report_multicore () in
  let sort_throughput = report_sort_throughput () in
  let pool = report_pool_overhead () in
  let fig4_scaling = report_fig4_scaling () in
  (* obs_overhead first: it times the same big MapReduce under
     controlled flags, and its best pass feeds the des_throughput
     headline (see report_des_throughput). *)
  let obs_overhead, best_mr_seconds = report_obs_overhead () in
  let des_throughput = report_des_throughput ~best_mr_seconds () in
  let serve_throughput = report_serve_throughput () in
  let lint_time = report_lint_time () in
  let alloc_measured, allocations = report_allocations () in
  (match write_alloc_path with
  | Some path -> write_alloc_baseline path alloc_measured
  | None -> ());
  run_e1 ();
  run_e2 ();
  run_e3 ();
  run_fig4 ();
  run_e4 ();
  run_ablation ();
  let json =
    Obs.Json.Obj
      ([
         (* Envelope header shared with the Api.Response schema, so the
            artifact declares its own version like every other JSON
            surface. *)
         ("schema_version", Obs.Json.Int Api.Response.schema_version);
         ("provenance", Obs.Json.Obj [ ("solver", Obs.Json.String "nldl.bench") ]);
         ("version", Obs.Json.String Core.version);
         ("quick", Obs.Json.Bool quick);
         ( "kernels_ns_per_run",
           Obs.Json.Obj (List.map (fun (name, ns) -> (name, Obs.Json.Float ns)) kernels) );
         ("pool_overhead", pool);
         ("multicore_sort", multicore);
         ("sort_throughput", sort_throughput);
         ("fig4_scaling", fig4_scaling);
         ("des_throughput", des_throughput);
         ("serve_throughput", serve_throughput);
         ("lint_time", lint_time);
         ("obs_overhead", obs_overhead);
         ("allocations", allocations);
       ]
      @ if metrics_on then [ ("metrics", Obs.Export.metrics_json ()) ] else [])
  in
  Obs.Json.write_file "BENCH_results.json" json;
  Printf.printf "\nWrote BENCH_results.json\n%!";
  (match trace_path with
  | None -> ()
  | Some path ->
      Obs.Trace.set_enabled false;
      Obs.Export.write_trace path;
      let dropped = Obs.Trace.dropped () in
      if dropped > 0 then
        Printf.printf "Trace ring buffers dropped %d events (oldest overwritten)\n%!" dropped;
      Printf.printf "Wrote trace to %s\n%!" path);
  let alloc_ok =
    match check_alloc_path with
    | Some path -> check_alloc_baseline path alloc_measured
    | None -> true
  in
  let throughput_ok = check_throughput des_throughput in
  let serve_ok = check_serve_gate serve_throughput in
  let overhead_ok = check_overhead_gate obs_overhead in
  let lint_ok = check_lint_time_gate lint_time in
  Printf.printf "\nDone.\n%!";
  if not (alloc_ok && throughput_ok && serve_ok && overhead_ok && lint_ok) then
    exit 1
