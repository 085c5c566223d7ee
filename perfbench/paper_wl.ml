(* Workload [paper_sweep]: the paper's own evaluation.  First the
   Figure 4 sweep ([Experiments.Fig4.sweep]) for the homogeneous,
   uniform and log-normal profiles at p in {10, 20, 40, 60, 80, 100} on
   the shared [Exec.Pool]; then the E2 sorts, N in {10^4, 10^5, 10^6}
   and p in {4, 16, 64}, through the whole-sort entry points
   [Sortlib.Multicore.sort] and [Sortlib.Psrs.sort].  [Partition] and the
   pool carry the sweep; the sort library and its kernels carry the
   sorts.  No serve or DES code runs.

   The seed picks the sweep's platform draws and the sort keys. *)

open Common
module Stats = Numerics.Stats
module Rng = Numerics.Rng

let profiles =
  [ Platform.Profiles.paper_homogeneous; Platform.Profiles.paper_uniform; Platform.Profiles.paper_lognormal ]

let processor_counts = Experiments.Fig4.default_processor_counts

(* Trials per Figure 4 point: the paper uses 100.  16 averages the
   sweep's cost over 288 platforms per profile set, so it depends little
   on the seed, and keeps one sweep near a second on 2 cores. *)
let trials = 16
let sort_sizes = [ 10_000; 100_000; 1_000_000 ]
let sort_ps = [ 4; 16; 64 ]
let n_matrix = 1e6

(* Every Commhet/LB ratio lies in [1, 1 + 5/4] (paper Section 4.3). *)
let het_in_bounds (pt : Experiments.Fig4.point) =
  let eps = 1e-9 in
  pt.het.Stats.min >= 1. -. eps && pt.het.Stats.max <= 2.25 +. eps

let sweep ?domains seed =
  List.map (fun prof -> Experiments.Fig4.sweep ~processor_counts ~trials ~seed ?domains prof) profiles

(* The platforms [Fig4.sweep] draws, in its order: one generator per
   profile, split sequentially per trial within each point. *)
let draws seed =
  List.map
    (fun prof ->
      let rng = Rng.create ~seed () in
      List.map
        (fun p ->
          let rngs = Array.init trials (fun _ -> Rng.split rng) in
          Array.map (fun r -> Platform.Profiles.generate r ~p prof) rngs)
        processor_counts)
    profiles

let sort_inputs seed =
  let rng = Rng.create ~seed:(seed + 1) () in
  List.map (fun n -> Array.init n (fun _ -> Rng.float rng)) sort_sizes

(* Set-up: start a pool of the run's domain count and draw the inputs. *)
let setup_once seed =
  let d = Exec.Pool.default_domains () in
  let t0 = now_ns () in
  let pool = Exec.Pool.create ~domains:d () in
  Exec.Pool.parallel_for pool d ignore;
  let plats, draw_ns = timed (fun () -> draws seed) in
  let keys = sort_inputs seed in
  let ns = now_ns () - t0 in
  Exec.Pool.teardown pool;
  (ns_to_s ns, draw_ns, plats, keys)

(* One pass over the E2 grid through both entry points; returns the
   outputs with their inputs for the oracle, and the keys sorted. *)
let sort_pass seed keys =
  let rng = Rng.create ~seed:(seed + 2) () in
  let outs = ref [] and n_keys = ref 0 and ns = ref 0 in
  List.iter
    (fun k ->
      List.iter
        (fun p ->
          let run name f =
            let out, t = timed (fun () -> Span.time name f) in
            ns := !ns + t;
            n_keys := !n_keys + Array.length k;
            outs := (k, out) :: !outs
          in
          run "sortlib.multicore.sort" (fun () -> Sortlib.Multicore.sort rng k ~p);
          run "sortlib.psrs.sort" (fun () -> (Sortlib.Psrs.sort k ~p).Sortlib.Psrs.sorted))
        sort_ps)
    keys;
  (!outs, !n_keys, !ns)

(* Figure 4, layer by layer: [Strategies.evaluate]'s steps on each drawn
   platform, sequentially.  Returns Commhet/LB per profile and point,
   which must equal the sweep's, and the Commhom/k subdivisions. *)
let replay_fig4 plats =
  let ks = ref [] in
  let hets =
    List.map
      (List.map (fun stars ->
           Array.map
             (fun star ->
               Span.time "fig4.trial" (fun () ->
                   let lb = Span.time "partition.lower_bound" (fun () -> Partition.Lower_bound.communication star ~n:n_matrix) in
                   let areas = Platform.Star.relative_speeds star in
                   let assignment =
                     Span.time "partition.column_partition.peri_sum" (fun () ->
                         Partition.Column_partition.peri_sum ~areas)
                   in
                   let vol =
                     Span.time "partition.layout" (fun () ->
                         Partition.Layout.communication_volume
                           (Partition.Column_partition.to_layout ~areas assignment)
                           ~n:n_matrix)
                   in
                   ignore (Span.time "partition.block_hom.commhom" (fun () -> Partition.Block_hom.commhom star ~n:n_matrix));
                   let hk =
                     Span.time "partition.block_hom.commhom_over_k" (fun () ->
                         Partition.Block_hom.commhom_over_k ~target_imbalance:0.01 star ~n:n_matrix)
                   in
                   ks := float_of_int hk.Partition.Block_hom.k :: !ks;
                   vol /. lb))
             stars))
      plats
  in
  (hets, Array.of_list !ks)

(* The sample-sort phases on one input, sequentially: splitters,
   scatter, per-bucket local sort, then a k-way merge of the buckets. *)
let replay_sort_phases seed keys =
  let rng = Rng.create ~seed:(seed + 3) () in
  List.concat_map
    (fun k ->
      List.map
        (fun p ->
          Span.time "sortlib.pipeline" (fun () ->
              let n = Array.length k in
              let s = Sortlib.Sample_sort.default_oversampling ~n in
              let splitters =
                Span.time "sortlib.sample_sort.sampling" (fun () ->
                    Sortlib.Sample_sort.choose_splitters_floats rng k ~p ~s)
              in
              let sc =
                Span.time "kernels.scatter.partition" (fun () ->
                    Kernels.Scatter.partition_floats k ~splitters)
              in
              Span.time "kernels.seg_sort.local_sort" (fun () ->
                  for b = 0 to Kernels.Scatter.num_buckets sc - 1 do
                    Kernels.Seg_sort.sort_floats sc.Kernels.Scatter.data
                      ~lo:(Kernels.Scatter.bucket_lo sc b) ~len:(Kernels.Scatter.bucket_len sc b)
                  done);
              let runs = List.init (Kernels.Scatter.num_buckets sc) (Kernels.Scatter.bucket sc) in
              (k, Span.time "sortlib.merge.merge" (fun () -> Sortlib.Merge.k_way runs))))
        sort_ps)
    keys

(* Sorted and a permutation of the input: equal, key for key, to a
   reference sort of the input. *)
let sort_ok refs (input, out) =
  Sortlib.Merge.is_sorted out
  && Array.length out = Array.length input
  &&
  let r = List.assq input refs in
  let same = ref true in
  Array.iteri (fun i x -> if Float.compare x r.(i) <> 0 then same := false) out;
  !same

let run ~seed ~seconds ~trace ~corrupt =
  (* The calibration kernel runs before any pool domain is started, so
     only at the start of the run, and on one domain while both phases
     run on all of them.  It is context only here: over ten runs,
     scaling to it widened the spread of the sweep time from 0.12 to
     0.19 and of the sort rate from 0.13 to 0.16. *)
  calibrate ~times:6 ();
  (* Set-up [setup_reps] times before the timed phases, keeping the last
     inputs, and as many times after them. *)
  let last = ref None in
  let setups () =
    Array.init setup_reps (fun _ ->
        last := None;
        Gc.full_major ();
        let s, d, plats, keys = setup_once seed in
        last := Some (plats, keys);
        (s, float_of_int d))
  in
  let before = setups () in
  let plats, keys = Option.get !last in
  Numerics.Parallel.warm_up ();
  (* Warm-up: one sweep and one sort pass, untimed and unchecked. *)
  Gc.full_major ();
  ignore (sweep seed);
  Gc.full_major ();
  ignore (sort_pass seed keys);
  (* Oracle references, before the timed phases. *)
  let refs =
    List.map
      (fun k ->
        let r = Array.copy k in
        Array.sort Float.compare r;
        (k, r))
      keys
  in
  let gc_add (g : gc_delta) (h : gc_delta) =
    { minor_words = g.minor_words +. h.minor_words; major_collections = g.major_collections + h.major_collections }
  in
  let gc0 = { minor_words = 0.; major_collections = 0 } in
  let fig4_end = now_ns () + int_of_float (0.5 *. seconds *. 1e9) in
  let sweeps = ref [] and gc_fig4 = ref gc0 in
  while List.length !sweeps < 3 || now_ns () < fig4_end do
    Gc.full_major ();
    let r, g = with_gc (fun () -> timed (fun () -> sweep seed)) in
    gc_fig4 := gc_add !gc_fig4 g;
    sweeps := r :: !sweeps
  done;
  (* Each pass's outputs are checked, outside its timing, and dropped. *)
  let sort_end = now_ns () + int_of_float (0.5 *. seconds *. 1e9) in
  let passes = ref 0 and sorted_keys = ref 0 and sort_ns = ref 0 and gc_sort = ref gc0 in
  let n_outputs = ref 0 and sort_failed = ref 0 in
  while !passes < 2 || now_ns () < sort_end do
    Gc.full_major ();
    let (outs, k, ns), g = with_gc (fun () -> sort_pass seed keys) in
    incr passes;
    sorted_keys := !sorted_keys + k;
    sort_ns := !sort_ns + ns;
    gc_sort := gc_add !gc_sort g;
    List.iter
      (fun (input, out) ->
        let out =
          if corrupt && !n_outputs = 0 then begin
            let c = Array.copy out in
            c.(Array.length c / 2) <- Float.succ c.(Array.length c / 2);
            c
          end
          else out
        in
        incr n_outputs;
        if not (sort_ok refs (input, out)) then incr sort_failed)
      outs
  done;
  let times = Array.append before (setups ()) in
  let setup_s = Stats.median (Array.map fst times) in
  let draw_ns = Stats.median (Array.map snd times) in
  let gc_fig4 = !gc_fig4 and gc_sort = !gc_sort in
  let sorted_keys = !sorted_keys and sort_ns = !sort_ns in
  let sweep_results = List.map fst !sweeps in
  let first = List.hd sweep_results in
  let sweep_failed =
    List.fold_left
      (fun n res ->
        n
        + List.fold_left
            (fun m pts -> m + List.length (List.filter (fun pt -> not (het_in_bounds pt)) pts))
            0 res
        + if res = first then 0 else 1)
      0 sweep_results
  in
  let n_points = List.length profiles * List.length processor_counts in
  let attempted = (n_points * List.length sweep_results) + !n_outputs in
  let walls = Array.of_list (List.map (fun (_, ns) -> ns_to_us ns) !sweeps) in
  let keys_per_s = float_of_int sorted_keys /. ns_to_s sort_ns in
  let e2e =
    [
      metric "setup_s" "s" setup_s;
      metric "latency_p50_us" "us" (Stats.median walls);
      metric "throughput_per_s" "1/s" keys_per_s;
      metric "peak_rss_mb" "MiB" (peak_rss_mb 0);
    ]
  in
  let report =
    [
      Printf.sprintf "paper_sweep: %d Figure 4 sweeps (3 profiles x %d points x %d trials, %d domains): median %.3f s, slowest %.3f s"
        (Array.length walls) (List.length processor_counts) trials (Exec.Pool.default_domains ())
        (Stats.median walls /. 1e6) (max_of walls /. 1e6);
      Printf.sprintf "paper_sweep: %d sort passes, %d keys in %.3f s = %.3e keys/s"
        !passes sorted_keys (ns_to_s sort_ns) keys_per_s;
    ]
  in
  let layers, shares, trace_failed =
    if not trace then ([], [], 0)
    else begin
      let t1 = snd (timed (fun () -> sweep ~domains:1 seed)) in
      let tp = snd (timed (fun () -> sweep seed)) in
      Span.on := true;
      let traced_sweep = snd (timed (fun () -> Span.time "fig4.sweep" (fun () -> sweep seed))) in
      let hets, ks = replay_fig4 plats in
      let phase_outs = replay_sort_phases seed keys in
      let traced_sorts, _, traced_sort_ns = sort_pass seed keys in
      Span.on := false;
      (* The replay must reproduce the sweep's own Commhet/LB means. *)
      let replay_mismatch =
        List.fold_left2
          (fun n per_profile pts ->
            List.fold_left2
              (fun m het (pt : Experiments.Fig4.point) ->
                if (Stats.summarize het).Stats.mean = pt.het.Stats.mean then m
                else m + 1)
              n per_profile pts)
          0 hets first
      in
      let bad_phase = List.length (List.filter (fun o -> not (sort_ok refs o)) (phase_outs @ traced_sorts)) in
      let dispatch = pool_dispatch_us () in
      let agg = Span.aggregate () in
      let per name = Span.self_per_call agg name in
      let self name = float_of_int (Span.find agg name).Span.self_ns in
      let fig4_layers =
        [ "partition.lower_bound"; "partition.column_partition.peri_sum";
          "partition.layout"; "partition.block_hom.commhom"; "partition.block_hom.commhom_over_k" ]
      in
      let sort_layers =
        [ "sortlib.sample_sort.sampling"; "kernels.scatter.partition"; "kernels.seg_sort.local_sort";
          "sortlib.merge.merge" ]
      in
      let total l = List.fold_left (fun acc n -> acc +. self n) 0. l in
      let pipeline = float_of_int (Span.find agg "sortlib.pipeline").Span.total_ns in
      let coverage = (draw_ns +. total fig4_layers +. total sort_layers) /. (float_of_int t1 +. pipeline) in
      let n_draws = float_of_int (List.length profiles * List.length processor_counts * trials) in
      let n_sorted = float_of_int (List.length sort_sizes * List.length sort_ps) in
      ( [
          metric "exec.pool.dispatch_us" "us" dispatch;
          metric "exec.pool.fig4_speedup" "ratio" (float_of_int t1 /. float_of_int tp);
          metric "partition.column_partition.peri_sum_us" "us" (per "partition.column_partition.peri_sum" /. 1e3);
          metric "partition.block_hom.commhom_us" "us" (per "partition.block_hom.commhom" /. 1e3);
          metric "partition.block_hom.commhom_over_k_us" "us" (per "partition.block_hom.commhom_over_k" /. 1e3);
          metric "partition.block_hom.k_mean" "count" (Stats.mean ks);
          metric "platform.profiles.generate_us" "us" (draw_ns /. n_draws /. 1e3);
          metric "sortlib.sample_sort.sampling_us" "us" (self "sortlib.sample_sort.sampling" /. n_sorted /. 1e3);
          metric "kernels.scatter.partition_us" "us" (self "kernels.scatter.partition" /. n_sorted /. 1e3);
          metric "kernels.seg_sort.local_sort_us" "us" (self "kernels.seg_sort.local_sort" /. n_sorted /. 1e3);
          metric "sortlib.merge.merge_us" "us" (self "sortlib.merge.merge" /. n_sorted /. 1e3);
          metric "sortlib.psrs.sort_us" "us" (per "sortlib.psrs.sort" /. 1e3);
          metric "sortlib.multicore.sort_us" "us" (per "sortlib.multicore.sort" /. 1e3);
          metric "gc.minor_words_per_op" "words" (gc_sort.minor_words /. float_of_int sorted_keys);
          metric "gc.major_collections" "count"
            (float_of_int (gc_fig4.major_collections + gc_sort.major_collections));
          metric "trace.overhead_frac" "ratio"
            (((float_of_int traced_sweep +. float_of_int traced_sort_ns) /. (Stats.median walls *. 1e3 +. (float_of_int sort_ns /. float_of_int !passes))) -. 1.);
          metric "trace.coverage_frac" "ratio" coverage;
        ],
        (("platform.profiles.generate", draw_ns /. float_of_int t1)
         :: List.map (fun n -> (n, self n /. float_of_int t1)) fig4_layers)
        @ List.map (fun n -> (n, self n /. pipeline)) sort_layers,
        replay_mismatch + bad_phase )
    end
  in
  { attempted; failed = sweep_failed + !sort_failed + trace_failed; checks_ok = true; scaled = []; e2e; layers; shares; report }
