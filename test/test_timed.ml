(* Time-domain evaluation of the distribution strategies (E4). *)

module Timed = Partition.Timed
module Star = Platform.Star
module Profiles = Platform.Profiles
module Rng = Numerics.Rng

let checkb = Alcotest.(check bool)
let checkf msg ?(eps = 1e-9) expected actual =
  Alcotest.(check (float eps)) msg expected actual

let test_compute_bound () =
  let star = Star.of_speeds [ 1.; 3. ] in
  checkf "n²/Σs" 25. (Timed.compute_bound star ~n:10.)

let test_het_above_bound () =
  let rng = Rng.create ~seed:61 () in
  let star = Profiles.generate ~bandwidth:10. rng ~p:8 Profiles.paper_uniform in
  let timing = Timed.het star ~n:100. in
  checkb "makespan above compute bound" true
    (timing.Timed.makespan >= Timed.compute_bound star ~n:100. -. 1e-9)

let test_het_decomposition () =
  (* Single worker: makespan = fetch + compute, fetch = 2n/bw. *)
  let star = Star.of_speeds ~bandwidth:4. [ 2. ] in
  let timing = Timed.het star ~n:10. in
  checkf "fetch" 5. timing.Timed.comm_makespan;
  checkf "makespan" (5. +. 50.) timing.Timed.makespan

let test_hom_matches_het_when_homogeneous_and_fast () =
  (* Homogeneous platform, huge bandwidth: both strategies are
     compute-bound and equal the bound. *)
  let star = Star.of_speeds ~bandwidth:1e9 (List.init 16 (fun _ -> 1.)) in
  let bound = Timed.compute_bound star ~n:400. in
  let het = Timed.het star ~n:400. in
  let hom = Timed.hom star ~n:400. in
  checkf "het at bound" ~eps:1e-3 bound het.Timed.makespan;
  checkf "hom at bound" ~eps:1e-3 bound hom.Timed.makespan

let test_hom_suffers_on_slow_network () =
  let rng = Rng.create ~seed:62 () in
  let star = Profiles.generate ~bandwidth:1. rng ~p:16 Profiles.paper_uniform in
  let het = Timed.het star ~n:1000. in
  let hom = Timed.hom_balanced star ~n:1000. in
  checkb "het wins when links are slow" true
    (hom.Timed.makespan > 1.5 *. het.Timed.makespan)

let test_hom_k_increases_comm_time () =
  (* More subdivision = more redundant fetches = more comm time. *)
  let rng = Rng.create ~seed:63 () in
  let star = Profiles.generate ~bandwidth:1. rng ~p:8 Profiles.paper_uniform in
  let t1 = Timed.hom ~k:1 star ~n:500. in
  let t4 = Timed.hom ~k:4 star ~n:500. in
  checkb "comm grows with k" true
    (Array.fold_left ( +. ) 0. t4.Timed.per_worker
    >= Array.fold_left ( +. ) 0. t1.Timed.per_worker -. 1e-9)

let test_invalid_n () =
  let star = Star.of_speeds [ 1. ] in
  checkb "bad n rejected" true
    (try
       ignore (Timed.het star ~n:0.);
       false
     with Invalid_argument _ -> true)

let test_e4_shape () =
  let rows =
    Experiments.Time_exp.run ~p:16 ~trials:2 ~bandwidths:[ 1e4; 1. ]
      Profiles.paper_uniform
  in
  match rows with
  | [ fast; slow ] ->
      checkb "fast network: both near bound" true
        (fast.Experiments.Time_exp.het_ratio < 1.1
        && fast.Experiments.Time_exp.hom_ratio < 1.3);
      checkb "slow network: hom falls behind" true
        (slow.Experiments.Time_exp.hom_ratio
        > 1.5 *. slow.Experiments.Time_exp.het_ratio)
  | _ -> Alcotest.fail "expected two rows"

let test_hom_matches_heap_loop () =
  (* [Timed.hom] runs the per-worker kernel; the frozen per-block heap
     loop it replaced must give the same bits. *)
  let bits = Int64.bits_of_float in
  let rng = Rng.create ~seed:64 () in
  List.iter
    (fun (profile, bandwidth, latency) ->
      List.iter
        (fun p ->
          let star = Profiles.generate ~bandwidth ~latency rng ~p profile in
          for k = 1 to 6 do
            List.iter
              (fun n ->
                let t = Timed.hom ~k star ~n in
                let finish, comm = Block_hom_heap_oracle.timed_hom ~k star ~n in
                let label = Printf.sprintf "p=%d k=%d n=%g bw=%g" p k n bandwidth in
                checkb (label ^ ": finish times") true
                  (Array.for_all2 (fun a b -> bits a = bits b) finish t.Timed.per_worker);
                checkb (label ^ ": comm makespan") true
                  (bits (Array.fold_left Float.max 0. comm) = bits t.Timed.comm_makespan);
                checkb (label ^ ": makespan") true
                  (bits (Array.fold_left Float.max 0. finish) = bits t.Timed.makespan))
              [ 3.7; 1e3 ]
          done)
        [ 1; 7; 40 ])
    [
      (Profiles.paper_uniform, 1e4, 0.);
      (Profiles.paper_uniform, 1., 0.);
      (Profiles.paper_lognormal, 0.1, 0.);
      (Profiles.paper_lognormal, 10., 0.5);
      (Profiles.paper_homogeneous, 1., 0.);
    ]

let suites =
  [
    ( "timed strategies (E4)",
      [
        Alcotest.test_case "compute bound" `Quick test_compute_bound;
        Alcotest.test_case "het above bound" `Quick test_het_above_bound;
        Alcotest.test_case "het decomposition" `Quick test_het_decomposition;
        Alcotest.test_case "fast network parity" `Quick
          test_hom_matches_het_when_homogeneous_and_fast;
        Alcotest.test_case "slow network penalty" `Quick test_hom_suffers_on_slow_network;
        Alcotest.test_case "comm grows with k" `Quick test_hom_k_increases_comm_time;
        Alcotest.test_case "invalid n" `Quick test_invalid_n;
        Alcotest.test_case "E4 shape" `Quick test_e4_shape;
        Alcotest.test_case "hom matches the per-block heap" `Quick test_hom_matches_heap_loop;
      ] );
  ]
