(* Distributed outer product and matrix multiplication (paper §4.1-4.2):
   correctness of the computed results and exactness of the
   communication accounting. *)

module Matrix = Linalg.Matrix
module Zone = Linalg.Zone
module Outer_product = Linalg.Outer_product
module Matmul = Linalg.Matmul
module Star = Platform.Star
module Rng = Numerics.Rng

let checkb = Alcotest.(check bool)

let star = Star.of_speeds [ 1.; 2.; 3.; 6. ]

let vectors rng n =
  ( Array.init n (fun _ -> Rng.uniform rng (-1.) 1.),
    Array.init n (fun _ -> Rng.uniform rng (-1.) 1.) )

let test_outer_distributed_correct () =
  let rng = Rng.create ~seed:41 () in
  let a, b = vectors rng 48 in
  let zones = Zone.for_platform star ~n:48 in
  let stats = Outer_product.distributed ~zones a b in
  checkb "matches sequential" true
    (Matrix.approx_equal stats.Outer_product.result (Outer_product.sequential a b))

let test_outer_comm_is_half_perimeters () =
  let rng = Rng.create ~seed:42 () in
  let a, b = vectors rng 32 in
  let zones = Zone.for_platform star ~n:32 in
  let stats = Outer_product.distributed ~zones a b in
  Alcotest.(check int) "total = Σ half-perims" (Zone.half_perimeter_sum zones)
    stats.Outer_product.total;
  Array.iteri
    (fun i z ->
      Alcotest.(check int) "per worker" (Zone.half_perimeter z)
        stats.Outer_product.per_worker.(i))
    zones

let test_outer_rejects_bad_tiling () =
  let rng = Rng.create ~seed:43 () in
  let a, b = vectors rng 8 in
  let zones = [| { Zone.row0 = 0; rows = 4; col0 = 0; cols = 8 } |] in
  checkb "bad tiling rejected" true
    (try
       ignore (Outer_product.distributed ~zones a b);
       false
     with Invalid_argument _ -> true)

(* On 4 equal workers the paper's block side for an n-domain is n/2, so
   the hand-out with k = 1 covers exactly the 2x2 block grid the tests
   below execute. *)
let run_blocks ?dedup star ~n ~k a b =
  Outer_product.demand_driven_blocks ?dedup ~workers:(Star.size star)
    ~owners:(Partition.Block_hom.hand_out star ~n:(float_of_int n) ~k)
    ~n_side:16 a b

let test_blocks_execution_correct () =
  let rng = Rng.create ~seed:44 () in
  let n = 32 in
  let a, b = vectors rng n in
  let star4 = Star.of_speeds [ 1.; 1.; 1.; 1. ] in
  (* 4 equal workers: x1 = 1/4, 4 blocks, block side n/2 = 16. *)
  let stats = run_blocks star4 ~n ~k:1 a b in
  checkb "block execution matches sequential" true
    (Matrix.approx_equal stats.Outer_product.result (Outer_product.sequential a b))

let test_blocks_comm_accounting () =
  let n = 32 in
  let rng = Rng.create ~seed:45 () in
  let a, b = vectors rng n in
  let star4 = Star.of_speeds [ 1.; 1.; 1.; 1. ] in
  let stats = run_blocks star4 ~n ~k:1 a b in
  (* 4 blocks × 2×16 entries each. *)
  Alcotest.(check int) "redundant accounting" 128 stats.Outer_product.total;
  let dedup = run_blocks ~dedup:true star4 ~n ~k:1 a b in
  checkb "dedup never more" true (dedup.Outer_product.total <= stats.Outer_product.total)

let test_dedup_reuses_cache () =
  (* One worker owning every block needs each slice only once under
     dedup: exactly 2n words. *)
  let n = 32 in
  let rng = Rng.create ~seed:46 () in
  let a, b = vectors rng n in
  let star1 = Star.of_speeds [ 1. ] in
  (* k=2 on a 1-worker platform: 4 blocks of side 16, all owned by P0. *)
  let redundant = run_blocks star1 ~n ~k:2 a b in
  let dedup = run_blocks ~dedup:true star1 ~n ~k:2 a b in
  Alcotest.(check int) "redundant = 4·32" 128 redundant.Outer_product.total;
  Alcotest.(check int) "dedup = 2n" 64 dedup.Outer_product.total

let test_executed_comm_equals_counted () =
  (* The counting model (Block_hom.communication) and actual execution
     (demand_driven_blocks without dedup) must agree whenever the block
     grid divides the vectors. *)
  let n = 64 in
  let rng = Rng.create ~seed:46 () in
  let a, b = vectors rng n in
  let star = Star.of_speeds [ 1.; 1.; 1.; 1. ] in
  let schedule = Partition.Block_hom.demand_driven star ~n:(float_of_int n) ~k:2 in
  (* 16 blocks of side 16. *)
  let stats = run_blocks star ~n ~k:2 a b in
  Alcotest.(check (float 1e-9)) "executed = counted"
    schedule.Partition.Block_hom.communication
    (float_of_int stats.Outer_product.total)

let test_matmul_distributed_correct () =
  let rng = Rng.create ~seed:47 () in
  let n = 24 in
  let a = Matrix.random rng ~rows:n ~cols:n in
  let b = Matrix.random rng ~rows:n ~cols:n in
  let zones = Zone.for_platform star ~n in
  let stats = Matmul.distributed ~zones a b in
  checkb "matches Matrix.mul" true
    (Matrix.approx_equal stats.Matmul.result (Matrix.mul a b))

let test_matmul_comm_identity () =
  let rng = Rng.create ~seed:48 () in
  let n = 24 in
  let a = Matrix.random rng ~rows:n ~cols:n in
  let b = Matrix.random rng ~rows:n ~cols:n in
  let zones = Zone.for_platform star ~n in
  let stats = Matmul.distributed ~zones a b in
  Alcotest.(check int) "comm = n·Σ half-perims"
    (Matmul.predicted_communication ~zones ~n)
    stats.Matmul.total

let test_matmul_above_lower_bound () =
  let n = 24 in
  let zones = Zone.for_platform star ~n in
  checkb "predicted >= LB" true
    (float_of_int (Matmul.predicted_communication ~zones ~n)
    >= Matmul.lower_bound_communication star ~n -. 1e-6)

let test_matmul_uniform_grid () =
  let rng = Rng.create ~seed:49 () in
  let n = 24 in
  let a = Matrix.random rng ~rows:n ~cols:n in
  let b = Matrix.random rng ~rows:n ~cols:n in
  let zones = Zone.uniform_grid ~p:6 ~n in
  let stats = Matmul.distributed ~zones a b in
  checkb "uniform grid correct" true
    (Matrix.approx_equal stats.Matmul.result (Matrix.mul a b))

let qcheck_matmul_random_platforms =
  QCheck.Test.make ~name:"distributed matmul correct on random platforms" ~count:25
    QCheck.(pair (list_of_size Gen.(int_range 1 6) (float_range 0.5 8.)) (int_range 4 20))
    (fun (speeds, n) ->
      let star = Star.of_speeds speeds in
      let rng = Rng.create ~seed:n () in
      let a = Matrix.random rng ~rows:n ~cols:n in
      let b = Matrix.random rng ~rows:n ~cols:n in
      let zones = Zone.for_platform star ~n in
      let stats = Matmul.distributed ~zones a b in
      Matrix.approx_equal stats.Matmul.result (Matrix.mul a b)
      && stats.Matmul.total = Matmul.predicted_communication ~zones ~n)

let suites =
  [
    ( "distributed outer product",
      [
        Alcotest.test_case "correct" `Quick test_outer_distributed_correct;
        Alcotest.test_case "comm = half-perimeters" `Quick test_outer_comm_is_half_perimeters;
        Alcotest.test_case "bad tiling rejected" `Quick test_outer_rejects_bad_tiling;
        Alcotest.test_case "block execution correct" `Quick test_blocks_execution_correct;
        Alcotest.test_case "block comm accounting" `Quick test_blocks_comm_accounting;
        Alcotest.test_case "dedup reuses cache" `Quick test_dedup_reuses_cache;
        Alcotest.test_case "executed = counted" `Quick test_executed_comm_equals_counted;
      ] );
    ( "distributed matmul",
      [
        Alcotest.test_case "correct" `Quick test_matmul_distributed_correct;
        Alcotest.test_case "comm identity" `Quick test_matmul_comm_identity;
        Alcotest.test_case "above lower bound" `Quick test_matmul_above_lower_bound;
        Alcotest.test_case "uniform grid" `Quick test_matmul_uniform_grid;
        QCheck_alcotest.to_alcotest qcheck_matmul_random_platforms;
      ] );
  ]
