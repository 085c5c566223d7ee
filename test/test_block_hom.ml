(* Homogeneous Blocks (Commhom / Commhom-over-k) and its demand-driven
   scheduler. *)

module Star = Platform.Star
module Block_hom = Partition.Block_hom
module Lower_bound = Partition.Lower_bound

let checkb = Alcotest.(check bool)
let checkf msg ?(eps = 1e-9) expected actual =
  Alcotest.(check (float eps)) msg expected actual

let hom16 = Star.of_speeds (List.init 16 (fun _ -> 1.))
let het = Star.of_speeds [ 1.; 1.; 2.; 4. ]

let test_block_count_homogeneous () =
  (* x1 = 1/p, so the paper's block count is p·k². *)
  Alcotest.(check int) "k=1" 16 (Block_hom.block_count hom16 ~k:1);
  Alcotest.(check int) "k=3" 144 (Block_hom.block_count hom16 ~k:3)

let test_homogeneous_perfect_balance () =
  let r = Block_hom.commhom hom16 ~n:1e4 in
  checkf "no imbalance" 0. r.Block_hom.imbalance;
  Array.iter (fun b -> Alcotest.(check int) "one block each" 1 b) r.Block_hom.per_worker

let test_homogeneous_matches_lower_bound () =
  let r = Block_hom.commhom hom16 ~n:1e4 in
  checkf "ratio exactly 1" ~eps:1e-9 1.
    (r.Block_hom.communication /. Lower_bound.communication hom16 ~n:1e4)

let test_communication_formula () =
  let r = Block_hom.demand_driven het ~n:1000. ~k:2 in
  checkf "blocks·2·side" ~eps:1e-9
    (float_of_int r.Block_hom.blocks *. 2. *. r.Block_hom.block_side)
    r.Block_hom.communication

let test_all_blocks_assigned () =
  let r = Block_hom.demand_driven het ~n:1000. ~k:3 in
  Alcotest.(check int) "per_worker sums to blocks" r.Block_hom.blocks
    (Array.fold_left ( + ) 0 r.Block_hom.per_worker);
  Alcotest.(check int) "owners length" r.Block_hom.blocks
    (Array.length (Block_hom.hand_out het ~n:1000. ~k:3))

let test_demand_driven_favors_fast () =
  let r = Block_hom.demand_driven het ~n:1000. ~k:4 in
  let per = r.Block_hom.per_worker in
  checkb "fastest gets most blocks" true (per.(3) >= per.(0));
  (* Speed 4 worker should get roughly 4x the blocks of a speed 1 one. *)
  checkb "roughly proportional" true
    (float_of_int per.(3) /. float_of_int (max 1 per.(0)) > 2.)

let test_imbalance_decreases_with_k () =
  let e k = (Block_hom.demand_driven het ~n:1000. ~k).Block_hom.imbalance in
  checkb "k=8 better balanced than k=1" true (e 8 < e 1 || e 1 = 0.)

let test_commhom_over_k_meets_target () =
  let r = Block_hom.commhom_over_k ~target_imbalance:0.05 het ~n:1000. in
  checkb "imbalance under target" true (r.Block_hom.imbalance <= 0.05);
  checkb "k at least 1" true (r.Block_hom.k >= 1)

let test_commhom_over_k_max_cap () =
  let r = Block_hom.commhom_over_k ~target_imbalance:0. ~max_k:3 het ~n:1000. in
  checkb "stops at max_k" true (r.Block_hom.k <= 3)

let test_makespan_consistent () =
  let r = Block_hom.demand_driven het ~n:1000. ~k:2 in
  let tmax = Array.fold_left Float.max 0. r.Block_hom.finish_times in
  checkf "makespan is max finish" tmax r.Block_hom.makespan

let test_invalid_inputs () =
  Alcotest.check_raises "n must be positive"
    (Invalid_argument "Block_hom.demand_driven: n must be > 0") (fun () ->
      ignore (Block_hom.demand_driven het ~n:0. ~k:1));
  Alcotest.check_raises "k must be positive"
    (Invalid_argument "Block_hom.demand_driven: k must be > 0") (fun () ->
      ignore (Block_hom.demand_driven het ~n:10. ~k:0))

let test_ideal_ratio_closed_form () =
  (* Homogeneous: 1/(√(1/p)·p·√(1/p)) = 1. *)
  checkf "homogeneous ideal ratio" ~eps:1e-12 1. (Block_hom.ideal_ratio hom16)

let qcheck_comm_grows_with_k =
  QCheck.Test.make ~name:"communication tracks the closed form 2nk/sqrt(x1)" ~count:100
    QCheck.(pair (list_of_size Gen.(int_range 1 8) (float_range 0.5 8.)) (int_range 1 6))
    (fun (speeds, k) ->
      QCheck.assume (speeds <> [] && k >= 1);
      let star = Star.of_speeds speeds in
      let n = 100. in
      let x1 = (Star.relative_speeds star).(0) in
      let comm = (Block_hom.demand_driven star ~n ~k).Block_hom.communication in
      let ideal = 2. *. n *. float_of_int k /. sqrt x1 in
      (* Block-count rounding moves the volume by at most one block's
         worth of data, 2·√x1·n/k. *)
      Float.abs (comm -. ideal) <= (2. *. sqrt x1 *. n /. float_of_int k) +. 1e-6)

let qcheck_work_conserved =
  QCheck.Test.make ~name:"demand-driven executes all the area" ~count:100
    QCheck.(pair (list_of_size Gen.(int_range 1 10) (float_range 0.2 10.)) (int_range 1 5))
    (fun (speeds, k) ->
      QCheck.assume (speeds <> [] && k >= 1);
      let star = Star.of_speeds speeds in
      let r = Block_hom.demand_driven star ~n:50. ~k in
      let executed =
        float_of_int r.Block_hom.blocks *. r.Block_hom.block_side *. r.Block_hom.block_side
      in
      (* Block-count rounding keeps the executed area within one block
         of n². *)
      Float.abs (executed -. 2500.) <= (r.Block_hom.block_side ** 2.) +. 1e-6)

(* --- the per-worker kernel against the frozen per-block heap --------- *)

module Oracle = Block_hom_heap_oracle
module Profiles = Platform.Profiles

let bits = Int64.bits_of_float
let same_bits a b = Array.length a = Array.length b && Array.for_all2 (fun x y -> bits x = bits y) a b

(* The kernel's result and hand-out order against the heap's, bit for
   bit. *)
let matches_oracle star ~n ~k =
  let o = Oracle.demand_driven star ~n ~k in
  let r = Block_hom.demand_driven star ~n ~k in
  r.Block_hom.blocks = o.Oracle.blocks
  && r.Block_hom.per_worker = o.Oracle.per_worker
  && same_bits r.Block_hom.finish_times o.Oracle.finish_times
  && bits r.Block_hom.imbalance = bits o.Oracle.imbalance
  && bits r.Block_hom.makespan = bits o.Oracle.makespan
  && bits r.Block_hom.communication = bits o.Oracle.communication
  && Block_hom.hand_out star ~n ~k = o.Oracle.owners

(* What [demand_driven] hands the kernel, rebuilt here so a test can read
   the kernel's tie-walk count. *)
let kernel_tally star ~n ~k =
  let r = Block_hom.demand_driven star ~n ~k in
  let work = r.Block_hom.block_side *. r.Block_hom.block_side in
  let compute =
    Array.map (fun w -> Platform.Processor.compute_time w ~work) (Star.workers star)
  in
  Block_hom.tally ~fetch:(Array.make (Star.size star) 0.) ~compute ~blocks:r.Block_hom.blocks

let gen_speeds =
  let open QCheck.Gen in
  let profile prof =
    map2
      (fun p seed ->
        Array.to_list
          (Star.speeds (Profiles.generate (Numerics.Rng.create ~seed ()) ~p prof)))
      (int_range 1 24) (int_range 0 1_000_000)
  in
  oneof
    [
      (* all equal: every head ties, decided by worker index *)
      (let* p = int_range 1 24 in
       let* v = oneofl [ 1.; 0.3; 7. ] in
       return (List.init p (fun _ -> v)));
      (* small integers *)
      (let* p = int_range 1 24 in
       list_repeat p (oneofl [ 1.; 2.; 3. ]));
      (* power-of-two ratios: exact multiples, so heads tie across workers *)
      (let* p = int_range 1 24 in
       list_repeat p (map (fun e -> Float.ldexp 1. e) (int_range (-3) 3)));
      (* one dominant worker *)
      (let* p = int_range 2 24 in
       let* d = float_range 10. 200. in
       return (d :: List.init (p - 1) (fun _ -> 1.)));
      (* one worker *)
      map (fun v -> [ v ]) (float_range 0.1 10.);
      (* ulp neighbours (plus one other speed, so that a tie can fall on
         the last block): ties on both the head and the previous start *)
      (let* p = int_range 2 12 in
       let* base = oneofl [ 1.; 2.; 3.; 0.75 ] in
       list_repeat p (oneofl [ base; Float.succ base; Float.pred base; 2. ]));
      profile Profiles.paper_uniform;
      profile Profiles.paper_lognormal;
    ]

let print_case (speeds, k, n) =
  Printf.sprintf "speeds=[%s] k=%d n=%g"
    (String.concat "; " (List.map (Printf.sprintf "%h") speeds))
    k n

let gen_case =
  QCheck.Gen.(triple gen_speeds (int_range 1 12) (oneofl [ 1.; 3.7; 1e3; 1e6 ]))

let qcheck_kernel_matches_heap =
  QCheck.Test.make ~name:"kernel bit-identical to the per-block heap" ~count:400
    (QCheck.make ~print:print_case gen_case)
    (fun (speeds, k, n) -> matches_oracle (Star.of_speeds speeds) ~n ~k)

(* k = 1 on near-equal speeds: fewer than 2p blocks, so the threshold is
   not positive and the heap hands out every block. *)
let qcheck_few_blocks =
  QCheck.Test.make ~name:"fewer blocks than 2p: all through the heap" ~count:200
    (QCheck.make ~print:print_case
       QCheck.Gen.(
         triple
           (list_size (int_range 1 24) (float_range 1. 1.5))
           (return 1)
           (oneofl [ 1.; 3.7; 1e3; 1e6 ])))
    (fun (speeds, k, n) ->
      let star = Star.of_speeds speeds in
      QCheck.assume (Block_hom.block_count star ~k < 2 * Star.size star);
      matches_oracle star ~n ~k)

let test_deep_tie () =
  (* Speeds 3 and 3 + 2^-51: the two block times differ in the last bit,
     and at k = 5 the chains meet on both a start time and the start
     before it, so ordering them needs older start times.  The third
     worker makes the block count odd, so the tie decides who gets the
     last block. *)
  let star = Star.of_speeds [ 2.; 3.; Float.succ 3. ] in
  let t = kernel_tally star ~n:1e3 ~k:5 in
  checkb "takes the walk-back path" true (t.Block_hom.tie_walks > 0);
  checkb "matches the heap" true (matches_oracle star ~n:1e3 ~k:5);
  for k = 1 to 12 do
    List.iter
      (fun n -> checkb (Printf.sprintf "k=%d n=%g" k n) true (matches_oracle star ~n ~k))
      [ 1.; 3.7; 1e3; 1e6 ]
  done

let test_search_matches_heap () =
  (* The Commhom/k search reads only [imbalance]: it must stop at the
     same k as a search over the heap. *)
  let rng = Numerics.Rng.create ~seed:424242 () in
  List.iter
    (fun prof ->
      List.iter
        (fun p ->
          let star = Profiles.generate rng ~p prof in
          let r = Block_hom.commhom_over_k star ~n:1e3 in
          let rec heap_k k =
            if (Oracle.demand_driven star ~n:1e3 ~k).Oracle.imbalance <= 0.01 || k >= 128
            then k
            else heap_k (k + 1)
          in
          Alcotest.(check int) "same k" (heap_k 1) r.Block_hom.k)
        [ 10; 40; 100 ])
    [ Profiles.paper_uniform; Profiles.paper_lognormal ]

let suites =
  [
    ( "homogeneous blocks",
      [
        Alcotest.test_case "block count" `Quick test_block_count_homogeneous;
        Alcotest.test_case "perfect balance (hom)" `Quick test_homogeneous_perfect_balance;
        Alcotest.test_case "achieves LB (hom)" `Quick test_homogeneous_matches_lower_bound;
        Alcotest.test_case "communication formula" `Quick test_communication_formula;
        Alcotest.test_case "all blocks assigned" `Quick test_all_blocks_assigned;
        Alcotest.test_case "demand-driven favors fast" `Quick test_demand_driven_favors_fast;
        Alcotest.test_case "imbalance decreases with k" `Quick test_imbalance_decreases_with_k;
        Alcotest.test_case "hom/k meets target" `Quick test_commhom_over_k_meets_target;
        Alcotest.test_case "hom/k caps at max_k" `Quick test_commhom_over_k_max_cap;
        Alcotest.test_case "makespan consistent" `Quick test_makespan_consistent;
        Alcotest.test_case "invalid inputs" `Quick test_invalid_inputs;
        Alcotest.test_case "ideal ratio" `Quick test_ideal_ratio_closed_form;
        QCheck_alcotest.to_alcotest qcheck_comm_grows_with_k;
        QCheck_alcotest.to_alcotest qcheck_work_conserved;
      ] );
    ( "homogeneous blocks kernel",
      [
        Alcotest.test_case "deep tie walks back" `Quick test_deep_tie;
        Alcotest.test_case "Commhom/k search stops at the heap's k" `Quick
          test_search_matches_heap;
        QCheck_alcotest.to_alcotest qcheck_kernel_matches_heap;
        QCheck_alcotest.to_alcotest qcheck_few_blocks;
      ] );
  ]
