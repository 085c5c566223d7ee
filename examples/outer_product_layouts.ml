(* Paper Figure 2: what each strategy ships to the workers.

   Renders the unit-square partitions of the outer-product domain for a
   heterogeneous platform: the Heterogeneous Blocks (PERI-SUM) zones,
   and the footprint of the Homogeneous Blocks demand-driven hand-out.

   Run:  dune exec examples/outer_product_layouts.exe *)

let () =
  let star = Core.Star.of_speeds [ 1.; 1.; 2.; 4.; 4.; 12. ] in
  Format.printf "Platform:@.%a@." Core.Star.pp star;

  (* Heterogeneous Blocks: one rectangle per worker, areas ∝ speeds. *)
  let layout = Core.Strategies.het_layout star in
  Printf.printf "Heterogeneous Blocks (PERI-SUM column partition), zone of worker i:\n\n";
  print_string (Core.Layout.render ~width:48 ~height:20 layout);
  Printf.printf "\nSum of half-perimeters: %.4f (lower bound %.4f)\n\n"
    (Core.Layout.sum_half_perimeters layout)
    (Core.Comm_lower_bound.peri_sum ~areas:(Core.Star.relative_speeds star));

  (* Homogeneous Blocks: identical squares handed out on demand. *)
  let n = 1. in
  let schedule = Core.Block_hom.commhom star ~n in
  Printf.printf
    "Homogeneous Blocks: %d identical blocks of side %.4f, demand-driven owners\n"
    schedule.Core.Block_hom.blocks schedule.Core.Block_hom.block_side;
  Printf.printf "(blocks in hand-out order, digit = worker index):\n\n  ";
  Array.iteri
    (fun b owner ->
      if b > 0 && b mod 16 = 0 then Printf.printf "\n  ";
      Printf.printf "%x" owner)
    (Core.Block_hom.hand_out star ~n ~k:1);
  Printf.printf "\n\nBlocks per worker: ";
  Array.iter (Printf.printf "%d ") schedule.Core.Block_hom.per_worker;
  Printf.printf "\nCommunication: %.4f vs %.4f for Heterogeneous Blocks (ratio %.2f)\n"
    schedule.Core.Block_hom.communication
    (Core.Layout.communication_volume layout ~n)
    (schedule.Core.Block_hom.communication /. Core.Layout.communication_volume layout ~n);
  Printf.printf
    "\nThe fast worker's many scattered blocks are exactly the data redundancy\n\
     the paper blames on platform-oblivious (MapReduce-style) distribution.\n"
