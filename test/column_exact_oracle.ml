(* Brute-force optimum over the whole column-based class — every way of
   grouping the zones into columns, contiguous in sorted order or not —
   for small instances.  [Test_wave3] checks that the O(p²) dynamic
   program of [Partition.Column_partition] (which only searches
   contiguous groups of the sorted areas) is exact within the class for
   PERI-SUM, per the structure theorem of Beaumont-Boudet-Rastello-Robert,
   and never beats it for PERI-MAX.  Exponential (Bell-number) search:
   raises [Invalid_argument] for more than 10 areas. *)

let check areas =
  if Array.length areas > 10 then
    invalid_arg "Column_exact_oracle: exhaustive search limited to 10 areas";
  if Array.length areas = 0 then invalid_arg "Column_exact_oracle: empty areas"

(* Enumerate set partitions: [visit groups] is called for every
   partition of indices [0..n-1] into non-empty groups (as lists). *)
let iter_set_partitions n visit =
  let groups : int list array = Array.make n [] in
  let rec place i group_count =
    if i = n then visit (Array.to_list (Array.sub groups 0 group_count))
    else begin
      for g = 0 to group_count - 1 do
        groups.(g) <- i :: groups.(g);
        place (i + 1) group_count;
        groups.(g) <- List.tl groups.(g)
      done;
      groups.(group_count) <- [ i ];
      place (i + 1) (group_count + 1);
      groups.(group_count) <- []
    end
  in
  place 0 0

let optimize ~areas ~column_cost ~combine ~neutral =
  check areas;
  let best = ref infinity in
  iter_set_partitions (Array.length areas) (fun groups ->
      let cost =
        List.fold_left (fun acc group -> combine acc (column_cost group)) neutral groups
      in
      if cost < !best then best := cost);
  !best

(* Minimum [Σ_c (k_c·w_c + 1)] over all set partitions of the areas
   into columns. *)
let peri_sum_cost ~areas =
  let column_cost group =
    let width = List.fold_left (fun acc i -> acc +. areas.(i)) 0. group in
    (float_of_int (List.length group) *. width) +. 1.
  in
  optimize ~areas ~column_cost ~combine:( +. ) ~neutral:0.

(* Same for the PERI-MAX objective [max_c (w_c + a_max(c)/w_c)]. *)
let peri_max_cost ~areas =
  let column_cost group =
    let width = List.fold_left (fun acc i -> acc +. areas.(i)) 0. group in
    let largest = List.fold_left (fun acc i -> Float.max acc areas.(i)) 0. group in
    width +. (largest /. width)
  in
  optimize ~areas ~column_cost ~combine:Float.max ~neutral:0.
