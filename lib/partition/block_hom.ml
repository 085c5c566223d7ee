module Star = Platform.Star
module Processor = Platform.Processor
module Kahan = Numerics.Kahan

let src = Logs.Src.create "nldl.partition" ~doc:"Data-distribution strategies"

module Log = (val Logs.src_log src : Logs.LOG)

type result = {
  k : int;
  blocks : int;
  block_side : float;
  per_worker : int array;
  finish_times : float array;
  communication : float;
  imbalance : float;
  makespan : float;
}

let block_count star ~k =
  let x = Star.relative_speeds star in
  let kf = float_of_int k in
  max 1 (int_of_float (Float.round (kf *. kf /. x.(0))))

type tally = { counts : int array; finish : float array; tie_walks : int }

(* The demand-driven hand-out is a merge of p chains.  Worker [i]'s
   j-th block starts at s_i(j), with s_i(0) = 0 and
   s_i(j+1) = (s_i(j) +. fetch_i) +. compute_i: the float sums a
   per-block event heap would form.  The heap pops (start, seq) in
   increasing order, because every push is at least the event just
   popped; a block's seq is p plus the pop rank of the same worker's
   previous block (worker i's first block has seq i).  So among equal
   start times, blocks are ordered by their predecessors' (start, seq),
   recursively down the chains, and by worker index at the chain
   heads.

   Every start time below theta = (B - 2p) / sum_i 1/(fetch_i + compute_i)
   is among the first B pops whenever there are at most B of them (all
   smaller keys precede all larger ones), and there are about B - p.
   They are claimed by plain repeated addition; the rest (between p and
   2p blocks) go through a p-entry heap whose initial entries, each
   worker's first unclaimed block, are pushed in their exact (start,
   seq) order.  Later pushes get later seqs in both the heap and the
   order being reproduced, so the heap's own FIFO tie-break stays
   exact.  If the claim would exceed B (a chain that stops growing, or
   theta overestimated) nothing is claimed and the heap does it all. *)
let tally ~fetch ~compute ~blocks =
  let p = Array.length compute in
  if Array.length fetch <> p then invalid_arg "Block_hom.tally: |fetch| <> |compute|";
  let counts = Array.make p 0 in
  (* [finish.(i)] is s_i(counts.(i)): the finish time of worker i's last
     block, and the start of its next one. *)
  let finish = Array.make p 0. in
  let before = Array.make p 0. in
  let rate = ref 0. in
  for i = 0 to p - 1 do
    rate := !rate +. (1. /. (fetch.(i) +. compute.(i)))
  done;
  let theta = float_of_int (blocks - (2 * p)) /. !rate in
  let claimed = ref 0 in
  if theta > 0. then begin
    let overflow = ref false in
    let i = ref 0 in
    while (not !overflow) && !i < p do
      let f = fetch.(!i) and c = compute.(!i) in
      let budget = blocks - !claimed in
      let s = ref 0. and prev = ref 0. and j = ref 0 in
      (* The chain is one float-add latency per block; with no fetch
         (Commhom) [s +. 0.] = [s] exactly, so that add is skipped. *)
      if Float.equal f 0. then
        while !s < theta && !j < budget do
          prev := !s;
          s := !s +. c;
          incr j
        done
      else
        while !s < theta && !j < budget do
          prev := !s;
          s := !s +. f +. c;
          incr j
        done;
      if !s < theta then overflow := true
      else begin
        counts.(!i) <- !j;
        finish.(!i) <- !s;
        before.(!i) <- !prev;
        claimed := !claimed + !j
      end;
      incr i
    done;
    if !overflow then begin
      Array.fill counts 0 p 0;
      Array.fill finish 0 p 0.;
      claimed := 0
    end
  end;
  let tie_walks = ref 0 in
  (* Chain a's and chain b's heads have equal start times; compare the
     blocks [level] steps behind both heads, then deeper, exactly as the
     heap's seq tie-break does.  The chains are replayed forward from 0,
     so the deepest differing level is seen first and the shallowest
     one, which decides, last.  If no level differs, both chains reach
     their first block (start 0; every later start is above 0) at the
     same depth, and first blocks are ordered by worker index. *)
  let walk a b =
    incr tie_walks;
    let na = counts.(a) and nb = counts.(b) in
    let depth = min na nb in
    let order = ref (compare a b) in
    let fa = fetch.(a) and ca = compute.(a) and fb = fetch.(b) and cb = compute.(b) in
    let sa = ref 0. and sb = ref 0. in
    for _ = 1 to na - depth do
      sa := !sa +. fa +. ca
    done;
    for _ = 1 to nb - depth do
      sb := !sb +. fb +. cb
    done;
    for level = depth downto 0 do
      if !sa < !sb then order := -1 else if !sa > !sb then order := 1;
      if level > 0 then begin
        sa := !sa +. fa +. ca;
        sb := !sb +. fb +. cb
      end
    done;
    !order
  in
  let compare_heads a b =
    let ha = finish.(a) and hb = finish.(b) in
    if ha < hb then -1
    else if ha > hb then 1
    else
      let qa = before.(a) and qb = before.(b) in
      if qa < qb then -1
      else if qa > qb then 1
      else if fetch.(a) = fetch.(b) && compute.(a) = compute.(b) then
        (* Same step, and every head is above its predecessor (the head
           is at least theta, the predecessor below): both chains climb
           strictly from 0 to the same value, so they are the same
           chain. *)
        compare a b
      else walk a b
  in
  let remaining = blocks - !claimed in
  if remaining > 0 then begin
    let order = Array.init p Fun.id in
    (* With nothing claimed, every head is a first block at 0 and its seq
       is its index; otherwise every worker has claimed its first block. *)
    if !claimed > 0 then Array.sort compare_heads order;
    let queue = Des.Event_heap.create ~initial_capacity:p () in
    Array.iter (fun i -> Des.Event_heap.push queue ~priority:finish.(i) i) order;
    for _ = 1 to remaining do
      let now = Des.Event_heap.min_priority queue in
      let i = Des.Event_heap.pop queue in
      let next = now +. fetch.(i) +. compute.(i) in
      counts.(i) <- counts.(i) + 1;
      finish.(i) <- next;
      Des.Event_heap.push queue ~priority:next i
    done
  end;
  { counts; finish; tie_walks = !tie_walks }

(* Block count, block side and each worker's time per block. *)
let geometry fn star ~n ~k =
  if n <= 0. then invalid_arg ("Block_hom." ^ fn ^ ": n must be > 0");
  if k <= 0 then invalid_arg ("Block_hom." ^ fn ^ ": k must be > 0");
  let side = sqrt (Star.relative_speeds star).(0) *. n /. float_of_int k in
  let compute =
    Array.map (fun w -> Processor.compute_time w ~work:(side *. side)) (Star.workers star)
  in
  (block_count star ~k, side, compute)

let demand_driven star ~n ~k =
  let blocks, block_side, compute = geometry "demand_driven" star ~n ~k in
  let t = tally ~fetch:(Array.make (Array.length compute) 0.) ~compute ~blocks in
  let tmax = Array.fold_left Float.max 0. t.finish in
  let tmin = Array.fold_left Float.min infinity t.finish in
  let imbalance = if tmin > 0. then (tmax -. tmin) /. tmin else infinity in
  {
    k;
    blocks;
    block_side;
    per_worker = t.counts;
    finish_times = t.finish;
    communication = float_of_int blocks *. 2. *. block_side;
    imbalance;
    makespan = tmax;
  }

let hand_out star ~n ~k =
  let blocks, _, compute = geometry "hand_out" star ~n ~k in
  let p = Array.length compute in
  let owners = Array.make blocks 0 in
  (* Each worker requests a block the instant it becomes idle; ties at
     t = 0 resolved by worker index (FIFO). *)
  let queue = Des.Event_heap.create ~initial_capacity:p () in
  for i = 0 to p - 1 do
    Des.Event_heap.push queue ~priority:0. i
  done;
  for b = 0 to blocks - 1 do
    let now = Des.Event_heap.min_priority queue in
    let i = Des.Event_heap.pop queue in
    owners.(b) <- i;
    Des.Event_heap.push queue ~priority:(now +. compute.(i)) i
  done;
  owners

let commhom star ~n = demand_driven star ~n ~k:1

let commhom_over_k ?(target_imbalance = 0.01) ?(max_k = 128) star ~n =
  let rec search k =
    let result = demand_driven star ~n ~k in
    Log.debug (fun m ->
        m "Commhom/k search: k=%d blocks=%d imbalance=%.4g" k result.blocks
          result.imbalance);
    if result.imbalance <= target_imbalance || k >= max_k then result else search (k + 1)
  in
  search 1

let ideal_ratio star =
  let x = Star.relative_speeds star in
  1. /. (sqrt x.(0) *. Kahan.sum_by sqrt x)
