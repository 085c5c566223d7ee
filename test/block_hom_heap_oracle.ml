(* Frozen copies of the per-block event-heap loops that
   [Partition.Block_hom.demand_driven] and [Partition.Timed.hom] ran
   before the per-worker kernel ([Block_hom.tally]) replaced them: every
   block popped off a [Des.Event_heap], FIFO among equal times.
   [Test_block_hom] and [Test_timed] check the kernel against these bit
   for bit.  Only the module paths and the [owners] field (which the
   library's result no longer carries) differ from the originals; do
   not "improve" this file. *)

module Star = Platform.Star
module Processor = Platform.Processor

type result = {
  k : int;
  blocks : int;
  block_side : float;
  owners : int array;
  per_worker : int array;
  finish_times : float array;
  communication : float;
  imbalance : float;
  makespan : float;
}

let demand_driven star ~n ~k =
  if n <= 0. then invalid_arg "Block_hom.demand_driven: n must be > 0";
  if k <= 0 then invalid_arg "Block_hom.demand_driven: k must be > 0";
  let p = Star.size star in
  let workers = Star.workers star in
  let x = Star.relative_speeds star in
  let blocks = Partition.Block_hom.block_count star ~k in
  let block_side = sqrt x.(0) *. n /. float_of_int k in
  let block_work = block_side *. block_side in
  let owners = Array.make blocks 0 in
  let per_worker = Array.make p 0 in
  let finish_times = Array.make p 0. in
  (* Demand-driven = each worker requests a block the instant it becomes
     idle; ties at t = 0 resolved by worker index (FIFO). *)
  let queue = Des.Event_heap.create ~initial_capacity:p () in
  for i = 0 to p - 1 do
    Des.Event_heap.push queue ~priority:0. i
  done;
  for b = 0 to blocks - 1 do
    let now = Des.Event_heap.min_priority queue in
    let i = Des.Event_heap.pop queue in
    let finish = now +. Processor.compute_time workers.(i) ~work:block_work in
    owners.(b) <- i;
    per_worker.(i) <- per_worker.(i) + 1;
    finish_times.(i) <- finish;
    Des.Event_heap.push queue ~priority:finish i
  done;
  let tmax = Array.fold_left Float.max 0. finish_times in
  let tmin = Array.fold_left Float.min infinity finish_times in
  let imbalance = if tmin > 0. then (tmax -. tmin) /. tmin else infinity in
  {
    k;
    blocks;
    block_side;
    owners;
    per_worker;
    finish_times;
    communication = float_of_int blocks *. 2. *. block_side;
    imbalance;
    makespan = tmax;
  }

(* [Timed.hom]'s loop: fetch folded into each block's service time;
   returns (per-worker finish times, per-worker fetch sums). *)
let timed_hom ?(k = 1) star ~n =
  if n <= 0. then invalid_arg "Timed.hom: n must be > 0";
  let p = Star.size star in
  let workers = Star.workers star in
  let blocks = Partition.Block_hom.block_count star ~k in
  let x = Star.relative_speeds star in
  let side = sqrt x.(0) *. n /. float_of_int k in
  let block_data = 2. *. side in
  let block_work = side *. side in
  let per_worker = Array.make p 0. in
  let comm = Array.make p 0. in
  let queue = Des.Event_heap.create ~initial_capacity:p () in
  for i = 0 to p - 1 do
    Des.Event_heap.push queue ~priority:0. i
  done;
  for _ = 1 to blocks do
    let now = Des.Event_heap.min_priority queue in
    let i = Des.Event_heap.pop queue in
    let proc = workers.(i) in
    let fetch = Processor.transfer_time proc ~data:block_data in
    let finish = now +. fetch +. Processor.compute_time proc ~work:block_work in
    comm.(i) <- comm.(i) +. fetch;
    per_worker.(i) <- finish;
    Des.Event_heap.push queue ~priority:finish i
  done;
  (per_worker, comm)
