module Star = Platform.Star
module Processor = Platform.Processor

type timing = { makespan : float; comm_makespan : float; per_worker : float array }

let of_finish_times ~comm per_worker =
  {
    makespan = Array.fold_left Float.max 0. per_worker;
    comm_makespan = Array.fold_left Float.max 0. comm;
    per_worker;
  }

let het star ~n =
  if n <= 0. then invalid_arg "Timed.het: n must be > 0";
  let layout = Column_partition.peri_sum_layout ~areas:(Star.relative_speeds star) in
  let workers = Star.workers star in
  let comm = Array.make (Star.size star) 0. in
  let per_worker =
    Array.mapi
      (fun i rect ->
        let proc = workers.(i) in
        let data = n *. Rect.half_perimeter rect in
        let cells = n *. n *. Rect.area rect in
        let fetch = Processor.transfer_time proc ~data in
        comm.(i) <- fetch;
        fetch +. Processor.compute_time proc ~work:cells)
      layout.Layout.rects
  in
  of_finish_times ~comm per_worker

let hom ?(k = 1) star ~n =
  if n <= 0. then invalid_arg "Timed.hom: n must be > 0";
  let p = Star.size star in
  let workers = Star.workers star in
  let blocks = Block_hom.block_count star ~k in
  let x = Star.relative_speeds star in
  let side = sqrt x.(0) *. n /. float_of_int k in
  let block_data = 2. *. side in
  let block_work = side *. side in
  let per_worker = Array.make p 0. in
  let comm = Array.make p 0. in
  (* Demand-driven with the fetch folded into each block's service
     time: the worker requests, receives, computes, requests again. *)
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
  of_finish_times ~comm per_worker

let hom_balanced ?target_imbalance star ~n =
  let result = Block_hom.commhom_over_k ?target_imbalance star ~n in
  hom ~k:result.Block_hom.k star ~n

let compute_bound star ~n = n *. n /. Star.total_speed star
