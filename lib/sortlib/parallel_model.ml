module Star = Platform.Star
module Processor = Platform.Processor

type timing = {
  phase1 : float;
  phase2 : float;
  phase3 : float;
  communication : float;
  total : float;
  sequential : float;
  speedup : float;
  divisible_fraction : float;
}

let log2 x = log x /. log 2.
let nlogn n = if n <= 1. then 0. else n *. log2 n

let evaluate ?(master_speed = 1.) ?(with_communication = true) star ~bucket_sizes ~s =
  let p = Star.size star in
  if Array.length bucket_sizes <> p then
    invalid_arg "Parallel_model.evaluate: one bucket per worker required";
  let workers = Star.workers star in
  let n = Array.fold_left ( + ) 0 bucket_sizes in
  let nf = float_of_int n in
  let sample = float_of_int (s * p) in
  let phase1 = nlogn sample /. master_speed in
  let phase2 = nf *. log2 (float_of_int (max 2 p)) /. master_speed in
  let phase3 =
    Array.to_list (Array.mapi (fun i size -> (i, size)) bucket_sizes)
    |> List.fold_left
         (fun acc (i, size) ->
           Float.max acc
             (Processor.compute_time workers.(i) ~work:(nlogn (float_of_int size))))
         0.
  in
  let communication =
    if not with_communication then 0.
    else
      Array.to_list (Array.mapi (fun i size -> (i, size)) bucket_sizes)
      |> List.fold_left
           (fun acc (i, size) ->
             Float.max acc (Processor.transfer_time workers.(i) ~data:(float_of_int size)))
           0.
  in
  let total = phase1 +. phase2 +. communication +. phase3 in
  let sequential = nlogn nf /. master_speed in
  let partial =
    Numerics.Kahan.sum_by (fun size -> nlogn size) (Array.map float_of_int bucket_sizes)
  in
  {
    phase1;
    phase2;
    phase3;
    communication;
    total;
    sequential;
    speedup = (if total > 0. then sequential /. total else 1.);
    divisible_fraction = (if n > 1 then partial /. nlogn nf else 1.);
  }
