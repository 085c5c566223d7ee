type t = { id : int; data_ids : int array; cost : float }

let make ~id ~data_ids ~cost =
  if cost < 0. || Float.is_nan cost then invalid_arg "Task.make: negative cost";
  { id; data_ids; cost }
