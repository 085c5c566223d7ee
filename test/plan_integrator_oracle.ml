(* Frozen copy of [Fault.Plan.advance] and [Fault.Plan.work_between] as
   they stood before the allocation-free rewrite: a [List.iter] closure
   over captured refs.  [Test_fault] checks the rewrite against these
   bit for bit.  Only the source of the windows (the plan's public
   [slowdowns] list instead of its private per-worker array) and a type
   annotation differ from the original; do not "improve" this file. *)

module Plan = Fault.Plan

let windows t worker =
  List.filter (fun (s : Plan.slowdown) -> s.Plan.worker = worker) (Plan.slowdowns t)

let in_range t w = w >= 0 && w < Plan.p t

let advance t ~worker ~start ~duration =
  if duration <= 0. then start
  else if not (in_range t worker) then start +. duration
  else begin
    let remaining = ref duration and cursor = ref start in
    let finished = ref None in
    List.iter
      (fun (s : Plan.slowdown) ->
        match !finished with
        | Some _ -> ()
        | None ->
            if s.until > !cursor then begin
              (* unslowed gap before the window *)
              (if s.from_time > !cursor then begin
                 let gap = s.from_time -. !cursor in
                 if !remaining <= gap then finished := Some (!cursor +. !remaining)
                 else begin
                   remaining := !remaining -. gap;
                   cursor := s.from_time
                 end
               end);
              match !finished with
              | Some _ -> ()
              | None ->
                  (* inside the window: time passes [factor] times faster *)
                  let capacity = (s.until -. !cursor) /. s.factor in
                  if !remaining <= capacity then
                    finished := Some (!cursor +. (!remaining *. s.factor))
                  else begin
                    remaining := !remaining -. capacity;
                    cursor := s.until
                  end
            end)
      (windows t worker);
    match !finished with Some f -> f | None -> !cursor +. !remaining
  end

let work_between t ~worker ~start ~until =
  if until <= start then 0.
  else if not (in_range t worker) then until -. start
  else begin
    let work = ref 0. and cursor = ref start in
    List.iter
      (fun (s : Plan.slowdown) ->
        if s.until > !cursor && s.from_time < until then begin
          (if s.from_time > !cursor then begin
             work := !work +. (Float.min s.from_time until -. !cursor);
             cursor := Float.min s.from_time until
           end);
          if !cursor < until && !cursor < s.until then begin
            let stop = Float.min s.until until in
            work := !work +. ((stop -. !cursor) /. s.factor);
            cursor := stop
          end
        end)
      (windows t worker);
    if !cursor < until then work := !work +. (until -. !cursor);
    !work
  end
