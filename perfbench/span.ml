(* In-memory spans recorded by the benchmark around its calls into each
   layer's public functions.  Nothing is written until [write] at the
   end of a traced run, and with tracing off [time] is a plain call.

   A span's self time is its duration minus the time covered by the
   spans opened inside it, so nesting a layer call inside a whole-phase
   span attributes the phase's residue to the phase itself. *)

type span = {
  name : string;
  id : int;
  parent : int;  (** -1 for a root span *)
  start_ns : int;
  mutable stop_ns : int;
  mutable child_ns : int;
}

let on = ref false
let next_id = ref 0
let stack : span list ref = ref []
let recorded : span list ref = ref []

let push_span name start_ns =
  let parent = match !stack with s :: _ -> s.id | [] -> -1 in
  let s = { name; id = !next_id; parent; start_ns; stop_ns = start_ns; child_ns = 0 } in
  incr next_id;
  s

let close_span s stop_ns =
  s.stop_ns <- stop_ns;
  (match !stack with
  | p :: _ -> p.child_ns <- p.child_ns + (stop_ns - s.start_ns)
  | [] -> ());
  recorded := s :: !recorded

(* Run [f] inside a span named [name] (when tracing is on). *)
let time name f =
  if not !on then f ()
  else begin
    let s = push_span name (Common.now_ns ()) in
    stack := s :: !stack;
    let finish () =
      stack := List.tl !stack;
      close_span s (Common.now_ns ())
    in
    match f () with
    | v ->
        finish ();
        v
    | exception e ->
        finish ();
        raise e
  end

(* Record a span timed elsewhere, e.g. a client round trip whose start
   and end the load generator observed. *)
let record name ~start_ns ~stop_ns =
  if !on then close_span (push_span name start_ns) stop_ns

type agg = { calls : int; total_ns : int; self_ns : int }

(* Spans recorded so far. *)
let count () = List.length !recorded

(* Per-name totals over the spans recorded after the first [since]. *)
let aggregate ?(since = 0) () =
  let tbl : (string, agg) Hashtbl.t = Hashtbl.create 32 in
  let newer = List.length !recorded - since in
  List.iteri
    (fun i s ->
      if i < newer then begin
        let d = s.stop_ns - s.start_ns in
        let a =
          Option.value (Hashtbl.find_opt tbl s.name)
            ~default:{ calls = 0; total_ns = 0; self_ns = 0 }
        in
        Hashtbl.replace tbl s.name
          { calls = a.calls + 1; total_ns = a.total_ns + d; self_ns = a.self_ns + d - s.child_ns }
      end)
    !recorded;
  tbl

let find tbl name =
  Option.value (Hashtbl.find_opt tbl name) ~default:{ calls = 0; total_ns = 0; self_ns = 0 }

(* Mean self time per call, in nanoseconds; 0 when the layer never ran. *)
let self_per_call tbl name =
  let a = find tbl name in
  if a.calls = 0 then 0. else float_of_int a.self_ns /. float_of_int a.calls

(* Chrome trace-event JSON ("X" events, microseconds), one event per
   span, parent recorded in [args]. *)
let write path =
  let oc = open_out path in
  output_string oc "{\"traceEvents\":[";
  let t0 = List.fold_left (fun acc s -> min acc s.start_ns) max_int !recorded in
  List.iteri
    (fun i s ->
      if i > 0 then output_char oc ',';
      Printf.fprintf oc
        "\n{\"name\":%S,\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d}}"
        s.name
        (float_of_int (s.start_ns - t0) /. 1e3)
        (float_of_int (s.stop_ns - s.start_ns) /. 1e3)
        s.id s.parent)
    (List.rev !recorded);
  output_string oc "\n]}\n";
  close_out oc
