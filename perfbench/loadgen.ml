(* The serve workloads' client side: start [nldl serve] as its own
   process, drive it over its Unix socket with the line protocol that
   [nldl query --socket] speaks, and time every request.

   One generator process (this one) uses at most [nproc] connections.
   The daemon answers each connection's query lines in order but
   answers control lines ([ping]) as soon as it reads them, so each
   connection keeps two FIFOs: queries waiting for an API response and
   pings waiting for a pong. *)

open Common

let pong = "{\"control\":\"pong\"}"
let ping = "{\"control\":\"ping\"}"

type daemon = { pid : int; sock : string }

let live : daemon list ref = ref []

let kill_daemon d =
  (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
  (try ignore (Unix.waitpid [] d.pid) with Unix.Unix_error _ -> ());
  (try Unix.unlink d.sock with Unix.Unix_error _ -> ());
  live := List.filter (fun d' -> d' != d) !live

(* A daemon still running when the benchmark exits (an exception, a
   failed check) is killed and reaped, never left behind. *)
let () = at_exit (fun () -> List.iter kill_daemon !live)

let connect sock =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX sock) with
  | () -> Some fd
  | exception Unix.Unix_error _ ->
      Unix.close fd;
      None

let write_line fd s =
  let b = Bytes.of_string (s ^ "\n") in
  let len = Bytes.length b in
  let off = ref 0 in
  while !off < len do
    off := !off + Unix.write fd b !off (len - !off)
  done

(* Blocking single request on a fresh connection (control lines). *)
let request sock line =
  match connect sock with
  | None -> None
  | Some fd ->
      let ic = Unix.in_channel_of_descr fd in
      let r =
        match
          write_line fd line;
          input_line ic
        with
        | l -> Some l
        | exception (End_of_file | Unix.Unix_error _ | Sys_error _) -> None
      in
      close_in_noerr ic;
      r

let socket_counter = ref 0

(* Exec the daemon with its default config and wait until a ping is
   answered.  The socket path is relative so it stays short and inside
   the working directory. *)
let start ~nldl =
  ensure_scratch_dir ();
  incr socket_counter;
  let sock =
    Filename.concat scratch_dir (Printf.sprintf "s%d-%d.sock" (Unix.getpid ()) !socket_counter)
  in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let pid =
    Unix.create_process nldl [| nldl; "serve"; "--socket"; sock |] devnull devnull Unix.stderr
  in
  Unix.close devnull;
  let d = { pid; sock } in
  live := d :: !live;
  let deadline = now_ns () + 30_000_000_000 in
  let rec wait () =
    if request sock ping = Some pong then d
    else if now_ns () > deadline then begin
      kill_daemon d;
      failwith "nldl serve did not answer ping within 30 s"
    end
    else begin
      (match Unix.waitpid [ Unix.WNOHANG ] pid with
      | 0, _ -> ()
      | _ ->
          live := List.filter (fun d' -> d' != d) !live;
          failwith "nldl serve exited during start-up");
      Unix.sleepf 0.001;
      wait ()
    end
  in
  wait ()

let stats d = request d.sock "{\"control\":\"stats\"}"

(* Ask the daemon to shut down and reap it; kill it if it does not
   exit within 10 s. *)
let stop d =
  ignore (request d.sock "{\"control\":\"shutdown\"}");
  let deadline = now_ns () + 10_000_000_000 in
  let rec reap () =
    match Unix.waitpid [ Unix.WNOHANG ] d.pid with
    | 0, _ when now_ns () < deadline ->
        Unix.sleepf 0.002;
        reap ()
    | 0, _ -> kill_daemon d
    | _ -> live := List.filter (fun d' -> d' != d) !live
  in
  reap ()

(* --- connections with per-connection FIFOs of outstanding requests --- *)

type conn = {
  fd : Unix.file_descr;
  partial : Buffer.t;
  queries : int Queue.t;  (** request indices awaiting an API response *)
  pings : int Queue.t;  (** request indices awaiting a pong *)
}

let open_conns sock n =
  Array.init n (fun _ ->
      match connect sock with
      | Some fd ->
          { fd; partial = Buffer.create 4096; queries = Queue.create (); pings = Queue.create () }
      | None -> failwith "connection to nldl serve refused")

let close_conns conns = Array.iter (fun c -> try Unix.close c.fd with Unix.Unix_error _ -> ()) conns

(* The per-request record of one phase. *)
type sample = {
  lines : string array;  (** what was sent, by request index *)
  due_ns : int array;  (** when it was due (open loop) or sent (closed loop) *)
  sent_ns : int array;
  recv_ns : int array;  (** 0 = never answered *)
  answers : string array;
}

let make_sample lines =
  let n = Array.length lines in
  {
    lines;
    due_ns = Array.make n 0;
    sent_ns = Array.make n 0;
    recv_ns = Array.make n 0;
    answers = Array.make n "";
  }

let send_on s c i =
  let line = s.lines.(i) in
  s.sent_ns.(i) <- now_ns ();
  Queue.push i (if line = ping then c.pings else c.queries);
  write_line c.fd line

let send s conns i = send_on s conns.(i mod Array.length conns) i

let chunk = Bytes.create 65536

(* Read what [c] has and hand every complete line to [on_answer]. *)
let drain s c ~on_answer =
  match Unix.read c.fd chunk 0 (Bytes.length chunk) with
  | 0 -> raise End_of_file
  | n ->
      let t = now_ns () in
      let start = ref 0 in
      for k = 0 to n - 1 do
        if Bytes.get chunk k = '\n' then begin
          Buffer.add_subbytes c.partial chunk !start (k - !start);
          let line = Buffer.contents c.partial in
          Buffer.clear c.partial;
          start := k + 1;
          let q = if line = pong then c.pings else c.queries in
          match Queue.take_opt q with
          | Some i ->
              s.recv_ns.(i) <- t;
              s.answers.(i) <- line;
              on_answer i
          | None -> ()
        end
      done;
      Buffer.add_subbytes c.partial chunk !start (n - !start)

let select_read conns timeout =
  let fds = Array.to_list (Array.map (fun c -> c.fd) conns) in
  match Unix.select fds [] [] timeout with
  | r, _, _ -> List.filter (fun c -> List.memq c.fd r) (Array.to_list conns)
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> []

(* The open loop sleeps until [spin_ns] before the next due time, then
   polls: waking from a timed sleep overshoots by tens of microseconds,
   which would be charged to every request as generator lag. *)
let spin_ns = 80_000

(* Open loop: request [i] is due at [start + i * interval]; it is sent
   at its due time whether or not earlier ones were answered.  Returns
   once every request is answered or 10 s after the last one was sent.
   The backlog (sent, unanswered) is recorded at every send. *)
let open_loop conns s ~rate =
  let n = Array.length s.lines in
  let interval = 1e9 /. rate in
  let start = now_ns () + 1_000_000 in
  for i = 0 to n - 1 do
    s.due_ns.(i) <- start + int_of_float (float_of_int i *. interval)
  done;
  let backlog = Array.make n 0 in
  let answered = ref 0 in
  let next = ref 0 in
  let grace_end = ref max_int in
  (try
     while !answered < n && now_ns () < !grace_end do
       let now = now_ns () in
       while !next < n && s.due_ns.(!next) <= now do
         backlog.(!next) <- !next - !answered;
         send s conns !next;
         incr next;
         if !next = n then grace_end := now_ns () + 10_000_000_000
       done;
       let wait =
         if !next < n then
           let ahead = s.due_ns.(!next) - now_ns () - spin_ns in
           if ahead > 0 then float_of_int ahead /. 1e9 else 0.
         else 0.05
       in
       List.iter
         (fun c -> drain s c ~on_answer:(fun _ -> incr answered))
         (select_read conns wait)
     done
   with End_of_file | Unix.Unix_error _ -> ());
  backlog

(* Requests in flight per connection in the closed loop.  A deep window
   lets the daemon batch many lines per poll round, so the phase
   measures its capacity rather than round-trip wake-ups: on a shared
   2-core host the run-to-run spread of hot throughput was 0.23 of the
   median at depth 8 and 0.11 at depth 32. *)
let depth = 32

(* Closed loop: every connection keeps [depth] requests in flight and
   sends its next as soon as an answer arrives, until [seconds] have
   elapsed; requests are taken from [s.lines] in order.  Returns the
   sample and how many requests were sent. *)
let closed_loop conns s ~seconds =
  let n = Array.length s.lines in
  let next = ref 0 in
  let inflight = ref 0 in
  let stop_at = now_ns () + int_of_float (seconds *. 1e9) in
  let send_next c =
    if !next < n && now_ns () < stop_at then begin
      let i = !next in
      incr next;
      send_on s c i;
      s.due_ns.(i) <- s.sent_ns.(i);
      incr inflight
    end
  in
  let hard_stop = stop_at + 10_000_000_000 in
  (try
     Array.iter (fun c -> for _ = 1 to depth do send_next c done) conns;
     while !inflight > 0 && now_ns () < hard_stop do
       List.iter
         (fun c ->
           drain s c ~on_answer:(fun _ ->
               decr inflight;
               send_next c))
         (select_read conns 0.05)
     done
   with End_of_file | Unix.Unix_error _ -> ());
  (s, !next)

(* Answer time minus [from.(i)], in us, of every answered request [i]
   in [lo, hi) that satisfies [keep]. *)
let latencies ?(keep = fun _ -> true) ?(lo = 0) ?hi s ~from =
  let hi = Option.value hi ~default:(Array.length s.lines) in
  let out = ref [] in
  for i = hi - 1 downto lo do
    if s.recv_ns.(i) > 0 && keep s.lines.(i) then out := ns_to_us (s.recv_ns.(i) - from.(i)) :: !out
  done;
  Array.of_list !out

(* The first [n] requests of a sample, and samples laid end to end. *)
let prefix s n =
  {
    lines = Array.sub s.lines 0 n;
    due_ns = Array.sub s.due_ns 0 n;
    sent_ns = Array.sub s.sent_ns 0 n;
    recv_ns = Array.sub s.recv_ns 0 n;
    answers = Array.sub s.answers 0 n;
  }

let concat ss =
  let cat f = Array.concat (List.map f ss) in
  {
    lines = cat (fun s -> s.lines);
    due_ns = cat (fun s -> s.due_ns);
    sent_ns = cat (fun s -> s.sent_ns);
    recv_ns = cat (fun s -> s.recv_ns);
    answers = cat (fun s -> s.answers);
  }
