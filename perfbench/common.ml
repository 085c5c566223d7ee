(* Shared pieces of the benchmark: clocks, order statistics, process
   memory, GC deltas and the per-run result every workload returns. *)

let now_ns = Obs.Clock.now_ns
let ns_to_s = Obs.Clock.ns_to_s
let ns_to_us ns = float_of_int ns /. 1e3

type metric = { name : string; value : float; unit_ : string }

let metric name unit_ value = { name; value; unit_ }

type result = {
  attempted : int;
  failed : int;  (** wrong answers, error lines, timeouts, refused connections *)
  checks_ok : bool;  (** every whole-run oracle (determinism, ranges) held *)
  scaled : string list;
      (** end-to-end metrics reported at reference host speed *)
  e2e : metric list;
  layers : metric list;  (** only filled by a traced run *)
  shares : (string * float) list;
      (** traced run: each layer's self time as a share of the
          end-to-end time it sits under *)
  report : string list;  (** human-readable lines for stderr *)
}

let sum a = Array.fold_left ( +. ) 0. a
let max_of a = Array.fold_left Float.max neg_infinity a

(* Peak resident set ([VmHWM]) of a process, in MiB, from procfs. *)
let peak_rss_mb pid =
  let path = if pid = 0 then "/proc/self/status" else Printf.sprintf "/proc/%d/status" pid in
  match open_in path with
  | exception Sys_error _ -> nan
  | ic ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> nan
        | line ->
            if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
              Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB"
                (fun kb -> float_of_int kb /. 1024.)
            else scan ()
      in
      let v = scan () in
      close_in ic;
      v

type gc_delta = { minor_words : float; major_collections : int }

(* Allocation and major-GC counts of [f ()] in this process. *)
let with_gc f =
  let s0 = Gc.quick_stat () in
  let v = f () in
  let s1 = Gc.quick_stat () in
  ( v,
    {
      minor_words = s1.Gc.minor_words -. s0.Gc.minor_words;
      major_collections = s1.Gc.major_collections - s0.Gc.major_collections;
    } )

(* Wall time of [f ()] in nanoseconds. *)
let timed f =
  let t0 = now_ns () in
  let v = f () in
  (v, now_ns () - t0)

(* Mean time of an empty [Exec.Pool.parallel_for] over the shared
   pool's domains, in us: the pool's own dispatch cost. *)
let pool_dispatch_us () =
  let pool = Exec.Pool.get_global () in
  let d = Exec.Pool.size pool in
  for _ = 1 to 200 do
    Exec.Pool.parallel_for pool d ignore
  done;
  let reps = 2000 in
  let (), ns = timed (fun () -> for _ = 1 to reps do Exec.Pool.parallel_for pool d ignore done) in
  ns_to_us ns /. float_of_int reps

(* Host speed.  On a shared host the same binary runs up to 1.4x
   slower for tens of seconds at a time.  A fixed kernel owned by the
   benchmark -- random read-modify-writes over a 32 MiB array, then a
   float loop -- is timed while the program under test is idle: no
   daemon running and no pool domain started.  Where runs showed that
   it helps, end-to-end times are scaled to a host on which the
   kernel's median takes [cal_ref_ns]; elsewhere it is reported as
   context only. *)
let cal_ref_ns = 17e6
let cal_buf = lazy (Array.make (1 lsl 22) 0)

let calibrate_ns () =
  let a = Lazy.force cal_buf in
  let mask = Array.length a - 1 in
  let t0 = now_ns () in
  let x = ref 12345 in
  for _ = 1 to 400_000 do
    x := ((!x * 1103515245) + 12345) land 0x3FFFFFFF;
    let j = !x land mask in
    a.(j) <- a.(j) + 1
  done;
  let f = ref 0. in
  for i = 1 to 1_000_000 do
    f := !f +. sqrt (float_of_int i)
  done;
  ignore (Sys.opaque_identity !f);
  now_ns () - t0

let cal_samples = ref []

let calibrate ?(times = 1) () =
  for _ = 1 to times do
    cal_samples := float_of_int (calibrate_ns ()) :: !cal_samples
  done

(* Median kernel time of this run, in ns. *)
let cal_median () = Numerics.Stats.median (Array.of_list !cal_samples)

(* Set-ups per run on each side of the timed phase, [setup_reps]
   before it and as many after it; [setup_s] is the median of all.  A
   slower spell of the host lasts seconds, so it weighs on one side at
   most. *)
let setup_reps = 6

let scratch_dir = ".perfbench"

let ensure_scratch_dir () =
  if not (Sys.file_exists scratch_dir) then Unix.mkdir scratch_dir 0o755
