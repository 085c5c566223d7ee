(* The monotonic nanosecond clock, shared by every measured path in the
   repo (pool instrumentation, span tracing, Multicore.speedup, bench).
   Wall clocks ([Unix.gettimeofday], [Sys.time]) are subject to NTP slew
   and must not appear in measured paths.

   The external is re-declared here (the stubs come from
   bechamel.monotonic_clock, which the library links) so the int64
   result stays unboxed through [Int64.to_int]: a [now] call then
   allocates nothing, which is what lets the tracing hot path stay
   allocation-free even when enabled. *)

external clock_linux_get_time : unit -> (int64[@unboxed])
  = "clock_linux_get_time_bytecode" "clock_linux_get_time_native"
[@@noalloc]

let now_ns () = Int64.to_int (clock_linux_get_time ())

let ns_to_s ns = float_of_int ns /. 1e9

let elapsed_s f =
  let t0 = now_ns () in
  let result = f () in
  (result, ns_to_s (now_ns () - t0))
