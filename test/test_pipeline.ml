(* The recurring-event engine helper. *)

let checkb = Alcotest.(check bool)

let test_engine_every () =
  let engine = Des.Engine.create () in
  let fired = ref [] in
  let cancel =
    Des.Engine.every engine ~period:2. (fun e -> fired := Des.Engine.now e :: !fired)
  in
  Des.Engine.schedule engine ~time:7. (fun _ -> cancel ());
  Des.Engine.run engine;
  Alcotest.(check (list (float 0.))) "three ticks then cancelled" [ 2.; 4.; 6. ]
    (List.rev !fired)

let test_engine_every_start () =
  let engine = Des.Engine.create () in
  let count = ref 0 in
  let cancel = Des.Engine.every engine ~period:1. ~start:0.5 (fun _ -> incr count) in
  Des.Engine.schedule engine ~time:3. (fun _ -> cancel ());
  Des.Engine.run engine;
  (* Fires at 0.5, 1.5, 2.5. *)
  Alcotest.(check int) "three firings" 3 !count

let test_engine_every_bad_period () =
  let engine = Des.Engine.create () in
  checkb "non-positive period rejected" true
    (try
       ignore (Des.Engine.every engine ~period:0. (fun _ -> ()) : Des.Engine.cancel);
       false
     with Des.Engine.Causality _ -> true)

let suites =
  [
    ( "recurring events",
      [
        Alcotest.test_case "every + cancel" `Quick test_engine_every;
        Alcotest.test_case "explicit start" `Quick test_engine_every_start;
        Alcotest.test_case "bad period" `Quick test_engine_every_bad_period;
      ] );
  ]
