(* perfbench: run one workload of BENCHMARK.json and print its result.

   main.exe --workload NAME --seed N --seconds S --trace 0|1
            [--corrupt] [--nldl PATH]

   The last line of standard output is one JSON object with the keys
   correct, attempted, failed and metrics.  With --trace 0 the metrics
   are the end-to-end ones; with --trace 1 they are the per-layer ones,
   every name BENCHMARK.json lists (0 for a layer the workload never
   calls), and the spans are written to .perfbench/.  A human-readable
   report, including the attribution of the traced run, goes to
   standard error.  --corrupt flips one byte of one answer before the
   oracle sees it: the self-test that failures are counted. *)

open Common

let usage () =
  prerr_endline
    "usage: main.exe --workload serve_hot|mrsim_faults|paper_sweep --seed N \
     --seconds S --trace 0|1 [--corrupt] [--nldl PATH]";
  exit 2

type args = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  corrupt : bool;
  nldl : string;
}

let parse_args () =
  let a =
    ref
      {
        workload = "";
        seed = 1;
        seconds = 10.;
        trace = false;
        corrupt = false;
        nldl = "_build/default/bin/nldl.exe";
      }
  in
  let rec go = function
    | "--workload" :: v :: rest ->
        a := { !a with workload = v };
        go rest
    | "--seed" :: v :: rest ->
        a := { !a with seed = int_of_string v };
        go rest
    | "--seconds" :: v :: rest ->
        a := { !a with seconds = float_of_string v };
        go rest
    | "--trace" :: v :: rest ->
        a := { !a with trace = v = "1" };
        go rest
    | "--corrupt" :: rest ->
        a := { !a with corrupt = true };
        go rest
    | "--nldl" :: v :: rest ->
        a := { !a with nldl = v };
        go rest
    | [] -> ()
    | _ -> usage ()
  in
  (try go (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  if !a.seconds <= 0. then usage ();
  !a

(* Metric names and units declared in BENCHMARK.json: the one list the
   output must match. *)
let declared section =
  let text = In_channel.with_open_bin "BENCHMARK.json" In_channel.input_all in
  match Obs.Json.of_string text with
  | Ok j -> (
      match Obs.Json.member section j with
      | Some (Obs.Json.List l) ->
          List.map
            (fun m ->
              match (Obs.Json.member "name" m, Obs.Json.member "unit" m) with
              | Some (Obs.Json.String n), Some (Obs.Json.String u) -> (n, u)
              | _ -> failwith ("BENCHMARK.json: malformed entry in " ^ section))
            l
      | _ -> failwith ("BENCHMARK.json: no " ^ section))
  | Error e -> failwith ("BENCHMARK.json: " ^ e)

let json_number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let print_result ~correct (r : result) metrics =
  let body =
    String.concat ","
      (List.map
         (fun m -> Printf.sprintf "%S:{\"value\":%s,\"unit\":%S}" m.name (json_number m.value) m.unit_)
         metrics)
  in
  Printf.printf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}\n%!" correct
    r.attempted r.failed body

(* Every declared metric, in declaration order; a layer the workload
   never calls reads 0.  A metric the workload emits but BENCHMARK.json
   does not declare is a bug in the benchmark. *)
let complete ~section (emitted : metric list) =
  let decl = declared section in
  List.iter
    (fun m ->
      match List.assoc_opt m.name decl with
      | Some u when u = m.unit_ -> ()
      | Some u -> failwith (Printf.sprintf "metric %s: unit %s, declared %s" m.name m.unit_ u)
      | None -> failwith (Printf.sprintf "metric %s is not declared in %s" m.name section))
    emitted;
  List.map
    (fun (n, u) ->
      match List.find_opt (fun m -> m.name = n) emitted with
      | Some m -> m
      | None -> metric n u 0.)
    decl

(* Layer self times as a share of the end-to-end time they sit under
   (the coverage metric), flagged below 90%. *)
let attribution workload (r : result) (layers : metric list) =
  let get n = List.find_opt (fun m -> m.name = n) layers in
  prerr_endline ("attribution (" ^ workload ^ "), self time as a share of end-to-end time:");
  List.iter (fun (n, share) -> Printf.eprintf "  %-44s %6.1f%%\n" n (100. *. share)) r.shares;
  prerr_endline ("per-layer metrics (" ^ workload ^ "), layers it calls:");
  List.iter
    (fun m -> if m.value <> 0. then Printf.eprintf "  %-44s %14.4f %s\n" m.name m.value m.unit_)
    layers;
  (match get "trace.coverage_frac" with
  | Some m ->
      Printf.eprintf "  layers timed on their own cover %.1f%% of the time they are set against%s\n"
        (100. *. m.value)
        (if m.value < 0.9 then "  FLAG: below 90%" else "")
  | None -> ());
  match get "trace.overhead_frac" with
  | Some m -> Printf.eprintf "  trace.overhead_frac %.4f\n%!" m.value
  | None -> ()

(* End-to-end values scaled to the reference host speed (see
   [Common.cal_ref_ns]): times by reference over measured kernel time,
   rates by its inverse; memory as measured. *)
let at_reference_speed cal m =
  match m.unit_ with
  | "s" | "us" -> { m with value = m.value *. cal_ref_ns /. cal }
  | "1/s" -> { m with value = m.value *. cal /. cal_ref_ns }
  | _ -> m

let () =
  (* Terminated from outside, still run [at_exit]: it stops the daemon. *)
  List.iter (fun sg -> Sys.set_signal sg (Sys.Signal_handle (fun _ -> exit 130))) [ Sys.sigterm; Sys.sigint ];
  let a = parse_args () in
  let r =
    match a.workload with
    | "serve_hot" ->
        Serve_wl.run ~nldl:a.nldl ~seed:a.seed ~seconds:a.seconds ~trace:a.trace ~corrupt:a.corrupt
    | "mrsim_faults" -> Mrsim_wl.run ~seed:a.seed ~seconds:a.seconds ~trace:a.trace ~corrupt:a.corrupt
    | "paper_sweep" -> Paper_wl.run ~seed:a.seed ~seconds:a.seconds ~trace:a.trace ~corrupt:a.corrupt
    | _ -> usage ()
  in
  List.iter prerr_endline r.report;
  let error_frac = float_of_int r.failed /. float_of_int (max 1 r.attempted) in
  Printf.eprintf "%s: attempted %d, failed %d, error_frac %.6f\n%!" a.workload r.attempted r.failed
    error_frac;
  let metrics =
    if a.trace then begin
      ensure_scratch_dir ();
      Span.write
        (Filename.concat scratch_dir (Printf.sprintf "trace-%s-%d.json" a.workload a.seed));
      let layers =
        complete ~section:"per_layer" (metric "host.calibration_ms" "ms" (cal_median () /. 1e6) :: r.layers)
      in
      attribution a.workload r layers;
      layers
    end
    else begin
      let cal = cal_median () in
      Printf.eprintf "%s: calibration kernel median %.3f ms (reference %.3f ms, %s); as measured:%s\n%!"
        a.workload (cal /. 1e6) (cal_ref_ns /. 1e6)
        (if r.scaled = [] then "context only" else String.concat ", " r.scaled ^ " scaled to it")
        (String.concat "" (List.map (fun m -> Printf.sprintf " %s %.6g %s;" m.name m.value m.unit_) r.e2e));
      complete ~section:"end_to_end"
        (List.map (fun m -> if List.mem m.name r.scaled then at_reference_speed cal m else m) r.e2e)
    end
  in
  print_result ~correct:(r.checks_ok && r.failed = 0) r metrics
