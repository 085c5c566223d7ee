open Cmdliner

type outcome = {
  header : string list;
  rows : string list list;
  out_json : Obs.Json.t;
  status : int;
}

let dirs =
  Arg.(
    value & pos_all string Driver.default_roots
    & info [] ~docv:"DIR"
        ~doc:
          (Printf.sprintf "Directories to lint (default: %s)."
             (String.concat " " Driver.default_roots)))

let root =
  Arg.(
    value & opt string "."
    & info [ "root" ] ~docv:"DIR"
        ~doc:"Repository root; DIRs are resolved against it.")

let json_out ~name =
  Arg.(
    value
    & opt (some string) None
    & info [ name ] ~docv:"FILE"
        ~doc:"Write the findings as JSON to $(docv) (\"-\" = stdout).")

let graph_json_out =
  Arg.(
    value
    & opt (some string) None
    & info [ "graph-json" ] ~docv:"FILE"
        ~doc:
          "Write the call-graph/escape-set artifact to $(docv) (\"-\" = \
           stdout).")

let rules_flag =
  Arg.(value & flag & info [ "rules" ] ~doc:"List the rule catalog and exit.")

let print_rules () =
  List.iter
    (fun (id, synopsis) -> Printf.printf "%-5s %s\n" id synopsis)
    Rules.catalog

let execute root dirs json_out graph_json_out rules () =
  if rules then begin
    print_rules ();
    { header = [ "rule"; "synopsis" ]; rows = []; out_json = Obs.Json.Null; status = 0 }
  end
  else begin
    let r = Driver.run ~root ~roots:dirs () in
    print_string (Driver.render r);
    let j = Driver.json r in
    (match json_out with
    | None -> ()
    | Some "-" -> print_string (Obs.Json.to_string j)
    | Some path ->
        Obs.Json.write_file path j;
        Printf.eprintf "Lint findings written to %s\n%!" path);
    (match graph_json_out with
    | None -> ()
    | Some "-" -> print_string (Obs.Json.to_string (Driver.graph_json r))
    | Some path ->
        Obs.Json.write_file path (Driver.graph_json r);
        Printf.eprintf "Call graph written to %s\n%!" path);
    {
      header = [ "rule"; "file"; "line"; "col"; "message" ];
      rows =
        List.map
          (fun (f : Finding.t) ->
            [ f.rule; f.file; string_of_int f.line; string_of_int f.col; f.message ])
          r.findings;
      out_json = j;
      status = (if Driver.gate_ok r then 0 else 1);
    }
  end

let make_thunk_term ~json_flag =
  Term.(
    const execute $ root $ dirs $ json_out ~name:json_flag $ graph_json_out
    $ rules_flag)

let thunk_term = make_thunk_term ~json_flag:"json"

(* The Experiments.Registry wrapper already owns [--json] (series dump),
   so the embedded [nldl lint] subcommand exposes the artifact under a
   distinct name. *)
let embedded_term = make_thunk_term ~json_flag:"lint-json"

let command =
  let doc = "Static invariant checker for the nldl tree (D/U/S/H/R rules)" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Parses every .ml/.mli under the given directories with compiler-libs \
         and enforces the project invariants: determinism (D-rules), audited \
         unsafe zones (U-rules), domain safety of pool-executed libraries \
         (S-rules), hygiene (H-rules), and the interprocedural race / \
         proof-obligation / blocking-call rules (R-rules) over a whole-program \
         call graph.  Exits 1 on any finding.";
    ]
  in
  Cmd.v
    (Cmd.info "nldl_lint" ~doc ~man)
    Term.(const (fun thunk -> (thunk ()).status) $ thunk_term)
