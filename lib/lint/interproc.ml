(* Interprocedural rules R401/R402/R403, evaluated in phase 2 over the
   whole-program call graph and escape set.

   Finding messages deliberately avoid line numbers: the finding's own
   position carries the line, and a message that names the target and
   its provenance reads the same after unrelated line moves, exactly
   like the per-file rules. *)

let fmt = Printf.sprintf

(* A mutation target counts as module-level state iff its identifier
   path resolves to some top-level binding that is not syntactically a
   function (same file for bare names, dotted-suffix match otherwise).
   Writes to locals and parameters resolve to nothing and are ignored;
   a local ref shadowing a same-named top-level *function* (a common
   accessor pattern) resolves only to lambdas and is ignored too. *)
let module_level g frag_idx (m : Callgraph.mutation) =
  List.exists
    (fun id ->
      let _, d = Callgraph.def_of g id in
      not d.Callgraph.d_is_func)
    (Callgraph.resolve g frag_idx m.m_path)

let provenance esc id (site : Callgraph.site) =
  match site.s_direct with
  | Some prim -> fmt "inside closure passed to %s" prim
  | None -> Escape.describe esc id

let check_node g esc id acc =
  let node = Callgraph.node g id in
  let frag, def = Callgraph.def_of g id in
  let escaping = Escape.escapes esc id in
  List.fold_left
    (fun acc (site : Callgraph.site) ->
      if site.s_allowed then acc
      else
        let emit rule message =
          Finding.make ~rule ~file:node.Callgraph.n_file
            ~line:site.s_pos.Callgraph.line ~col:site.s_pos.Callgraph.col
            ~message
          :: acc
        in
        let in_parallel = escaping || site.s_direct <> None in
        match site.s_kind with
        | Mutation m ->
            if
              in_parallel && (not m.m_protected)
              && (not frag.Callgraph.f_domain_safe)
              && module_level g node.Callgraph.n_frag m
            then
              emit "R401"
                (fmt
                   "unprotected write (%s) to module-level state '%s' in \
                    '%s', %s; wrap in Mutex.protect, use Atomic/Domain.DLS, \
                    or audit the file with [@@@nldl.domain_safe \"mechanism\"]"
                   m.m_op m.m_target
                   (String.concat "." def.Callgraph.d_path)
                   (provenance esc id site))
            else acc
        | Blocking prim ->
            (* A [@@@nldl.domain_safe] audit names the file's locking
               mechanism, which covers its own short-critical-section
               Mutex.lock / Condition.wait; real syscalls still fire. *)
            let audited =
              frag.Callgraph.f_domain_safe
              && (prim = "Mutex.lock" || prim = "Condition.wait")
            in
            if in_parallel && not audited then
              emit "R403"
                (fmt
                   "blocking call %s in '%s', %s; blocking a pool domain \
                    stalls every queued task (use Mutex.protect or move the \
                    wait off the pool)"
                   prim
                   (String.concat "." def.Callgraph.d_path)
                   (provenance esc id site))
            else acc
        | Unsafe u ->
            if not frag.Callgraph.f_unsafe_zone then acc
              (* outside a zone U101 already rejects the call per file *)
            else (
              match u.u_validated_by with
              | Some target ->
                  if Callgraph.resolve_name g ~file:frag.Callgraph.f_file target = []
                  then
                    emit "R402"
                      (fmt
                         "stale [@nldl.bounds_validated \"%s\"] on %s in \
                          '%s': no such definition; point it at the \
                          validating function"
                         target u.u_callee
                         (String.concat "." def.Callgraph.d_path))
                  else acc
              | None ->
                  let checked v =
                    List.mem v u.u_forvars
                    || List.mem v def.Callgraph.d_guards
                  in
                  if List.for_all checked u.u_vars then acc
                  else
                    emit "R402"
                      (fmt
                         "%s in '%s' indexes [%s] with no dominating \
                          bounds/length check on [%s]; add the check or \
                          annotate with [@nldl.bounds_validated \"site\"]"
                         u.u_callee
                         (String.concat "." def.Callgraph.d_path)
                         (String.concat "; " u.u_vars)
                         (String.concat "; "
                            (List.filter (fun v -> not (checked v)) u.u_vars)))))
    acc def.Callgraph.d_sites

let findings g esc =
  let acc = ref [] in
  for id = 0 to Callgraph.node_count g - 1 do
    acc := check_node g esc id !acc
  done;
  List.sort Finding.compare !acc

(* --- call-graph artifact (--graph-json) --------------------------------- *)

let graph_json g esc =
  let open Obs.Json in
  let nodes = ref [] in
  let edge_count = ref 0 in
  for id = Callgraph.node_count g - 1 downto 0 do
    let node = Callgraph.node g id in
    let succs = Callgraph.succs g id in
    edge_count := !edge_count + List.length succs;
    let fields =
      [
        ("id", Int id);
        ("path", String (String.concat "." node.Callgraph.n_path));
        ("file", String node.Callgraph.n_file);
        ("line", Int node.Callgraph.n_pos.Callgraph.line);
        ("escaping", Bool (Escape.escapes esc id));
        ("succs", List (List.map (fun s -> Int s) succs));
      ]
    in
    let fields =
      match Escape.witness esc id with
      | Some w ->
          fields
          @ [
              ("escape_prim", String w.Escape.w_prim);
              ("escape_root", String w.Escape.w_root);
            ]
      | None -> fields
    in
    nodes := Obj fields :: !nodes
  done;
  let parallel_sites =
    List.concat_map
      (fun (f : Callgraph.fragment) ->
        List.map
          (fun ((p : Callgraph.pos), prim) ->
            Obj
              [
                ("file", String f.Callgraph.f_file);
                ("line", Int p.Callgraph.line);
                ("prim", String prim);
              ])
          f.Callgraph.f_parallel_sites)
      (Callgraph.fragments g)
  in
  Obj
    [
      ( "summary",
        Obj
          [
            ("nodes", Int (Callgraph.node_count g));
            ("edges", Int !edge_count);
            ("escaping", Int (Escape.count esc));
            ("roots", Int (List.length (Callgraph.roots g)));
            ("parallel_sites", Int (List.length parallel_sites));
          ] );
      ("nodes", List !nodes);
      ( "roots",
        List
          (List.map
             (fun (id, prim) ->
               Obj [ ("node", Int id); ("prim", String prim) ])
             (Callgraph.roots g)) );
      ("parallel_sites", List parallel_sites);
    ]
