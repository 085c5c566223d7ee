(** The two-phase lint pipeline.

    Phase 1 parses every unit through {!Source} and runs the per-file
    rule registry ({!Rules.all} under {!Rules.scoping}, plus the
    driver-side U102/U103/X001/E000 checks), producing findings and a
    {!Callgraph.fragment} per file.  Phase 2 links all fragments into
    the whole-program {!Callgraph}, computes the parallel {!Escape} set
    and evaluates the interprocedural rules R401/R402/R403
    ({!Interproc}).  H304 (missing [.mli]) runs on the collected file
    list.  Every run is cold: the whole tree lints in a fraction of a
    second, and [dune build \@lint] already skips unchanged trees. *)

val default_roots : string list
(** [lib bin bench test examples] — the tree [dune build \@lint] gates. *)

val lint_string : file:string -> string -> Finding.t list
(** Lint one compilation unit given as a string; [file] is the
    repo-relative path used for scoping (a path under [lib/kernels/]
    enables the kernel rules, [.mli] suffix parses as an interface).
    Runs both phases on the singleton tree. *)

val lint_strings : (string * string) list -> Finding.t list
(** Lint a multi-file fixture tree ([(file, source)] pairs) through both
    phases — cross-module escape and resolution included.  The
    interprocedural test fixture entry point. *)

val analyze_strings :
  (string * string) list -> Callgraph.t * Escape.t * Finding.t list
(** Like {!lint_strings} but also exposing the graph and escape set for
    resolution / fixpoint assertions. *)

type result = {
  files : int;
  findings : Finding.t list;  (** all findings, sorted *)
  graph : Callgraph.t;  (** whole-program call graph (phase 2) *)
  escape : Escape.t;
}

val run : ?root:string -> ?roots:string list -> unit -> result
(** Walk [roots] (default {!default_roots}) under [root] (default
    ["."]), skipping [_build] and dot-directories, and lint every
    [.ml]/[.mli] through both phases. *)

val gate_ok : result -> bool
(** No findings: the CI gate.  A deliberate exception is suppressed in
    the source with [[\@nldl.allow "RULE"]], next to the code it
    excuses. *)

val graph_json : result -> Obs.Json.t
(** The [lint_graph.json] artifact ({!Interproc.graph_json}). *)

val render : result -> string
(** Human report: one compiler-style line per finding and a one-line
    summary. *)

val json : result -> Obs.Json.t
(** The [lint_findings.json] artifact: totals plus every finding. *)
