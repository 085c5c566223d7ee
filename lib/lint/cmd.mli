(** Cmdliner surface shared by the standalone [nldl_lint] executable
    and the [nldl lint] subcommand. *)

type outcome = {
  header : string list;
  rows : string list list;  (** one row per finding *)
  out_json : Obs.Json.t;
  status : int;  (** 0 = gate passed, 1 = findings *)
}

val thunk_term : (unit -> outcome) Cmdliner.Term.t
(** Parses [DIR...] positionals plus [--root], [--json FILE],
    [--graph-json FILE] and [--rules]; running the thunk lints, prints
    the human report (or the rule catalog for [--rules]), writes the
    JSON artifacts if asked, and returns the outcome. *)

val embedded_term : (unit -> outcome) Cmdliner.Term.t
(** Same as {!thunk_term} but the findings artifact flag is
    [--lint-json], leaving [--json] to the wrapping
    [Experiments.Registry] command. *)

val command : int Cmdliner.Cmd.t
(** The standalone command; evaluate with [Cmd.eval'] so the exit code
    carries the gate result. *)
