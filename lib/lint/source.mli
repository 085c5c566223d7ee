(** Reading, normalizing and parsing compilation units.

    Every file the linter touches goes through this module so the
    robustness fixes apply uniformly: UTF-8 BOMs are stripped before
    lexing (they otherwise produce a spurious E000 on the first token),
    empty files parse to an empty structure, and [.mli]-only modules are
    plain interfaces with no special casing downstream. *)

type kind = Impl | Intf

type t = {
  file : string;  (** repo-relative path, ['/'] separators *)
  kind : kind;
  content : string;  (** BOM-stripped source *)
}

val of_string : file:string -> string -> t
(** Normalize an in-memory unit ([.mli] suffix selects {!Intf}). *)

val read : root:string -> string -> t
(** [read ~root rel] loads [root/rel] in binary mode and normalizes. *)

type ast =
  | Structure of Parsetree.structure
  | Signature of Parsetree.signature
  | Parse_error of string  (** the E000 payload *)

val parse : t -> ast
(** Parse with [compiler-libs], positions rooted at [t.file]:1:0. *)
