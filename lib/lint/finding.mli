(** One lint finding: a rule id anchored to a source location.

    Findings are value types ordered by (file, line, col, rule) so
    reports are deterministic regardless of rule registration or
    file-walk order. *)

type t = {
  rule : string;  (** rule id, e.g. ["U101"] *)
  file : string;  (** repo-relative path with ['/'] separators *)
  line : int;  (** 1-based *)
  col : int;  (** 0-based *)
  message : string;
}

val make : rule:string -> file:string -> line:int -> col:int -> message:string -> t

val of_loc : rule:string -> file:string -> loc:Location.t -> message:string -> t
(** Anchor at [loc]'s start position. *)

val compare : t -> t -> int

val to_string : t -> string
(** [file:line:col: \[rule\] message] — the compiler's error format, so
    editors and CI log scrapers link it. *)

val to_json : t -> Obs.Json.t
