(* Reading and normalizing compilation units for the linter.

   All parsing funnels through here so the whole tree gets the same
   robustness fixes: a UTF-8 byte-order mark makes [Parse.implementation]
   raise on the very first token (a spurious E000 on an otherwise clean
   file), so it is stripped before lexing; empty files parse to an empty
   structure rather than being special-cased anywhere else; CRLF line
   endings are already handled by the OCaml lexer and are only covered
   by fixtures. *)

let utf8_bom = "\xef\xbb\xbf"

let strip_bom src =
  let n = String.length utf8_bom in
  if String.length src >= n && String.sub src 0 n = utf8_bom then
    String.sub src n (String.length src - n)
  else src

type kind = Impl | Intf

type t = {
  file : string;  (* repo-relative, '/'-separated *)
  kind : kind;
  content : string;  (* BOM-stripped *)
}

let kind_of_file file = if Filename.check_suffix file ".mli" then Intf else Impl

let of_string ~file src =
  { file; kind = kind_of_file file; content = strip_bom src }

let read ~root rel =
  let path = Filename.concat root rel in
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let src = really_input_string ic n in
  close_in ic;
  of_string ~file:rel src

type ast =
  | Structure of Parsetree.structure
  | Signature of Parsetree.signature
  | Parse_error of string

let parse t =
  let lexbuf = Lexing.from_string t.content in
  lexbuf.Lexing.lex_curr_p <-
    { Lexing.pos_fname = t.file; pos_lnum = 1; pos_bol = 0; pos_cnum = 0 };
  match t.kind with
  | Intf -> (
      match Parse.interface lexbuf with
      | sg -> Signature sg
      | exception e -> Parse_error (Printexc.to_string e))
  | Impl -> (
      match Parse.implementation lexbuf with
      | str -> Structure str
      | exception e -> Parse_error (Printexc.to_string e))
