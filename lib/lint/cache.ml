(* Digest-keyed per-file analysis cache.

   Phase 1 of the lint pipeline (parse + per-file rules + fragment
   extraction) dominates lint wall-clock; its output depends only on the
   file's path and content, so it is cached on disk keyed by
   [Source.digest].  Phase 2 (graph + R401-403) is whole-program and
   always recomputed — it is linear and cheap.

   Entries are [Marshal]ed, which is not layout-safe across binaries, so
   the cache directory is namespaced by a format version *and* a stamp
   of the running executable (size + mtime): rebuilding the linter — the
   only way rule semantics can change — invalidates everything, and two
   different binaries (e.g. the CLI and the test runner) never share
   entries.  Any read failure is treated as a miss. *)

let format_version = 2

type payload = {
  p_findings : Finding.t list;  (* per-file (phase 1) findings *)
  p_fragment : Callgraph.fragment;
}

let binary_stamp =
  lazy
    (try
       let st = Unix.stat Sys.executable_name in
       Printf.sprintf "%d-%.0f" st.Unix.st_size st.Unix.st_mtime
     with _ -> "nostat")

let default_dir () =
  let tmp = Filename.get_temp_dir_name () in
  let tag =
    Digest.to_hex
      (Digest.string
         (Printf.sprintf "nldl-lint-v%d-%s" format_version
            (Lazy.force binary_stamp)))
  in
  Filename.concat tmp ("nldl-lint-cache-" ^ String.sub tag 0 16)

let ensure_dir dir =
  try
    if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
    true
  with _ -> Sys.file_exists dir

let entry_path dir digest = Filename.concat dir (digest ^ ".bin")

let load ~dir ~digest =
  let path = entry_path dir digest in
  if not (Sys.file_exists path) then None
  else
    try
      let ic = open_in_bin path in
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let v = (Marshal.from_channel ic : payload) in
          Some v)
    with _ -> None

let store ~dir ~digest payload =
  if ensure_dir dir then
    try
      let path = entry_path dir digest in
      let tmp =
        Printf.sprintf "%s.%d.tmp" path (Unix.getpid ())
      in
      let oc = open_out_bin tmp in
      Fun.protect
        ~finally:(fun () -> close_out_noerr oc)
        (fun () -> Marshal.to_channel oc payload []);
      Sys.rename tmp path
    with _ -> ()
