(** Interprocedural rules (phase 2 of the lint pipeline).

    - {b R401} — race detector: an unprotected write ([:=], [incr],
      mutable-field [<-], [Array]/[Bytes]/[Bigarray]/[Fbuf] store) whose
      target resolves to module-level state, performed by code that
      escapes to a pool domain, in a file with no
      [[\@\@\@nldl.domain_safe]] audit.
    - {b R402} — unsafe-zone proof obligations: every [*.unsafe_*] call
      in a zone must have its index variables covered by an enclosing
      for-loop or a bounds/length guard in the same top-level function,
      or carry [[\@nldl.bounds_validated "site"]] naming a definition
      that exists (a stale pointer is itself a finding).
    - {b R403} — no blocking syscalls ([Unix.sleep*], blocking reads,
      bare [Mutex.lock], [Condition.wait]) in pool-escaping code.

    All three honour [[\@nldl.allow "R40x"]] at the site, binding or
    file level, evaluated during extraction. *)

val findings : Callgraph.t -> Escape.t -> Finding.t list
(** Sorted by file/line; messages name the target and its provenance,
    never a line number. *)

val graph_json : Callgraph.t -> Escape.t -> Obs.Json.t
(** The [--graph-json] artifact: nodes (with escape provenance), edges,
    roots and parallel call sites. *)
