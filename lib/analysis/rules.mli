(** The project-specific rule catalog for [tiered-lint].

    Determinism rules (D…) protect the engine's headline guarantee —
    byte-identical experiment output at any jobs count and backend;
    hygiene rules (H…) keep the failure modes that already bit us
    (stray stdout writes from library code, unflagged Marshal)
    from recurring.  Rules are scoped by path: most apply only under
    [lib/], with explicit whitelists for the engine's timing and
    process-control sites. *)

type meta = {
  id : string;
  title : string;
  rationale : string;
}

val catalog : meta list
(** Every rule the checker can emit, including the scanner's own
    S001 (malformed suppression) and E001 (unparseable source). *)

val known : string -> bool
(** Is this a rule id from the catalog? *)

val check_structure : file:string -> Parsetree.structure -> Finding.t list
(** Run all AST rules over one implementation.  [file] must be the
    path relative to the repo root with '/' separators — rule scoping
    (lib/-only rules, engine whitelists) keys off it. *)

val missing_interfaces : files:string list -> Finding.t list
(** Rule H003: every [lib/] module must have a paired [.mli].  [files]
    is the full relative-path list of one scan. *)
