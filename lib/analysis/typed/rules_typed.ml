(* The interprocedural rules of the typed pass.

   T001  parallel tasks must not touch unsynchronized module state
   T002  cache keys / experiment cells / retier entry points must be
         transitively deterministic
   T003  polymorphic =, <> or compare instantiated at a float type

   T001/T002 read the fixpoint summaries from {!Summarize}; T003 is a
   shallow walk over each typed tree (it needs instantiated types,
   not the call graph). *)

type config = {
  pool_sinks : string list;
      (* application heads whose function argument runs on the pool *)
  safe_type_heads : string list;
      (* type constructors exempt from the module-mutable scan *)
  trusted_prefixes : string list;
      (* callees whose Nondet atoms stop at the call boundary *)
  sanitizers : string list;  (* callees that strip hash-order nondeterminism *)
  mut_whitelist : string list;
      (* mutable paths that are internally synchronized *)
  t002_roots : string list;  (* exact node ids that must be deterministic *)
  t002_root_prefixes : string list;  (* id prefixes, e.g. "Serve.Retier." *)
  float_exempt : string list;  (* source prefixes exempt from T003 *)
}

let default =
  {
    pool_sinks = [ "Engine.Pool.map"; "Engine.Pool.map_list" ];
    safe_type_heads = [ "Mutex.t"; "Atomic.t"; "Engine.Cache.t" ];
    (* "Engine." deliberately spans the whole execution layer, including
       the Engine.Transport scheduler and the Engine.Remote TCP backend:
       their select loops and retry state are internally synchronized,
       so their Nondet atoms stop at the call boundary. *)
    trusted_prefixes = [ "Engine."; "Tiered.Runner." ];
    sanitizers =
      [
        "Tbl.sorted_bindings"; "Tbl.fold_sorted"; "Tbl.iter_sorted";
        "Tbl.sorted_keys";
      ];
    mut_whitelist = [ "Engine." ];
    t002_roots =
      [
        "Tiered.Experiment.workload"; "Tiered.Experiment.dataset";
        "Tiered.Experiment.market"; "Tiered.Experiment.context";
        "Tiered.Experiment.run_cells";
      ];
    t002_root_prefixes = [ "Serve.Retier." ];
    float_exempt = [ "lib/numerics/" ];
  }

let starts_with prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let render_chain hops =
  String.concat " -> "
    (List.map (fun (id, line) -> Printf.sprintf "%s:%d" id line) hops)

(* --- T001: data races through the pool ------------------------------------ *)

let t001 t (g : Callgraph.graph) =
  let findings = ref [] in
  List.iter
    (fun (n : Callgraph.node) ->
      List.iter
        (fun (s : Callgraph.submission) ->
          let target =
            match s.s_target with
            | Callgraph.Closure id -> Some id
            | Callgraph.Named p -> Summarize.resolve t ~scope:n.n_id p
          in
          match target with
          | None -> ()  (* opaque function value: nothing to look up *)
          | Some id ->
              let sum = Summarize.summary t id in
              let reported_writes = ref [] in
              Effects.Set.iter
                (fun a ->
                  match a with
                  | Effects.Mut_write p ->
                      reported_writes := p :: !reported_writes;
                      findings :=
                        Analysis.Finding.v ~rule:"T001" ~file:n.n_file
                          ~line:s.s_line ~col:s.s_col
                          (Printf.sprintf
                             "task submitted to the pool writes module-level \
                              mutable `%s` without a lock (%s)"
                             p
                             (render_chain (Summarize.chain t id a)))
                        :: !findings
                  | _ -> ())
                sum;
              Effects.Set.iter
                (fun a ->
                  match a with
                  | Effects.Mut_read p
                    when (not (List.mem p !reported_writes))
                         && Summarize.written_unguarded t p ->
                      findings :=
                        Analysis.Finding.v ~rule:"T001" ~file:n.n_file
                          ~line:s.s_line ~col:s.s_col
                          (Printf.sprintf
                             "task submitted to the pool reads module-level \
                              mutable `%s`, which is written elsewhere \
                              without a lock (%s)"
                             p
                             (render_chain (Summarize.chain t id a)))
                        :: !findings
                  | _ -> ())
                sum)
        n.n_subs)
    g.nodes;
  List.rev !findings

(* --- T002: determinism taint ---------------------------------------------- *)

let t002 cfg t (g : Callgraph.graph) =
  let is_root id =
    List.mem id cfg.t002_roots
    || List.exists (fun p -> starts_with p id) cfg.t002_root_prefixes
  in
  let findings = ref [] in
  List.iter
    (fun (n : Callgraph.node) ->
      if is_root n.n_id then
        Effects.Set.iter
          (fun a ->
            if Effects.is_nondet a then
              findings :=
                Analysis.Finding.v ~rule:"T002" ~file:n.n_file ~line:n.n_line
                  ~col:n.n_col
                  (Printf.sprintf
                     "`%s` feeds cache keys or serve decisions but %s (%s)"
                     n.n_id (Effects.describe a)
                     (render_chain (Summarize.chain t n.n_id a)))
                :: !findings)
          (Summarize.summary t n.n_id))
    g.nodes;
  List.rev !findings

(* --- T003: float equality / compare --------------------------------------- *)

let polymorphic_cmp_heads = [ "="; "<>"; "compare" ]

let rec mentions_float fuel (ty : Types.type_expr) =
  fuel > 0
  &&
  match Types.get_desc ty with
  | Types.Tconstr (p, args, _) ->
      Path.same p Predef.path_float
      || List.exists (mentions_float (fuel - 1)) args
  | Types.Ttuple ts -> List.exists (mentions_float (fuel - 1)) ts
  | Types.Tarrow (_, a, b, _) ->
      mentions_float (fuel - 1) a || mentions_float (fuel - 1) b
  | _ -> false

(* Comparing against a bare constant constructor (None, []) only
   inspects the tag — no float payload is ever dereferenced — so
   `opt = None` on a float-carrying option is exempt. *)
let is_constant_construct (e : Typedtree.expression) =
  match e.exp_desc with
  | Texp_construct (_, cd, []) -> cd.Types.cstr_arity = 0
  | _ -> false

let t003 cfg (units : Cmt_load.unit_info list) =
  let findings = ref [] in
  List.iter
    (fun (u : Cmt_load.unit_info) ->
      if not (List.exists (fun p -> starts_with p u.ui_source) cfg.float_exempt)
      then begin
        let exempt = Hashtbl.create 8 in
        let visit sub (e : Typedtree.expression) =
          (match e.exp_desc with
          | Texp_apply (head, args) -> (
              match head.exp_desc with
              | Texp_ident (p, _, _)
                when List.mem (Callgraph.canonical_path p)
                       polymorphic_cmp_heads
                     && List.exists
                          (fun (_, a) ->
                            match a with
                            | Some arg -> is_constant_construct arg
                            | None -> false)
                          args ->
                  Hashtbl.replace exempt head.exp_loc ()
              | _ -> ())
          | Texp_ident (p, _, _)
            when List.mem (Callgraph.canonical_path p) polymorphic_cmp_heads
                 && mentions_float 8 e.exp_type
                 && not (Hashtbl.mem exempt e.exp_loc) ->
              let line = e.exp_loc.loc_start.pos_lnum in
              let col =
                e.exp_loc.loc_start.pos_cnum - e.exp_loc.loc_start.pos_bol
              in
              findings :=
                Analysis.Finding.v ~rule:"T003" ~file:u.ui_source ~line ~col
                  (Printf.sprintf
                     "polymorphic `%s` used at a float-involving type; use \
                      an explicit tolerance or Float.compare (floats under \
                      `=` break on nan and on accumulated rounding)"
                     (Callgraph.canonical_path p))
                :: !findings
          | _ -> ());
          Tast_iterator.default_iterator.expr sub e
        in
        let it = { Tast_iterator.default_iterator with expr = visit } in
        it.structure it u.ui_structure
      end)
    units;
  List.rev !findings

let run cfg t (g : Callgraph.graph) (units : Cmt_load.unit_info list) =
  t001 t g @ t002 cfg t g @ t003 cfg units
