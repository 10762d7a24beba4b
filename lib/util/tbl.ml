(* Deterministic hash-table traversal: the one place in the tree where
   a raw unordered traversal is allowed, because the stable sort below
   erases the bucket order before anything escapes. *)

(* lint: allow D005 — the deliberately polymorphic default comparator; callers with float-bearing keys pass ~compare. *)
let default_compare : 'a -> 'a -> int = Stdlib.compare

let sorted_bindings ?compare:(cmp = default_compare) tbl =
  (* lint: allow D002 — this helper IS the blessed sorted traversal; the stable sort erases hash order. *)
  let bindings = Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] in
  (* [Hashtbl.fold] visits same-key bindings most-recent-first (that
     much the stdlib does specify); a *stable* sort on the key alone
     keeps that relative order while making the inter-key order a pure
     function of the keys. *)
  List.stable_sort (fun (ka, _) (kb, _) -> cmp ka kb) bindings

let fold_sorted ?compare:cmp f tbl init =
  List.fold_left
    (fun acc (k, v) -> f k v acc)
    init
    (sorted_bindings ?compare:cmp tbl)

let iter_sorted ?compare:cmp f tbl =
  List.iter (fun (k, v) -> f k v) (sorted_bindings ?compare:cmp tbl)

let sorted_keys ?compare:(cmp = default_compare) tbl =
  let keys = List.map fst (sorted_bindings ~compare:cmp tbl) in
  (* Distinct: drop the shadowed duplicates that follow their most
     recent binding. *)
  let rec dedup = function
    | a :: (b :: _ as rest) when cmp a b = 0 -> dedup rest
    | a :: rest -> a :: dedup rest
    | [] -> []
  in
  dedup keys

let hash_ints a b =
  let h = (a * 0x1F3D5B79_9E3779B1) lxor (b * 0x2545F491_4F6CDD1D) in
  (h lxor (h lsr 29)) land max_int
