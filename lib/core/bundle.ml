type t = int array array

let validate ~n_flows groups =
  let seen = Array.make n_flows false in
  Array.iter
    (fun group ->
      Array.iter
        (fun i ->
          if i < 0 || i >= n_flows then invalid_arg "Bundle: flow index out of range";
          if seen.(i) then invalid_arg "Bundle: duplicate flow index";
          seen.(i) <- true)
        group)
    groups;
  if not (Array.for_all Fun.id seen) then invalid_arg "Bundle: flows left unassigned"

let of_groups ~n_flows groups =
  let groups =
    groups
    |> List.filter (fun g -> g <> [])
    |> List.map Array.of_list
    |> Array.of_list
  in
  validate ~n_flows groups;
  groups

let all_in_one ~n_flows =
  if n_flows <= 0 then invalid_arg "Bundle.all_in_one: no flows";
  [| Array.init n_flows Fun.id |]

let singletons ~n_flows =
  if n_flows <= 0 then invalid_arg "Bundle.singletons: no flows";
  Array.init n_flows (fun i -> [| i |])

let of_assignment ~n_bundles assignment =
  if n_bundles <= 0 then invalid_arg "Bundle.of_assignment: n_bundles <= 0";
  let buckets = Array.make n_bundles [] in
  Array.iteri
    (fun i b ->
      if b < 0 || b >= n_bundles then
        invalid_arg "Bundle.of_assignment: bundle index out of range";
      buckets.(b) <- i :: buckets.(b))
    assignment;
  let groups =
    buckets |> Array.to_list |> List.map List.rev
    |> of_groups ~n_flows:(Array.length assignment)
  in
  groups

let contiguous ~order ~cuts =
  let n = Array.length order in
  if n = 0 then invalid_arg "Bundle.contiguous: empty order";
  let rec check prev = function
    | [] -> ()
    | cut :: rest ->
        if cut <= prev || cut >= n then
          invalid_arg "Bundle.contiguous: cuts must be strictly increasing in [1, n-1]";
        check cut rest
  in
  check 0 cuts;
  let bounds = (0 :: cuts) @ [ n ] in
  let rec segments = function
    | lo :: (hi :: _ as rest) ->
        Array.sub order lo (hi - lo) :: segments rest
    | [ _ ] | [] -> []
  in
  let groups = Array.of_list (segments bounds) in
  validate ~n_flows:n groups;
  groups

let count t = Array.length t
let sizes t = Array.map Array.length t

let member_of t ~n_flows =
  let owner = Array.make n_flows (-1) in
  Array.iteri (fun b group -> Array.iter (fun i -> owner.(i) <- b) group) t;
  owner

let gather t (values : float array) =
  Array.map
    (fun group ->
      let g = Array.make (Array.length group) 0. in
      Array.iteri (fun k i -> g.(k) <- values.(i)) group;
      g)
    t

let pp ppf t =
  Format.fprintf ppf "%d bundles (sizes:" (count t);
  Array.iter (fun s -> Format.fprintf ppf " %d" s) (sizes t);
  Format.fprintf ppf ")"
