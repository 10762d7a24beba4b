let capture_in ctx market strategy ~n_bundles =
  let bundles = Strategy.apply strategy market ~n_bundles in
  Capture.value ctx (Pricing.evaluate market bundles).Pricing.profit

let capture_at market strategy ~n_bundles =
  capture_in (Capture.context market) market strategy ~n_bundles

let envelope ~markets ~strategy ~bundle_counts ~mode =
  if markets = [] then invalid_arg "Sensitivity.envelope: no markets";
  let pick = match mode with `Min -> Float.min | `Max -> Float.max in
  let start = match mode with `Min -> infinity | `Max -> neg_infinity in
  (* The capture context does not depend on the bundle count: one per
     market, not one per (market, bundle count). *)
  let contexts = List.map (fun market -> (market, Capture.context market)) markets in
  List.map
    (fun n_bundles ->
      let worst =
        List.fold_left
          (fun acc (market, ctx) ->
            pick acc (capture_in ctx market strategy ~n_bundles))
          start contexts
      in
      (n_bundles, worst))
    bundle_counts

let alpha_range ?(steps = 8) ~lo ~hi () =
  if not (lo > 0. && hi > lo) then invalid_arg "Sensitivity.alpha_range: need 0 < lo < hi";
  if steps < 2 then invalid_arg "Sensitivity.alpha_range: need at least 2 steps";
  let ratio = (hi /. lo) ** (1. /. float_of_int (steps - 1)) in
  List.init steps (fun i -> lo *. (ratio ** float_of_int i))

let linear_range ?(steps = 8) ~lo ~hi () =
  if not (hi > lo) then invalid_arg "Sensitivity.linear_range: need lo < hi";
  if steps < 2 then invalid_arg "Sensitivity.linear_range: need at least 2 steps";
  let step = (hi -. lo) /. float_of_int (steps - 1) in
  List.init steps (fun i -> lo +. (step *. float_of_int i))
