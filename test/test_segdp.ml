open Tiered

(* The divide-and-conquer tier-DP kernel (DESIGN.md §11) must be
   cut-for-cut identical to the exact quadratic reference, ties
   included — the Optimal strategy, golden experiment grids, and the
   bench all lean on that equality. *)

let cuts_testable = Alcotest.(list int)

let check_same name (fast : Numerics.Segdp.result)
    (exact : Numerics.Segdp.result) =
  Alcotest.check cuts_testable (name ^ " cuts") exact.Numerics.Segdp.cuts
    fast.Numerics.Segdp.cuts;
  Alcotest.(check int)
    (name ^ " segments")
    exact.Numerics.Segdp.segments fast.Numerics.Segdp.segments;
  (* Identical cuts imply identical (not merely close) values: both
     solvers sum the same seg_value calls over the same segments. *)
  Alcotest.(check bool)
    (name ^ " value")
    true
    (Float.equal exact.Numerics.Segdp.value fast.Numerics.Segdp.value)

let test_validation () =
  List.iter
    (fun (n, b, msg) ->
      Alcotest.check_raises
        (Printf.sprintf "n=%d b=%d" n b)
        (Invalid_argument msg)
        (fun () ->
          ignore (Numerics.Segdp.solve ~n ~n_bundles:b (fun _ _ -> 0.))))
    [
      (0, 1, "Segdp: n must be positive");
      (-2, 3, "Segdp: n must be positive");
      (1, 0, "Segdp: n_bundles must be positive");
    ]

let test_single_flow () =
  let r = Numerics.Segdp.solve ~n:1 ~n_bundles:5 (fun _ _ -> 7.5) in
  Alcotest.check cuts_testable "no cuts" [] r.Numerics.Segdp.cuts;
  Alcotest.(check int) "one segment" 1 r.Numerics.Segdp.segments;
  Alcotest.(check (float 0.)) "value" 7.5 r.Numerics.Segdp.value

let test_single_bundle () =
  (* b = 1 admits only the trivial partition. *)
  let seg i j = float_of_int ((10 * i) + j) in
  let r = Numerics.Segdp.solve ~n:6 ~n_bundles:1 seg in
  Alcotest.check cuts_testable "no cuts" [] r.Numerics.Segdp.cuts;
  Alcotest.(check (float 0.)) "value" (seg 0 5) r.Numerics.Segdp.value

let test_additive_prefers_fewest_segments () =
  (* Purely additive seg_value: every partition scores the same total, so
     the strict-[>] tie-breaks must keep the single segment. *)
  let seg i j = float_of_int (j - i + 1) in
  let r = Numerics.Segdp.solve ~n:9 ~n_bundles:4 seg in
  Alcotest.check cuts_testable "ties keep one segment" []
    r.Numerics.Segdp.cuts;
  Alcotest.(check (float 0.)) "value" 9. r.Numerics.Segdp.value

let test_known_optimum () =
  (* Concave reward for splitting at position 3: seg_value pays a bonus
     for the exact segments [0..2] and [3..5]. *)
  let seg i j = if (i = 0 && j = 2) || (i = 3 && j = 5) then 10. else 1. in
  let r = Numerics.Segdp.solve ~n:6 ~n_bundles:2 seg in
  Alcotest.check cuts_testable "splits at 3" [ 3 ] r.Numerics.Segdp.cuts;
  Alcotest.(check (float 0.)) "value" 20. r.Numerics.Segdp.value;
  check_same "known optimum" r
    (Numerics.Segdp.solve_quadratic ~n:6 ~n_bundles:2 seg)

let test_forced_fallback () =
  (* Convex segment value: seg i j = (j - i)^2 violates the adjacent
     inverse-Monge condition everywhere (2 d^2 < (d-1)^2 + (d+1)^2), so
     the Monge spot-check must kick the layer off the D&C rung, and
     the quadratic backstop must still return the quadratic DP's exact
     cuts. The optimum here is a single huge segment, but intermediate
     layers are hostile. *)
  let seg i j = float_of_int ((j - i) * (j - i)) in
  let n = 40 and n_bundles = 5 in
  let fast = Numerics.Segdp.solve ~n ~n_bundles seg in
  let exact = Numerics.Segdp.solve_quadratic ~n ~n_bundles seg in
  Alcotest.(check bool)
    "spot-check tripped" true
    (fast.Numerics.Segdp.stats.Numerics.Segdp.fallback_layers >= 1);
  check_same "fallback" fast exact

let test_fallback_disabled_sampling_still_exact_on_monge () =
  (* samples = 0 disables validation; on a genuinely inverse-Monge
     matrix the D&C answer must nonetheless match exactly. Concave
     f(len): seg i j = sqrt (j - i + 1) is submodular. *)
  let seg i j = sqrt (float_of_int (j - i + 1)) in
  let fast = Numerics.Segdp.solve ~samples:0 ~n:60 ~n_bundles:6 seg in
  let exact = Numerics.Segdp.solve_quadratic ~n:60 ~n_bundles:6 seg in
  Alcotest.(check int)
    "no fallback" 0
    fast.Numerics.Segdp.stats.Numerics.Segdp.fallback_layers;
  check_same "monge" fast exact

let test_dandc_cheaper_than_quadratic () =
  (* The point of the kernel: strictly fewer seg_value evaluations than
     the quadratic reference on a well-behaved instance big enough for
     the log factor to win. *)
  let seg i j = sqrt (float_of_int (j - i + 1)) in
  let fast = Numerics.Segdp.solve ~n:400 ~n_bundles:8 seg in
  let exact = Numerics.Segdp.solve_quadratic ~n:400 ~n_bundles:8 seg in
  check_same "big monge" fast exact;
  Alcotest.(check bool)
    "fewer evaluations" true
    (fast.Numerics.Segdp.stats.Numerics.Segdp.evaluations
    < exact.Numerics.Segdp.stats.Numerics.Segdp.evaluations / 4)

(* Random-market cut equality, per demand spec (the ISSUE's headline
   property): build the same (order, seg_value) the Optimal strategy
   uses and pin solve = solve_quadratic cut-for-cut. *)

let spec_gen =
  QCheck.(
    list_of_size Gen.(3 -- 50)
      (pair (float_range 1. 120.) (float_range 1. 2500.)))

let market_of ~demand flows =
  match demand with
  | `Ced -> Fixtures.ced_market ~flows ()
  | `Logit -> Fixtures.logit_market ~flows ()
  | `Linear ->
      Market.fit ~spec:(Market.Linear { epsilon = 1.8 }) ~alpha:1.1 ~p0:20.
        ~cost_model:(Cost_model.linear ~theta:0.2) flows

let all_bundle_counts = List.init 10 (fun i -> i + 1)

let prop_cuts_equal name demand =
  QCheck.Test.make
    ~name:(Printf.sprintf "solve = solve_quadratic cuts (%s)" name)
    ~count:25 spec_gen
    (fun spec ->
      let m = market_of ~demand (Fixtures.flows_of_spec spec) in
      let _order, seg_value, regions = Strategy.dp_inputs m in
      let n = Market.n_flows m in
      List.for_all
        (fun b ->
          let fast = Numerics.Segdp.solve ~regions ~n ~n_bundles:b seg_value in
          let exact =
            Numerics.Segdp.solve_quadratic ~n ~n_bundles:b seg_value
          in
          fast.Numerics.Segdp.cuts = exact.Numerics.Segdp.cuts
          && Float.equal fast.Numerics.Segdp.value
               exact.Numerics.Segdp.value)
        all_bundle_counts)

(* Hostile logit generator: valuation offsets and costs biased toward
   the clamp/underflow boundaries where the pre-ladder kernel used to
   trip — weight underflow near alpha*dv = -745, prefix-sum absorption
   near dv = -40, exp saturation near alpha*dc = 690 — mixed with
   benign draws so region boundaries land mid-array. Offsets hang off
   a base valuation of 800 so the top flows keep a real profit scale:
   the no-backstop guarantee is about *clamped* markets, not about
   surfaces that have collapsed below one ulp wholesale (there the
   rounded dp+seg candidates can flip argmaxes at noise scale, the
   probes rightly notice, and the backstop carrying the layer is the
   ladder working as designed — cut equality still holds and is
   asserted for every draw). *)
let hostile_logit_arb =
  let open QCheck in
  let voff =
    Gen.oneof
      [
        Gen.float_range (-800.) 0.;
        Gen.float_range (-700.) (-650.);
        Gen.float_range (-45.) (-35.);
        Gen.return 0.;
      ]
  in
  let cost =
    Gen.oneof
      [
        Gen.float_range 1. 1500.;
        Gen.float_range 600. 660.;
        Gen.float_range 1. 50.;
      ]
  in
  make
    ~print:Print.(list (pair float float))
    Gen.(list_size (5 -- 40) (pair voff cost))

let prop_hostile_logit_decomposed =
  QCheck.Test.make
    ~name:"hostile logit: cuts equal, decomposed => no backstop" ~count:50
    hostile_logit_arb
    (fun spec ->
      let n = List.length spec in
      let valuations =
        Array.of_list (List.map (fun (dv, _) -> 800. +. dv) spec)
      in
      let costs = Array.of_list (List.map (fun (_, c) -> c) spec) in
      let flows =
        Fixtures.flows_of_spec
          (List.mapi (fun i _ -> (10. +. float_of_int i, 100.)) spec)
      in
      let m =
        Market.of_parameters
          ~spec:(Market.Logit { s0 = 0.2 })
          ~alpha:1.1 ~p0:20. ~valuations ~costs flows
      in
      let _order, seg_value, regions = Strategy.dp_inputs m in
      List.for_all
        (fun b ->
          let fast = Numerics.Segdp.solve ~regions ~n ~n_bundles:b seg_value in
          let exact =
            Numerics.Segdp.solve_quadratic ~n ~n_bundles:b seg_value
          in
          fast.Numerics.Segdp.cuts = exact.Numerics.Segdp.cuts
          && Float.equal fast.Numerics.Segdp.value exact.Numerics.Segdp.value
          (* The whole point of the decomposition: once the clamped
             ranges are split out, no layer may pay the O(n^2) row. *)
          && (Array.length regions = 1
             || fast.Numerics.Segdp.stats.Numerics.Segdp.fallback_layers = 0))
        all_bundle_counts)

let prop_evals_monotone_in_n =
  (* Work must grow with the instance: the same spec replicated 8x has
     to cost strictly more seg_value evaluations at every bundle
     count. Guards against validation accidentally scaling with
     something other than n (or a rung silently re-running layers). *)
  QCheck.Test.make ~name:"evaluations monotone in n" ~count:15 spec_gen
    (fun spec ->
      let evals m b =
        let _order, seg_value, regions = Strategy.dp_inputs m in
        let n = Market.n_flows m in
        let r = Numerics.Segdp.solve ~regions ~n ~n_bundles:b seg_value in
        r.Numerics.Segdp.stats.Numerics.Segdp.evaluations
      in
      let small = market_of ~demand:`Ced (Fixtures.flows_of_spec spec) in
      let big_spec = List.concat (List.init 8 (fun _ -> spec)) in
      let big = market_of ~demand:`Ced (Fixtures.flows_of_spec big_spec) in
      List.for_all (fun b -> evals small b < evals big b) [ 2; 5; 10 ])

let prop_cuts_valid =
  (* Structural sanity on the returned partition itself. *)
  QCheck.Test.make ~name:"cuts ascending, in range, within budget"
    ~count:25 spec_gen
    (fun spec ->
      let m = Fixtures.ced_market ~flows:(Fixtures.flows_of_spec spec) () in
      let _order, seg_value, _regions = Strategy.dp_inputs m in
      let n = Market.n_flows m in
      List.for_all
        (fun b ->
          let r = Numerics.Segdp.solve ~n ~n_bundles:b seg_value in
          let cuts = r.Numerics.Segdp.cuts in
          let ascending =
            let rec go = function
              | a :: (c :: _ as rest) -> a < c && go rest
              | _ -> true
            in
            go cuts
          in
          ascending
          && List.for_all (fun c -> c >= 1 && c <= n - 1) cuts
          && r.Numerics.Segdp.segments = List.length cuts + 1
          && r.Numerics.Segdp.segments <= Stdlib.min b n)
        [ 1; 2; 4; 8 ])

(* --- verify (the dp bench's exact check on cells above --dp-max-exact) --- *)

(* A deterministic market of [n] flows: demands and distances spread
   over several orders of magnitude, loosely anti-correlated like the
   calibrated workloads. *)
let spread_flows n =
  Fixtures.flows_of_spec
    (List.init n (fun i ->
         let u = float_of_int ((i * 7919) mod n) /. float_of_int n in
         let v = float_of_int ((i * 104729) mod 997) /. 997. in
         (1. +. (2000. *. (1. -. u) *. (1. -. u)), 1. +. (2500. *. u *. v))))

(* Move one cut by a position, to a neighbour that keeps the partition
   well-formed when there is one. *)
let move_first_cut ~n = function
  | [] -> invalid_arg "move_first_cut: no cuts"
  | c :: rest ->
      let next = match rest with d :: _ -> d | [] -> n in
      (if c + 1 < next then c + 1 else c - 1) :: rest

let test_verify () =
  List.iter
    (fun (name, demand) ->
      List.iter
        (fun n ->
          let m = market_of ~demand (spread_flows n) in
          let _order, seg_value, regions = Strategy.dp_inputs m in
          let n = Market.n_flows m in
          List.iter
            (fun b ->
              let label = Printf.sprintf "%s n=%d B=%d" name n b in
              let verify = Numerics.Segdp.verify ~regions ~n ~n_bundles:b seg_value in
              let r = Numerics.Segdp.solve ~regions ~n ~n_bundles:b seg_value in
              Alcotest.(check bool) (label ^ ": accepts solve") true (verify r);
              Alcotest.(check bool) (label ^ ": has cuts") true (r.Numerics.Segdp.cuts <> []);
              Alcotest.(check bool)
                (label ^ ": rejects a moved cut")
                false
                (verify { r with Numerics.Segdp.cuts = move_first_cut ~n r.Numerics.Segdp.cuts });
              Alcotest.(check bool)
                (label ^ ": rejects a value one ulp off")
                false
                (verify { r with Numerics.Segdp.value = Float.succ r.Numerics.Segdp.value }))
            [ 3; 8 ])
        [ 40; 500; 2000 ])
    [ ("ced", `Ced); ("logit", `Logit); ("linear", `Linear) ]

(* The paper's own markets never leave the D&C rung: on the three
   paper networks under each demand model, every layer passes the
   certificate and the result is the quadratic DP's, bit-for-bit. The
   quadratic backstop is for hostile inputs only. *)
let test_paper_markets_stay_on_dandc () =
  List.iter
    (fun network ->
      List.iter
        (fun (spec_name, spec) ->
          let m = Experiment.market ~spec network in
          let _order, seg_value, regions = Strategy.dp_inputs m in
          let n = Market.n_flows m in
          List.iter
            (fun b ->
              let name = Printf.sprintf "%s %s B=%d" network spec_name b in
              let fast =
                Numerics.Segdp.solve ~regions ~n ~n_bundles:b seg_value
              in
              check_same name fast
                (Numerics.Segdp.solve_quadratic ~n ~n_bundles:b seg_value);
              Alcotest.(check int) (name ^ " no backstop") 0
                fast.Numerics.Segdp.stats.Numerics.Segdp.fallback_layers)
            [ 2; 3; 4; 6; 10 ])
        [
          ("ced", Market.Ced);
          ("logit", Market.Logit { s0 = 0.2 });
          ("linear", Market.Linear { epsilon = 1.8 });
        ])
    [ "eu_isp"; "internet2"; "cdn" ]

let suite =
  [
    Alcotest.test_case "argument validation" `Quick test_validation;
    Alcotest.test_case "single flow" `Quick test_single_flow;
    Alcotest.test_case "single bundle" `Quick test_single_bundle;
    Alcotest.test_case "additive ties keep fewest segments" `Quick
      test_additive_prefers_fewest_segments;
    Alcotest.test_case "known optimum" `Quick test_known_optimum;
    Alcotest.test_case "forced fallback (convex seg_value)" `Quick
      test_forced_fallback;
    Alcotest.test_case "monge exact without validation" `Quick
      test_fallback_disabled_sampling_still_exact_on_monge;
    Alcotest.test_case "d&c beats quadratic eval count" `Quick
      test_dandc_cheaper_than_quadratic;
    Alcotest.test_case "verify accepts solve, rejects edits" `Quick test_verify;
    QCheck_alcotest.to_alcotest (prop_cuts_equal "ced" `Ced);
    QCheck_alcotest.to_alcotest (prop_cuts_equal "logit" `Logit);
    QCheck_alcotest.to_alcotest (prop_cuts_equal "linear" `Linear);
    QCheck_alcotest.to_alcotest prop_hostile_logit_decomposed;
    QCheck_alcotest.to_alcotest prop_evals_monotone_in_n;
    QCheck_alcotest.to_alcotest prop_cuts_valid;
    Alcotest.test_case "paper markets stay on the d&c rung" `Quick
      test_paper_markets_stay_on_dandc;
  ]
