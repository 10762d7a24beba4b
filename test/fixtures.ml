(* Shared test fixtures: small deterministic markets. *)
open Tiered

let flows_of_spec spec =
  Array.of_list
    (List.mapi
       (fun id (demand_mbps, distance_miles) ->
         Flow.make ~id ~demand_mbps ~distance_miles ())
       spec)

(* Eight flows spanning metro to international distances with varied
   demand, loosely (anti-)correlated like the calibrated workloads. *)
let default_spec =
  [
    (120., 4.); (80., 9.); (40., 30.); (35., 60.); (20., 150.); (10., 400.);
    (6., 900.); (3., 2500.);
  ]

let flows () = flows_of_spec default_spec

(* Substring test for checking printed messages and JSON. *)
let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let ced_market ?(alpha = 1.1) ?(p0 = 20.) ?(theta = 0.2) ?flows:f () =
  let flows = match f with Some f -> f | None -> flows () in
  Market.fit ~spec:Market.Ced ~alpha ~p0
    ~cost_model:(Cost_model.linear ~theta) flows

let logit_market ?(alpha = 1.1) ?(p0 = 20.) ?(s0 = 0.2) ?(theta = 0.2) ?flows:f () =
  let flows = match f with Some f -> f | None -> flows () in
  Market.fit ~spec:(Market.Logit { s0 }) ~alpha ~p0
    ~cost_model:(Cost_model.linear ~theta) flows

(* A small workload for pipeline tests. *)
let workload () =
  let params =
    {
      Flowgen.Workload.n_flows = 60;
      aggregate_gbps = 2.;
      locality_scale = 50.;
      locality_spread = 1.0;
      demand_cv = 0.8;
      demand_distance_exponent = 1.5;
      local_tail_miles = 40.;
      on_net_fraction = 0.5;
      distance_mode = `Path;
      seed = 4242;
    }
  in
  Flowgen.Workload.generate (Netsim.Presets.eu_isp ()) params
