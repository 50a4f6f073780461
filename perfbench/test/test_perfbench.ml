(* The benchmark's reference computations: First-Fit at d=1 and d=2, the
   per-shard rebuild of a daemon's bins from its responses, and the
   Lemma 3.1 floor — on hand-worked instances, and on small seeded
   traces against the program's own [Engine.run], [Serve] and
   [Dbp_offline.Bounds]. *)

open Dbp_util
open Dbp_instance
module Ref = Perfbench_ref.Reference

let cap = Load.capacity
let u f = int_of_float (Float.round (f *. float_of_int cap))
let item ?(size2 = []) id arrival departure size : Ref.item =
  { id; arrival; departure; size = Array.of_list (u size :: List.map u size2) }

let res = Alcotest.testable (fun ppf r -> Format.pp_print_string ppf (Ref.pp_result r)) ( = )
let ff items = Ref.first_fit ~capacity:cap (Array.of_list items)

(* --- hand-worked instances --- *)

(* B arrives at the tick A departs. Departures go first, so A's bin has
   closed (bins are never reused) and B opens a second bin, while only
   one bin is ever open. Arrival-first would need two at once. *)
let departure_before_arrival () =
  let r, assign = ff [ item 1 0 5 0.6; item 2 5 10 0.6 ] in
  Alcotest.check res "result" { cost = 10; bins_opened = 2; max_open = 1 } r;
  Alcotest.(check (array (pair int int))) "bins" [| (1, 0); (2, 1) |] assign;
  Alcotest.(check int) "floor" 10 (Ref.floor ~capacity:cap [| item 1 0 5 0.6; item 2 5 10 0.6 |])

(* Three arrivals at one tick, given out of id order: processing goes by
   id, so item 1 opens bin 0, item 2 (0.7) needs bin 1, item 3 fills in
   bin 0. In the given order item 3 would have gone with item 2. *)
let ties_by_id () =
  let r, assign = ff [ item 2 0 4 0.7; item 1 0 4 0.5; item 3 0 4 0.3 ] in
  Alcotest.(check (array (pair int int))) "bins" [| (1, 0); (2, 1); (3, 0) |] assign;
  Alcotest.check res "result" { cost = 8; bins_opened = 2; max_open = 2 } r

(* Departures at one tick: any order closes the same bins. *)
let departure_ties () =
  let r, _ = ff [ item 5 0 3 0.5; item 4 1 3 0.5; item 6 3 4 0.5 ] in
  Alcotest.check res "result" { cost = 4; bins_opened = 2; max_open = 1 } r

(* 0.25 + 0.75 fills a bin exactly and fits; one unit more does not. *)
let exact_fill () =
  let r, assign =
    ff [ item 1 0 10 0.25; item 2 1 10 0.75; { (item 3 2 10 0.5) with size = [| 1 |] } ]
  in
  Alcotest.(check (array (pair int int))) "bins" [| (1, 0); (2, 0); (3, 1) |] assign;
  Alcotest.check res "result" { cost = 18; bins_opened = 2; max_open = 2 } r;
  Alcotest.(check int) "floor: load exactly 1 over [1,2), just over 1 after"
    (1 + 1 + (8 * 2))
    (Ref.floor ~capacity:cap
       [| item 1 0 10 0.25; item 2 1 10 0.75; { (item 3 2 10 0.5) with size = [| 1 |] } |])

(* d=2: room in dimension 0 is not enough; the floor takes the larger
   per-dimension ceiling at each tick. *)
let vector () =
  let items = [ item 1 0 4 0.3 ~size2:[ 0.9 ]; item 2 0 4 0.3 ~size2:[ 0.2 ]; item 3 1 4 0.3 ~size2:[ 0.1 ] ] in
  let r, assign = ff items in
  Alcotest.(check (array (pair int int))) "bins" [| (1, 0); (2, 1); (3, 0) |] assign;
  Alcotest.check res "result" { cost = 8; bins_opened = 2; max_open = 2 } r;
  (* dim 1 load: 1.1 on [0,1), 1.2 on [1,4) -> 2 bins per tick *)
  Alcotest.(check int) "floor" 8 (Ref.floor ~capacity:cap (Array.of_list items))

(* A daemon id names one bin while it is open; a placement after all of
   its items departed starts a new bin under the same id. *)
let bins_of_placements () =
  let open Ref.Bins_of_placements in
  let t = create () in
  place t ~bin:0 ~arrival:0 ~departure:5;
  place t ~bin:1 ~arrival:2 ~departure:6;
  place t ~bin:0 ~arrival:3 ~departure:4;
  place t ~bin:0 ~arrival:5 ~departure:8;
  Alcotest.check res "result" { cost = 5 + 4 + 3; bins_opened = 3; max_open = 2 } (result t)

(* --- against the program on seeded traces --- *)

let ref_items inst =
  Array.map
    (fun (r : Item.t) : Ref.item ->
      { id = r.id; arrival = r.arrival; departure = r.departure; size = Array.append [| Load.to_units r.size |] r.extra })
    (Instance.items inst)

let cloud ~dims seed =
  let resource =
    if dims = 1 then Dbp_workloads.Resource_shape.scalar
    else { dims; shape = Correlated 0.8; dim_mu = [||] }
  in
  Dbp_workloads.Cloud_traces.generate
    ~config:{ Dbp_workloads.Cloud_traces.default with days = 1; base_rate = 4.0; resource }
    ~seed ()

let general seed = Dbp_workloads.General_random.generate ~seed ()

let against_engine () =
  List.iter
    (fun (what, inst) ->
      let e = Dbp_sim.Engine.run Dbp_baselines.Any_fit.first_fit inst in
      let r, _ = Ref.first_fit ~capacity:cap (ref_items inst) in
      Alcotest.check res what
        { cost = e.cost; bins_opened = e.bins_opened; max_open = e.max_open } r)
    (List.concat_map
       (fun seed ->
         [
           (Printf.sprintf "cloud d=1 seed %d" seed, cloud ~dims:1 seed);
           (Printf.sprintf "cloud d=2 seed %d" seed, cloud ~dims:2 seed);
           (Printf.sprintf "general seed %d" seed, general seed);
         ])
       [ 1; 2; 3; 4; 5 ])

let floor_against_bounds () =
  List.iter
    (fun seed ->
      List.iter
        (fun inst ->
          Alcotest.(check int)
            (Printf.sprintf "seed %d" seed)
            (Dbp_offline.Bounds.compute inst).ceil_integral
            (Ref.floor ~capacity:cap (ref_items inst)))
        [ cloud ~dims:1 seed; general seed ])
    [ 1; 2; 3; 4; 5 ]

(* A 4-shard daemon fed the trace as [place] lines: per shard, the bins
   rebuilt from its responses equal the reference First-Fit over the
   items it was routed, and the sum equals its final [stats]. *)
let against_serve () =
  List.iter
    (fun seed ->
      let inst = cloud ~dims:1 seed in
      let items = Instance.items inst in
      let d = Dbp_sim.Serve.create ~shards:4 ~seed Dbp_binpack.Heuristics.First_fit in
      let lines =
        Array.map
          (fun (r : Item.t) ->
            Printf.sprintf "place %d %d %d %.9f" r.id r.arrival r.departure (Load.to_float r.size))
          items
      in
      let resp = Dbp_sim.Serve.exec_batch d lines in
      let rebuilt = Array.init 4 (fun _ -> Ref.Bins_of_placements.create ()) in
      let routed = Array.make 4 [] in
      Array.iteri
        (fun i line ->
          Scanf.sscanf line "ok %d:%d" (fun s b ->
              let r = items.(i) in
              Ref.Bins_of_placements.place rebuilt.(s) ~bin:b ~arrival:r.arrival ~departure:r.departure;
              routed.(s) <- (ref_items (Instance.of_items [ r ])).(0) :: routed.(s)))
        resp;
      let refs =
        Array.map (fun l -> fst (Ref.first_fit ~capacity:cap (Array.of_list (List.rev l)))) routed
      in
      Array.iteri
        (fun s r ->
          Alcotest.check res (Printf.sprintf "seed %d shard %d" seed s) r
            (Ref.Bins_of_placements.result rebuilt.(s)))
        refs;
      let horizon = Array.fold_left (fun acc (r : Item.t) -> max acc r.departure) 0 items in
      let stats = (Dbp_sim.Serve.exec_batch d [| Printf.sprintf "depart %d" horizon; "stats" |]).(1) in
      Scanf.sscanf stats "ok cost=%d open=%d opened=%d max=%d" (fun cost _ opened max ->
          let sum f = Array.fold_left (fun acc r -> acc + f r) 0 refs in
          Alcotest.(check (list int)) "stats"
            [ sum (fun r -> r.Ref.cost); sum (fun r -> r.Ref.bins_opened); sum (fun r -> r.Ref.max_open) ]
            [ cost; opened; max ]))
    [ 1; 2; 3 ]

let () =
  Alcotest.run "perfbench"
    [
      ( "reference by hand",
        [
          Alcotest.test_case "departures before arrivals" `Quick departure_before_arrival;
          Alcotest.test_case "arrival ties by id" `Quick ties_by_id;
          Alcotest.test_case "departure ties" `Quick departure_ties;
          Alcotest.test_case "item exactly fills a bin" `Quick exact_fill;
          Alcotest.test_case "vector fit and floor" `Quick vector;
          Alcotest.test_case "bins rebuilt from placements" `Quick bins_of_placements;
        ] );
      ( "reference vs program",
        [
          Alcotest.test_case "first-fit = Engine.run" `Quick against_engine;
          Alcotest.test_case "floor = Bounds ceil integral" `Quick floor_against_bounds;
          Alcotest.test_case "per-shard first-fit = Serve" `Quick against_serve;
        ] );
    ]
