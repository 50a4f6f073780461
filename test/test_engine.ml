open Dbp_instance
open Dbp_sim
open Helpers

(* Minimal First-Fit policy, defined directly on the sim primitives so
   the engine tests do not depend on the baselines library. *)
let ff store =
  let g = Fit_group.create ~dims:(Bin_store.dims store) ~label:"FF" () in
  {
    Policy.name = "FF";
    on_arrival = (fun ~now r -> Fit_group.place g store ~now r);
    on_departure =
      (fun ~now:_ _ ~bin ~closed -> Fit_group.note_depart g store bin ~closed);
    on_move =
      Some
        (fun ~now:_ _ ~src ~dst ~closed ->
          Fit_group.note_depart g store src ~closed;
          Fit_group.note_insert g store dst);
  }

let test_single_item () =
  let res = Engine.run ff (instance [ (0, 5, 0.5) ]) in
  check_int "cost" 5 res.cost;
  check_int "bins" 1 res.bins_opened;
  check_int "max_open" 1 res.max_open

let test_sequential_no_reuse () =
  (* Bin closes at t=2; the t=2 arrival must open a new bin (closed bins
     are never reused). *)
  let res = Engine.run ff (instance [ (0, 2, 1.0); (2, 4, 1.0) ]) in
  check_int "cost" 4 res.cost;
  check_int "bins" 2 res.bins_opened;
  check_int "max_open" 1 res.max_open

let test_departure_before_arrival () =
  (* Items of load 0.6: the t=2 arrival does not fit while the first item
     is active, but the first departs exactly at 2, so open bins at t=2
     is 1 throughout. *)
  let res = Engine.run ff (instance [ (0, 2, 0.6); (2, 4, 0.6) ]) in
  check_int "max_open" 1 res.max_open;
  check_int "bins" 2 res.bins_opened

let test_overlap_cost () =
  (* [0,4) 0.7 and [1,3) 0.7 cannot share: two bins, usage 4 + 2. *)
  let res = Engine.run ff (instance [ (0, 4, 0.7); (1, 3, 0.7) ]) in
  check_int "cost" 6 res.cost;
  check_int "bins" 2 res.bins_opened;
  check_int "max_open" 2 res.max_open

let test_series () =
  let res = Engine.run ff (instance [ (0, 4, 0.7); (1, 3, 0.7) ]) in
  Alcotest.(check (list (pair int int)))
    "open-bin series" [ (0, 1); (1, 2); (3, 1); (4, 0) ]
    (Array.to_list res.series)

let test_ff_reuses_open_bin () =
  let res = Engine.run ff (instance [ (0, 10, 0.5); (2, 5, 0.3); (6, 9, 0.3) ]) in
  check_int "single bin" 1 res.bins_opened;
  check_int "cost = span" 10 res.cost

let test_interactive_adversary () =
  let t = Engine.Interactive.start ff in
  ignore (Engine.Interactive.arrive t (item ~id:0 ~a:0 ~d:4 ~s:0.9));
  check_int "one open" 1 (Engine.Interactive.open_count t);
  ignore (Engine.Interactive.arrive t (item ~id:1 ~a:0 ~d:4 ~s:0.9));
  check_int "two open" 2 (Engine.Interactive.open_count t);
  (* React to the observation: release a third item only because two
     bins are open. *)
  if Engine.Interactive.open_count t = 2 then
    ignore (Engine.Interactive.arrive t (item ~id:2 ~a:1 ~d:2 ~s:0.05));
  check_int "clock" 1 (Engine.Interactive.now t);
  let res, inst = Engine.Interactive.finish t in
  check_int "released instance" 3 (Instance.length inst);
  (* Bins: [0,4) holding ids 0 and 2, and [0,4) holding id 1: cost 8. *)
  check_int "cost" 8 res.cost

let test_interactive_past_arrival_rejected () =
  let t = Engine.Interactive.start ff in
  ignore (Engine.Interactive.arrive t (item ~id:0 ~a:5 ~d:6 ~s:0.5));
  check_raises_invalid "past arrival" (fun () ->
      Engine.Interactive.arrive t (item ~id:1 ~a:3 ~d:6 ~s:0.5))

let test_lying_policy_rejected () =
  let lying store =
    let inner = ff store in
    {
      inner with
      Policy.on_arrival =
        (fun ~now r ->
          ignore (inner.Policy.on_arrival ~now r);
          Bin_store.open_bin store ~now ~label:"bogus");
    }
  in
  check_raises_invalid "wrong bin reported" (fun () ->
      Engine.run lying (instance [ (0, 1, 0.5) ]))

let test_empty_instance () =
  let res = Engine.run ff (Instance.of_items []) in
  check_int "cost" 0 res.cost;
  check_int "bins" 0 res.bins_opened

let prop_cost_at_least_lower_bound =
  qcase ~count:100 ~name:"FF cost >= ceil-integral lower bound"
    (fun seed ->
      let inst =
        random_instance (Dbp_util.Prng.create ~seed) ~n:40 ~max_time:60 ~max_duration:30
      in
      let res = Engine.run ff inst in
      res.cost >= Profile.ceil_integral (Profile.of_instance inst))
    QCheck2.Gen.(int_range 0 1_000_000)

let prop_cost_at_most_span_times_bins =
  qcase ~count:100 ~name:"cost <= span * bins_opened"
    (fun seed ->
      let inst =
        random_instance (Dbp_util.Prng.create ~seed) ~n:30 ~max_time:50 ~max_duration:20
      in
      let res = Engine.run ff inst in
      res.cost <= Instance.span inst * res.bins_opened)
    QCheck2.Gen.(int_range 0 1_000_000)

let test_stream_matches_run () =
  let inst =
    instance [ (0, 5, 0.5); (1, 3, 0.4); (2, 8, 0.3); (5, 9, 0.6); (6, 7, 0.2) ]
  in
  let r = Engine.run ff inst in
  let s = Engine.Stream.run ff (Event_source.of_instance inst) in
  check_int "cost" r.cost s.result.cost;
  check_int "bins_opened" r.bins_opened s.result.bins_opened;
  check_int "max_open" r.max_open s.result.max_open;
  check_bool "series" true (r.series = s.result.series);
  check_int "items" (Instance.length inst) s.items;
  (* The streamed run keeps no released-item log: retention = live. *)
  check_int "retained = live" s.peak_live_items s.peak_retained_items;
  check_bool "retire mode by default" true (Bin_store.retire_mode s.result.store);
  (* Opt-out: full retention preserves the per-bin history. *)
  let f = Engine.Stream.run ~retire:false ff (Event_source.of_instance inst) in
  check_int "full store keeps all bins" r.bins_opened
    (List.length (Bin_store.all_bins f.result.store))

let test_stream_bounded_series () =
  let specs = List.init 200 (fun i -> (i, i + 2, 0.9)) in
  let src = Event_source.of_instance (instance specs) in
  let s = Engine.Stream.run ~max_series:8 ff src in
  check_bool "series within cap" true (Array.length s.result.series <= 8);
  check_int "peak live small" 2 s.peak_live_items

let test_interactive_retention_modes () =
  (* retain_released:false trades finish's instance for O(live) memory. *)
  let t = Engine.Interactive.start ~retain_released:false ff in
  ignore (Engine.Interactive.arrive t (item ~id:1 ~a:0 ~d:3 ~s:0.5));
  ignore (Engine.Interactive.arrive t (item ~id:2 ~a:1 ~d:2 ~s:0.5));
  check_int "items_arrived" 2 (Engine.Interactive.items_arrived t);
  check_int "peak live" 2 (Engine.Interactive.peak_live_items t);
  check_int "peak retained" 2 (Engine.Interactive.peak_retained_items t);
  let result, inst = Engine.Interactive.finish t in
  check_int "cost still computed" 3 result.cost;
  check_bool "instance empty without the log" true (Instance.is_empty inst)

let suite =
  [
    case "single item" test_single_item;
    case "sequential no reuse" test_sequential_no_reuse;
    case "departure before arrival" test_departure_before_arrival;
    case "overlap cost" test_overlap_cost;
    case "series" test_series;
    case "ff reuses open bin" test_ff_reuses_open_bin;
    case "interactive adversary" test_interactive_adversary;
    case "interactive rejects past" test_interactive_past_arrival_rejected;
    case "lying policy rejected" test_lying_policy_rejected;
    case "empty instance" test_empty_instance;
    case "stream matches run" test_stream_matches_run;
    case "stream bounded series" test_stream_bounded_series;
    case "interactive retention modes" test_interactive_retention_modes;
    prop_cost_at_least_lower_bound;
    prop_cost_at_most_span_times_bins;
  ]
