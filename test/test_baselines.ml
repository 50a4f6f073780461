open Dbp_util
open Dbp_instance
open Dbp_sim
open Dbp_baselines
open Helpers

let lb inst = Profile.ceil_integral (Profile.of_instance inst)

let test_ff_behaviour () =
  (* Two 0.6 items overlap -> 2 bins; a later 0.3 joins the earliest. *)
  let inst = instance [ (0, 9, 0.6); (0, 9, 0.6); (1, 5, 0.3) ] in
  let res = Engine.run Any_fit.first_fit inst in
  check_int "bins" 2 res.bins_opened;
  let b0 = Bin_store.bin_of_item res.store 0 in
  check_int "third item joins earliest" b0 (Bin_store.bin_of_item res.store 2)

let test_bf_behaviour () =
  let inst = instance [ (0, 9, 0.7); (0, 9, 0.5); (1, 5, 0.3) ] in
  let res = Engine.run Any_fit.best_fit inst in
  check_int "joins fullest" (Bin_store.bin_of_item res.store 0)
    (Bin_store.bin_of_item res.store 2)

let test_wf_behaviour () =
  let inst = instance [ (0, 9, 0.7); (0, 9, 0.5); (1, 5, 0.3) ] in
  let res = Engine.run Any_fit.worst_fit inst in
  check_int "joins emptiest" (Bin_store.bin_of_item res.store 1)
    (Bin_store.bin_of_item res.store 2)

(* The tie-break contract DESIGN.md pins: among equally-tight (BF) or
   equally-roomy (WF) bins, the earliest-opened bin wins — the behavior
   a naive left-to-right scan had, kept by the log-time fit index. *)
let test_bf_wf_tie_break () =
  List.iter
    (fun (name, factory) ->
      let inst = instance [ (0, 9, 0.6); (0, 9, 0.6); (1, 5, 0.3) ] in
      let res = Engine.run factory inst in
      check_int "two bins open at the tie" 2 res.bins_opened;
      check_int
        (name ^ " tie joins the earliest-opened bin")
        (Bin_store.bin_of_item res.store 0)
        (Bin_store.bin_of_item res.store 2))
    [ ("BF", Any_fit.best_fit); ("WF", Any_fit.worst_fit) ]

let test_nf_behaviour () =
  let inst = instance [ (0, 9, 0.4); (0, 9, 0.7); (0, 9, 0.5) ] in
  let res = Engine.run Any_fit.next_fit inst in
  check_int "next fit never looks back" 3 res.bins_opened

let test_cd_separates_classes () =
  (* Same sizes, different duration classes -> different bins under CD,
     one bin under FF. *)
  let inst = instance [ (0, 2, 0.2); (0, 8, 0.2) ] in
  let cd = Engine.run (Classify_duration.policy ()) inst in
  check_int "cd bins" 2 cd.bins_opened;
  let ff = Engine.run Any_fit.first_fit inst in
  check_int "ff bins" 1 ff.bins_opened

let test_cd_killer_shape () =
  (* On the cd-killer family CD pays ~ (log mu + 1) * mu while FF pays
     ~ mu. *)
  let inst = Dbp_workloads.Cd_killer.generate ~mu:64 () in
  let cd = Engine.run (Classify_duration.policy ()) inst in
  let ff = Engine.run Any_fit.first_fit inst in
  check_bool "cd pays log mu more" true (cd.cost >= 5 * ff.cost);
  check_int "ff is optimal here" 64 ff.cost

let test_rt_class_bounds () =
  let inst = instance [ (0, 1, 0.3); (0, 4, 0.3); (0, 64, 0.3) ] in
  let res = Engine.run (Rt_classify.policy ~classes:3 ~mu_hint:64.0 ()) inst in
  (* three durations spread across three geometric classes *)
  check_int "bins" 3 res.bins_opened

let test_rt_single_class_is_ff () =
  let rng = Prng.create ~seed:5 in
  let inst = random_instance rng ~n:60 ~max_time:50 ~max_duration:30 in
  let rt = Engine.run (Rt_classify.policy ~classes:1 ~mu_hint:30.0 ()) inst in
  let ff = Engine.run Any_fit.first_fit inst in
  check_int "identical cost" ff.cost rt.cost;
  check_int "identical bins" ff.bins_opened rt.bins_opened

let test_rt_optimal_classes () =
  check_int "mu=2 -> 1 class" 1 (Rt_classify.optimal_classes ~mu:2.0);
  let n = Rt_classify.optimal_classes ~mu:65536.0 in
  (* minimizing mu^(1/n) + n + 3 over n: 23.0, 17.2, 15.3, 14.9, 15.0 for
     n = 4..8, so n* = 7 (the asymptotic log mu / log log mu = 4 only
     kicks in at much larger mu) *)
  check_int "n* for mu = 2^16" 7 n

let test_span_greedy_prefers_covered_bin () =
  (* Two 0.6 items force two bins; the 0.3 newcomer fits both. First-Fit
     would take the earlier bin (horizon 4, extension 6); SpanGreedy
     takes the later bin whose horizon already covers it (extension
     0). *)
  let inst = instance [ (0, 4, 0.6); (0, 20, 0.6); (2, 10, 0.3) ] in
  let res = Engine.run Span_greedy.policy inst in
  check_bool "two bins for the big items" true
    (Bin_store.bin_of_item res.store 0 <> Bin_store.bin_of_item res.store 1);
  check_int "span-aware choice" (Bin_store.bin_of_item res.store 1)
    (Bin_store.bin_of_item res.store 2);
  let ff = Engine.run Any_fit.first_fit inst in
  check_int "FF would pick the earlier bin" (Bin_store.bin_of_item ff.store 0)
    (Bin_store.bin_of_item ff.store 2)

let test_span_greedy_opens_when_cheaper () =
  (* Extending any open bin would cost the full duration; a new bin is
     no worse, and SpanGreedy prefers it at equality. *)
  let inst = instance [ (0, 2, 0.4); (2, 10, 0.4) ] in
  let res = Engine.run Span_greedy.policy inst in
  check_int "two bins" 2 res.bins_opened

let test_non_clairvoyant_wrapper () =
  (* The wrapper masks departure times: SpanGreedy degenerates because
     every horizon looks like now+1. Check it still packs validly and is
     named distinctly. *)
  let rng = Prng.create ~seed:11 in
  let inst = random_instance rng ~n:50 ~max_time:40 ~max_duration:20 in
  let res = Engine.run (Policy.non_clairvoyant Span_greedy.policy) inst in
  check_bool "valid" true (res.cost >= lb inst);
  Alcotest.(check string) "name" "SpanGreedy-nc" res.name

let prop_ff_ignores_durations =
  qcase ~count:40 ~name:"FF = non-clairvoyant FF (duration-oblivious by construction)"
    (fun seed ->
      let rng = Prng.create ~seed in
      let inst = random_instance rng ~n:60 ~max_time:60 ~max_duration:32 in
      let a = Engine.run Any_fit.first_fit inst in
      let b = Engine.run (Policy.non_clairvoyant Any_fit.first_fit) inst in
      a.cost = b.cost && a.bins_opened = b.bins_opened)
    QCheck2.Gen.(int_range 0 1_000_000)

let all_policies =
  [
    ("FF", Any_fit.first_fit);
    ("BF", Any_fit.best_fit);
    ("WF", Any_fit.worst_fit);
    ("NF", Any_fit.next_fit);
    ("CD", Classify_duration.policy ());
    ("RT", Rt_classify.auto ~mu_hint:32.0);
    ("SG", Span_greedy.policy);
  ]

let prop_all_above_lower_bound =
  qcase ~count:60 ~name:"every baseline is valid and above the lower bound"
    (fun seed ->
      let rng = Prng.create ~seed in
      let inst = random_instance rng ~n:60 ~max_time:60 ~max_duration:32 in
      let bound = lb inst in
      List.for_all (fun (_, p) -> (Engine.run p inst).cost >= bound) all_policies)
    QCheck2.Gen.(int_range 0 1_000_000)

let prop_pinning_ff_closed_form =
  qcase ~count:20 ~name:"FF pays the closed-form cost on the pinning family"
    (fun mu ->
      let inst = Dbp_workloads.Pinning.generate ~groups:mu ~k:mu ~mu () in
      let res = Engine.run Any_fit.first_fit inst in
      res.cost = Dbp_workloads.Pinning.ff_cost_closed_form ~groups:mu ~mu)
    QCheck2.Gen.(int_range 2 24)

(* --- vector choices against a naive scan ---

   At d > 1 the validator only checks feasibility and [Naive] reruns the
   same policy, so nothing else pins which bin a vector policy picks.
   Before each arrival the wrapper below recomputes the choice by
   scanning the store's open bins in opening order with the rules of
   DESIGN.md ("Vector loads"): fit means fit in every dimension; FF
   takes the first fitting bin, NF only its last bin, BF/WF the
   smallest/largest L1 residual (earliest on ties), SpanGreedy the
   first covered bin, else the latest horizon when that extension
   beats the item's duration. [None] means "open a new bin". *)

type vrule = VFF | VNF | VBF | VWF | VSG

let naive_vector_choice rule store (r : Item.t) ~last ~horizon =
  let dims = Bin_store.dims store in
  let need k = if k = 0 then Load.to_units r.size else r.extra.(k - 1) in
  let fits b =
    List.for_all
      (fun k -> Bin_store.residual_units_dim store b k >= need k)
      (List.init dims Fun.id)
  in
  let l1 b =
    List.fold_left
      (fun acc k -> acc + Bin_store.residual_units_dim store b k)
      0 (List.init dims Fun.id)
  in
  let fitting = List.filter fits (Bin_store.open_bins store) in
  (* First bin maximizing [key] — strict comparison keeps the earliest. *)
  let arg_max key =
    List.fold_left
      (fun best b ->
        match best with Some c when key c >= key b -> best | _ -> Some b)
      None fitting
  in
  match rule with
  | VFF -> (match fitting with b :: _ -> Some b | [] -> None)
  | VNF -> (
      match last with
      | Some b when Bin_store.is_open store b && fits b -> Some b
      | _ -> None)
  | VBF -> arg_max (fun b -> -l1 b)
  | VWF -> arg_max l1
  | VSG -> (
      let h b = Hashtbl.find horizon b in
      match List.find_opt (fun b -> h b >= r.departure) fitting with
      | Some b -> Some b
      | None -> (
          match arg_max h with
          | Some b when r.departure - h b < Item.duration r -> Some b
          | _ -> None))

(* Runs [factory] on [inst] and counts the arrivals whose bin differs
   from the naive choice. *)
let vector_mismatches rule factory inst =
  let arrivals = ref 0 and mismatches = ref 0 in
  let checked store =
    let p = factory store in
    let last = ref None and horizon = Hashtbl.create 64 in
    {
      p with
      Policy.on_arrival =
        (fun ~now (r : Item.t) ->
          let want = naive_vector_choice rule store r ~last:!last ~horizon in
          let opened = Bin_store.bins_opened store in
          let b = p.Policy.on_arrival ~now r in
          incr arrivals;
          let ok =
            match want with
            | Some w -> b = w
            | None -> Bin_store.bins_opened store = opened + 1
          in
          if not ok then incr mismatches;
          last := Some b;
          let h = Option.value (Hashtbl.find_opt horizon b) ~default:0 in
          Hashtbl.replace horizon b (max h r.departure);
          b);
    }
  in
  ignore (Engine.run checked inst);
  (!arrivals, !mismatches)

let test_vector_choices_match_naive () =
  let open Dbp_workloads in
  let rules =
    [
      ("FF", VFF, Any_fit.first_fit);
      ("NF", VNF, Any_fit.next_fit);
      ("BF", VBF, Any_fit.best_fit);
      ("WF", VWF, Any_fit.worst_fit);
      ("SpanGreedy", VSG, Span_greedy.policy);
    ]
  in
  List.iter
    (fun dims ->
      List.iter
        (fun shape ->
          let resource = { Resource_shape.dims; shape; dim_mu = [||] } in
          let instances =
            [
              ( "general",
                Dbp_experiments.Workload_defs.general_vec ~resource ~mu:32 ~seed:7 );
              ( "cloud",
                Cloud_traces.generate
                  ~config:{ Cloud_traces.default with days = 1; base_rate = 1.0; resource }
                  ~seed:7 () );
            ]
          in
          List.iter
            (fun (wname, inst) ->
              List.iter
                (fun (pname, rule, factory) ->
                  let name =
                    Printf.sprintf "%s d=%d %s %s" wname dims
                      (Resource_shape.shape_to_string shape) pname
                  in
                  let arrivals, mismatches = vector_mismatches rule factory inst in
                  check_bool (name ^ ": ran") true (arrivals > 0);
                  check_int (name ^ ": bins differing from the naive scan") 0 mismatches)
                rules)
            instances)
        [ Resource_shape.Independent; Correlated 0.8; Adversarial ])
    [ 2; 3 ]

let suite =
  [
    case "first fit" test_ff_behaviour;
    case "best fit" test_bf_behaviour;
    case "worst fit" test_wf_behaviour;
    case "bf/wf ties prefer earliest bin" test_bf_wf_tie_break;
    case "next fit" test_nf_behaviour;
    case "cd separates classes" test_cd_separates_classes;
    case "cd killer shape" test_cd_killer_shape;
    case "rt class spread" test_rt_class_bounds;
    case "rt single class = ff" test_rt_single_class_is_ff;
    case "rt optimal classes" test_rt_optimal_classes;
    case "span greedy covered bin" test_span_greedy_prefers_covered_bin;
    case "span greedy opens" test_span_greedy_opens_when_cheaper;
    case "non-clairvoyant wrapper" test_non_clairvoyant_wrapper;
    case "vector choices match a naive scan" test_vector_choices_match_naive;
    prop_all_above_lower_bound;
    prop_ff_ignores_durations;
    prop_pinning_ff_closed_form;
  ]
