open Dbp_util
open Dbp_instance
open Dbp_sim
open Helpers

let setup () = (Bin_store.create (), Fit_group.create ~dims:1 ~label:"g" ())

let test_first_fit_order () =
  let store, g = setup () in
  let b0 = Fit_group.place g store ~now:0 (item ~id:1 ~a:0 ~d:9 ~s:0.6) in
  let b1 = Fit_group.place g store ~now:0 (item ~id:2 ~a:0 ~d:9 ~s:0.6) in
  check_bool "two bins" true (b0 <> b1);
  (* 0.3 fits in the earliest bin *)
  let b = Fit_group.place g store ~now:0 (item ~id:3 ~a:0 ~d:9 ~s:0.3) in
  check_int "earliest bin" b0 b;
  check_int "open_count" 2 (Fit_group.open_count g);
  Alcotest.(check (list int)) "open order" [ b0; b1 ] (Fit_group.open_bins g)

let test_place_new_forces () =
  let store, g = setup () in
  let b0 = Fit_group.place g store ~now:0 (item ~id:1 ~a:0 ~d:9 ~s:0.1) in
  let b1 = Fit_group.place_new g store ~now:0 (item ~id:2 ~a:0 ~d:9 ~s:0.1) in
  check_bool "fresh bin despite space" true (b0 <> b1)

let test_note_close () =
  let store, g = setup () in
  let b0 = Fit_group.place g store ~now:0 (item ~id:1 ~a:0 ~d:2 ~s:0.5) in
  ignore (Bin_store.remove store ~now:2 ~item_id:1);
  Fit_group.note_close g b0;
  check_int "open_count" 0 (Fit_group.open_count g);
  check_bool "no longer owned" false (Fit_group.owns g b0);
  (* A later item opens a new bin, never reusing the closed one. *)
  let b1 = Fit_group.place g store ~now:2 (item ~id:2 ~a:2 ~d:4 ~s:0.5) in
  check_bool "new bin" true (b0 <> b1);
  check_raises_invalid "double close" (fun () -> Fit_group.note_close g b0)

let test_best_fit_rule () =
  let store = Bin_store.create () in
  let g = Fit_group.create ~rule:Dbp_binpack.Heuristics.Best_fit ~dims:1 ~label:"bf" () in
  let b0 = Fit_group.place g store ~now:0 (item ~id:1 ~a:0 ~d:9 ~s:0.7) in
  let _b1 = Fit_group.place g store ~now:0 (item ~id:2 ~a:0 ~d:9 ~s:0.5) in
  let b = Fit_group.place g store ~now:0 (item ~id:3 ~a:0 ~d:9 ~s:0.3) in
  check_int "tightest bin" b0 b

let test_worst_fit_rule () =
  let store = Bin_store.create () in
  let g = Fit_group.create ~rule:Dbp_binpack.Heuristics.Worst_fit ~dims:1 ~label:"wf" () in
  let _b0 = Fit_group.place g store ~now:0 (item ~id:1 ~a:0 ~d:9 ~s:0.7) in
  let b1 = Fit_group.place g store ~now:0 (item ~id:2 ~a:0 ~d:9 ~s:0.5) in
  let b = Fit_group.place g store ~now:0 (item ~id:3 ~a:0 ~d:9 ~s:0.3) in
  check_int "emptiest bin" b1 b

let test_next_fit_rule () =
  let store = Bin_store.create () in
  let g = Fit_group.create ~rule:Dbp_binpack.Heuristics.Next_fit ~dims:1 ~label:"nf" () in
  let b0 = Fit_group.place g store ~now:0 (item ~id:1 ~a:0 ~d:9 ~s:0.4) in
  let b1 = Fit_group.place g store ~now:0 (item ~id:2 ~a:0 ~d:9 ~s:0.7) in
  check_bool "second bin" true (b0 <> b1);
  (* 0.5 would fit b0, but Next-Fit only considers the latest bin. *)
  let b2 = Fit_group.place g store ~now:0 (item ~id:3 ~a:0 ~d:9 ~s:0.5) in
  check_bool "third bin" true (b2 <> b0 && b2 <> b1)

(* The index's columns follow the group's dims; a store of another
   dimensionality is refused at the first bin, not misread later. *)
let test_dims_mismatch () =
  let store = Bin_store.create ~dims:2 () in
  let g = Fit_group.create ~dims:1 ~label:"g" () in
  let r = Item.make_vec ~extra:[| 10 |] ~id:1 ~arrival:0 ~departure:9 ~size:(Load.of_float 0.5) in
  check_raises_invalid "scalar group, vector store" (fun () ->
      ignore (Fit_group.place g store ~now:0 r));
  check_int "refused before any bin opened" 0 (Bin_store.bins_opened store);
  check_raises_invalid "dims < 1" (fun () -> ignore (Fit_group.create ~dims:0 ~label:"g" ()))

let prop_group_never_overflows =
  qcase ~count:100 ~name:"random place/close keeps bins within capacity"
    (fun (seed, n) ->
      let rng = Prng.create ~seed in
      let store, g = setup () in
      let active = ref [] in
      let ok = ref true in
      for id = 0 to n - 1 do
        if Prng.bernoulli rng ~p:0.3 && !active <> [] then begin
          (* depart a random active item *)
          let victim = List.nth !active (Prng.int_below rng (List.length !active)) in
          active := List.filter (fun x -> x <> victim) !active;
          let bin, closed = Bin_store.remove store ~now:1 ~item_id:victim in
          if closed then Fit_group.note_close g bin
        end
        else begin
          let size = Load.of_units (1 + Prng.int_below rng Load.capacity) in
          let r = Item.make ~id ~arrival:1 ~departure:2 ~size in
          let bin = Fit_group.place g store ~now:1 r in
          if Load.to_units (Bin_store.load store bin) > Load.capacity then ok := false;
          active := id :: !active
        end
      done;
      !ok)
    QCheck2.Gen.(pair (int_range 0 1_000_000) (int_range 1 100))

let suite =
  [
    case "first fit order" test_first_fit_order;
    case "place_new forces" test_place_new_forces;
    case "note_close" test_note_close;
    case "best fit rule" test_best_fit_rule;
    case "worst fit rule" test_worst_fit_rule;
    case "next fit rule" test_next_fit_rule;
    case "dims mismatch raises" test_dims_mismatch;
    prop_group_never_overflows;
  ]
