open Dbp_sim
open Helpers

let test_push_query () =
  let t = Ff_index.create () in
  let s0 = Ff_index.push t ~residual:10 in
  let _s1 = Ff_index.push t ~residual:50 in
  let _s2 = Ff_index.push t ~residual:30 in
  check_int "slot ids" 0 s0;
  check_int "length" 3 (Ff_index.length t);
  Alcotest.(check (option int)) "need 5 -> leftmost" (Some 0) (Ff_index.first_fit t 5);
  Alcotest.(check (option int)) "need 20 -> slot 1" (Some 1) (Ff_index.first_fit t 20);
  Alcotest.(check (option int)) "need 40 -> slot 1" (Some 1) (Ff_index.first_fit t 40);
  Alcotest.(check (option int)) "need 60 -> none" None (Ff_index.first_fit t 60)

let test_set_deactivate () =
  let t = Ff_index.create () in
  ignore (Ff_index.push t ~residual:10);
  ignore (Ff_index.push t ~residual:20);
  Ff_index.set t 0 3;
  Alcotest.(check (option int)) "after set" (Some 1) (Ff_index.first_fit t 5);
  Ff_index.deactivate t 1;
  Alcotest.(check (option int)) "after deactivate" (Some 0) (Ff_index.first_fit t 3);
  Alcotest.(check (option int)) "nothing fits" None (Ff_index.first_fit t 5);
  check_int "residual reads -1" (-1) (Ff_index.residual t 1);
  Alcotest.(check (list int)) "active" [ 0 ] (Ff_index.active t)

let test_need_zero () =
  let t = Ff_index.create () in
  ignore (Ff_index.push t ~residual:0);
  Alcotest.(check (option int)) "zero-residual satisfies zero need" (Some 0)
    (Ff_index.first_fit t 0);
  Ff_index.deactivate t 0;
  Alcotest.(check (option int)) "deactivated slot never matches" None
    (Ff_index.first_fit t 0)

let test_growth () =
  let t = Ff_index.create () in
  for i = 0 to 99 do
    ignore (Ff_index.push t ~residual:i)
  done;
  check_int "length" 100 (Ff_index.length t);
  Alcotest.(check (option int)) "query across growth" (Some 99) (Ff_index.first_fit t 99);
  Alcotest.(check (option int)) "leftmost across growth" (Some 50) (Ff_index.first_fit t 50)

let test_bad_slot () =
  let t = Ff_index.create () in
  check_raises_invalid "set" (fun () -> Ff_index.set t 0 1);
  check_raises_invalid "negative need" (fun () -> Ff_index.first_fit t (-1));
  check_raises_invalid "negative need idx" (fun () -> Ff_index.first_fit_idx t (-1));
  check_raises_invalid "zero cap" (fun () -> Ff_index.create ~initial_cap:0 ());
  check_raises_invalid "zero columns" (fun () -> Ff_index.create ~columns:0 ());
  ignore (Ff_index.push t ~residual:5);
  check_raises_invalid "negative push" (fun () -> Ff_index.push t ~residual:(-1));
  check_raises_invalid "negative set" (fun () -> Ff_index.set t 0 (-1));
  check_raises_invalid "bad column" (fun () -> Ff_index.set_col t 0 1 3);
  check_raises_invalid "no successor keys" (fun () -> Ff_index.best_fit_idx t 0);
  check_raises_invalid "no thresholds" (fun () -> Ff_index.first_fit_all t [||]);
  check_raises_invalid "too many thresholds" (fun () ->
      Ff_index.first_fit_all t [| 0; 0 |]);
  check_raises_invalid "negative threshold" (fun () ->
      Ff_index.first_fit_all t [| -1 |]);
  let v = Ff_index.create ~columns:3 () in
  ignore (Ff_index.push v ~residual:5);
  Ff_index.deactivate v 0;
  check_raises_invalid "extra column of an inactive slot" (fun () ->
      Ff_index.set_col v 0 1 4);
  check_raises_invalid "best_score_idx: too few thresholds" (fun () ->
      Ff_index.best_score_idx v [| 0 |])

(* The smallest geometry: [initial_cap] 1 rounds up to four leaves under
   one root, and growth out of it must preserve values. *)
let test_cap_one () =
  let t = Ff_index.create ~initial_cap:1 () in
  check_int "empty query" (-1) (Ff_index.first_fit_idx t 0);
  ignore (Ff_index.push t ~residual:5);
  check_int "one leaf" 0 (Ff_index.first_fit_idx t 5);
  check_int "too big" (-1) (Ff_index.first_fit_idx t 6);
  Ff_index.set t 0 2;
  check_int "after set" (-1) (Ff_index.first_fit_idx t 3);
  ignore (Ff_index.push t ~residual:9);
  check_int "growth kept slot 0" 2 (Ff_index.residual t 0);
  check_int "query after growth" 1 (Ff_index.first_fit_idx t 3);
  Ff_index.deactivate t 1;
  check_int "deactivate propagates" (-1) (Ff_index.first_fit_idx t 3)

let test_fold_active () =
  let t = Ff_index.create () in
  ignore (Ff_index.push t ~residual:4);
  ignore (Ff_index.push t ~residual:7);
  ignore (Ff_index.push t ~residual:1);
  Ff_index.deactivate t 1;
  let pairs =
    Ff_index.fold_active t ~init:[] ~f:(fun acc slot r -> (slot, r) :: acc)
  in
  Alcotest.(check (list (pair int int))) "active pairs" [ (2, 1); (0, 4) ] pairs

(* ---- layouts and the naive model ----

   Every query is checked on the column layouts the placement code
   builds: one column (scalar FF/NF/WF, and BF with successor keys),
   residual + score (SpanGreedy at d = 1), and three dimensions + score
   (a vector BF/WF or SpanGreedy at d = 3), with and without successor
   keys — whose lazily rebuilt aggregates put every query through the
   stale-aggregate path too. *)

type layout = { lname : string; cols : int; successor : bool }

let layouts =
  [
    { lname = "1 col"; cols = 1; successor = false };
    { lname = "1 col, successor"; cols = 1; successor = true };
    { lname = "2 cols"; cols = 2; successor = false };
    { lname = "3+1 cols"; cols = 4; successor = false };
    { lname = "3+1 cols, successor"; cols = 4; successor = true };
  ]

let make ?initial_cap l = Ff_index.create ?initial_cap ~columns:l.cols ~successor:l.successor ()

(* Push a row the way the placement code does: column 0 first, then the
   others. *)
let push_row t row =
  let slot = Ff_index.push t ~residual:row.(0) in
  Array.iteri (fun c v -> if c > 0 then Ff_index.set_col t slot c v) row;
  slot

let set_row t slot row = Array.iteri (fun c v -> Ff_index.set_col t slot c v) row

(* The model: one row per slot ever pushed; inactive rows hold -1 in
   every column. *)
let meets row need k =
  let ok = ref true in
  for c = 0 to k - 1 do
    if row.(c) < need.(c) then ok := false
  done;
  !ok

(* First row maximizing [key] among rows passing [ok] (strict [>]: the
   earliest wins ties), or -1. *)
let naive_arg_max m ~ok ~key =
  let best = ref (-1) in
  Array.iteri (fun i row -> if ok row && (!best < 0 || key row > key m.(!best)) then best := i) m;
  !best

let naive_first m need =
  let r = ref (-1) in
  Array.iteri (fun i row -> if !r < 0 && meets row need (Array.length need) then r := i) m;
  !r

let naive_worst m need =
  match naive_arg_max m ~ok:(fun row -> row.(0) >= 0) ~key:(fun row -> row.(0)) with
  | i when i >= 0 && m.(i).(0) >= need -> i
  | _ -> -1

let naive_best m need = naive_arg_max m ~ok:(fun row -> row.(0) >= need) ~key:(fun row -> -row.(0))

let naive_best_score m need ~cols =
  naive_arg_max m
    ~ok:(fun row -> row.(0) >= 0 && meets row need (cols - 1))
    ~key:(fun row -> row.(cols - 1))

(* Every query kind against the model, at threshold vector [need]
   (length [cols]). *)
let check_queries name l t m need =
  let agree what got want =
    if got <> want then Alcotest.failf "%s (%s): %s got %d want %d" name l.lname what got want
  in
  agree "first_fit_idx" (Ff_index.first_fit_idx t need.(0)) (naive_first m [| need.(0) |]);
  agree "worst_fit_idx" (Ff_index.worst_fit_idx t need.(0)) (naive_worst m need.(0));
  if l.successor then
    agree "best_fit_idx" (Ff_index.best_fit_idx t need.(0)) (naive_best m need.(0));
  agree "first_fit_all" (Ff_index.first_fit_all t need) (naive_first m need);
  agree "first_fit_all, fewer thresholds"
    (Ff_index.first_fit_all t (Array.sub need 0 (max 1 (l.cols - 1))))
    (naive_first m (Array.sub need 0 (max 1 (l.cols - 1))));
  agree "best_score_idx" (Ff_index.best_score_idx t need) (naive_best_score m need ~cols:l.cols);
  Array.iteri
    (fun slot row ->
      if slot >= Ff_index.compacted_below t then
        if Ff_index.fits t slot need <> meets row need l.cols then
          Alcotest.failf "%s (%s): fits slot %d" name l.lname slot)
    m

(* A row for the layout: [residual] in every dimension column (the
   first [cols - 1], or the one column), [score] last. *)
let row l ~residual ~score =
  Array.init l.cols (fun c -> if c = l.cols - 1 && l.cols > 1 then score else residual)

(* ---- deterministic behavior, per layout ---- *)

let test_queries () =
  List.iter
    (fun l ->
      let t = make l in
      let rows =
        List.map
          (fun (r, s) -> row l ~residual:r ~score:s)
          [ (10, 3); (50, 1); (30, 4); (50, 1) ]
      in
      List.iter (fun r -> ignore (push_row t r)) rows;
      let m = Array.of_list rows in
      let need r s = row l ~residual:r ~score:s in
      let n s = Printf.sprintf "%s (%s)" s l.lname in
      check_int (n "first fit") 0 (Ff_index.first_fit_idx t 5);
      check_int (n "worst fit = roomiest") 1 (Ff_index.worst_fit_idx t 20);
      check_int (n "worst fit too big") (-1) (Ff_index.worst_fit_idx t 60);
      if l.successor then check_int (n "best fit = tightest") 2 (Ff_index.best_fit_idx t 20);
      if l.cols > 1 then begin
        check_int (n "best score") 2 (Ff_index.best_score_idx t (need 0 0));
        check_int (n "best score under need") 1 (Ff_index.best_score_idx t (need 40 0));
        check_int (n "first fit by score") 2 (Ff_index.first_fit_all t (need 20 4));
        check_int (n "first fit by score: none") (-1) (Ff_index.first_fit_all t (need 20 5))
      end
      else check_int (n "best score = max column") 1 (Ff_index.best_score_idx t [| 0 |]);
      List.iter
        (fun (r, s) -> check_queries "queries" l t m (need r s))
        [ (0, 0); (20, 2); (45, 1); (60, 0) ])
    layouts

(* Per-dimension pruning: slot 0 fits dimension 0 only, slot 1 every
   dimension but the last, slot 2 all of them. *)
let test_vector_pruning () =
  let t = Ff_index.create ~columns:4 () in
  List.iter
    (fun r -> ignore (push_row t r))
    [ [| 90; 5; 90; 7 |]; [| 90; 90; 5; 9 |]; [| 60; 60; 60; 1 |]; [| 95; 95; 95; 2 |] ];
  check_int "dimension 0 alone" 0 (Ff_index.first_fit_idx t 50);
  check_int "first fitting every dimension" 2 (Ff_index.first_fit_all t [| 50; 50; 50 |]);
  check_int "with a score threshold" 3 (Ff_index.first_fit_all t [| 50; 50; 50; 2 |]);
  check_int "best score among fitting" 3 (Ff_index.best_score_idx t [| 50; 50; 50 |]);
  check_int "best score, only dimension 0 bound" 1 (Ff_index.best_score_idx t [| 70; 0; 0 |]);
  check_bool "fits: short in dimension 1" false (Ff_index.fits t 0 [| 50; 50 |]);
  check_bool "fits: every dimension" true (Ff_index.fits t 2 [| 50; 50; 50 |]);
  Ff_index.set_col t 0 1 80;
  check_int "raised dimension 1 admits slot 0" 0 (Ff_index.first_fit_all t [| 50; 50; 50 |]);
  Ff_index.deactivate t 0;
  check_bool "fits: deactivated" false (Ff_index.fits t 0 [| 0 |]);
  check_int "column reads -1" (-1) (Ff_index.column t 0 3)

(* Equal keys everywhere: every query must prefer the smallest slot —
   the earliest-opened bin, the tie-break DESIGN.md pins. *)
let test_tie_breaks () =
  List.iter
    (fun l ->
      let n s = Printf.sprintf "%s (%s)" s l.lname in
      let t = make l in
      for _ = 1 to 4 do
        ignore (push_row t (row l ~residual:7 ~score:2))
      done;
      let need = row l ~residual:3 ~score:0 in
      if l.successor then check_int (n "best-fit tie -> lowest slot") 0 (Ff_index.best_fit_idx t 7);
      check_int (n "worst-fit tie -> lowest slot") 0 (Ff_index.worst_fit_idx t 3);
      check_int (n "best-score tie -> lowest slot") 0 (Ff_index.best_score_idx t need);
      check_int (n "first-fit-all tie -> lowest slot") 0 (Ff_index.first_fit_all t need);
      Ff_index.deactivate t 0;
      if l.successor then check_int (n "tie skips inactive") 1 (Ff_index.best_fit_idx t 7);
      check_int (n "worst tie skips inactive") 1 (Ff_index.worst_fit_idx t 3);
      check_int (n "score tie skips inactive") 1 (Ff_index.best_score_idx t need))
    layouts

let test_all_inactive () =
  List.iter
    (fun l ->
      let n s = Printf.sprintf "%s (%s)" s l.lname in
      let t = make ~initial_cap:4 l in
      for i = 0 to 3 do
        ignore (push_row t (row l ~residual:(10 * (i + 1)) ~score:i))
      done;
      for i = 0 to 3 do
        Ff_index.deactivate t i
      done;
      let zero = Array.make l.cols 0 in
      check_int (n "first fit empty") (-1) (Ff_index.first_fit_idx t 0);
      check_int (n "worst fit empty") (-1) (Ff_index.worst_fit_idx t 0);
      if l.successor then check_int (n "best fit empty") (-1) (Ff_index.best_fit_idx t 0);
      check_int (n "first fit all empty") (-1) (Ff_index.first_fit_all t zero);
      check_int (n "best score empty") (-1) (Ff_index.best_score_idx t zero);
      (* Window full and wholly inactive: the next push slides instead
         of growing, retiring the left half. *)
      let slot = push_row t (row l ~residual:5 ~score:9) in
      check_int (n "slot numbering continues") 4 slot;
      check_bool (n "compaction happened") true (Ff_index.compacted_below t >= 2);
      if l.successor then check_int (n "only survivor answers") 4 (Ff_index.best_fit_idx t 5);
      check_int (n "worst agrees") 4 (Ff_index.worst_fit_idx t 5);
      check_int (n "first fit all agrees") 4 (Ff_index.first_fit_all t zero);
      check_int (n "score agrees") 4 (Ff_index.best_score_idx t zero))
    layouts

(* Window compaction: filling the leaves while the older half is dead
   slides the window instead of growing, retiring those slots. Public
   slot numbers — and so every slot-order tie-break — are unchanged. *)
let test_compaction () =
  List.iter
    (fun l ->
      let n s = Printf.sprintf "%s (%s)" s l.lname in
      let t = make ~initial_cap:4 l in
      for i = 0 to 3 do
        ignore (push_row t (row l ~residual:(10 + i) ~score:i))
      done;
      Ff_index.deactivate t 0;
      Ff_index.deactivate t 1;
      (* Leaves full, left half inactive: this push slides, not grows. *)
      check_int (n "post-slide slot id") 4 (push_row t (row l ~residual:99 ~score:7));
      check_int (n "compacted below") 2 (Ff_index.compacted_below t);
      check_int (n "length keeps counting") 5 (Ff_index.length t);
      check_int (n "survivor residual") 12 (Ff_index.residual t 2);
      check_int (n "leftmost fit unchanged") 2 (Ff_index.first_fit_idx t 11);
      check_int (n "fit reaches new slot") 4 (Ff_index.first_fit_idx t 50);
      if l.successor then check_int (n "best fit unchanged") 2 (Ff_index.best_fit_idx t 11);
      check_int (n "worst reaches new slot") 4 (Ff_index.worst_fit_idx t 50);
      check_int (n "first fit all reaches new slot") 4
        (Ff_index.first_fit_all t (row l ~residual:50 ~score:0));
      Alcotest.(check (list int)) (n "active window") [ 2; 3; 4 ] (Ff_index.active t);
      check_raises_invalid (n "retired set") (fun () -> Ff_index.set t 0 5);
      check_raises_invalid (n "retired set_col") (fun () -> Ff_index.set_col t 1 0 5);
      check_raises_invalid (n "retired deactivate") (fun () -> Ff_index.deactivate t 0);
      check_raises_invalid (n "retired residual") (fun () -> Ff_index.residual t 1))
    layouts

(* ---- randomized differential ---- *)

let prop_vs_naive l ~initial_cap =
  qcase ~count:80
    ~name:(Printf.sprintf "matches naive model under random ops (%s, cap %d)" l.lname initial_cap)
    (fun ops ->
      let t = make ~initial_cap l in
      let model = ref [||] in
      let retired slot = slot < Ff_index.compacted_below t in
      let ok = ref true in
      let raises f = match f () with () -> false | exception Invalid_argument _ -> true in
      List.iter
        (fun (op, arg) ->
          let m = !model in
          let n = Array.length m in
          let r = row l ~residual:(arg mod 1000) ~score:(arg mod 101) in
          (* Vary the dimension columns apart from column 0. *)
          Array.iteri
            (fun c v -> if c > 0 && c < l.cols - 1 then r.(c) <- v * (c + 3) mod 1000)
            r;
          match op mod 6 with
          | 0 | 1 ->
              ignore (push_row t r);
              model := Array.append m [| r |]
          | 2 when n > 0 ->
              (* Compaction only retires inactive slots, and retired
                 slots reject writes. *)
              let slot = arg mod n in
              if retired slot then begin
                if m.(slot).(0) <> -1 || not (raises (fun () -> set_row t slot r)) then ok := false
              end
              else begin
                set_row t slot r;
                m.(slot) <- r
              end
          | 3 when n > 0 ->
              let slot = arg mod n in
              if retired slot then begin
                if m.(slot).(0) <> -1 || not (raises (fun () -> Ff_index.deactivate t slot))
                then ok := false
              end
              else begin
                Ff_index.deactivate t slot;
                m.(slot) <- Array.make l.cols (-1)
              end
          | 4 when n > 0 ->
              (* One column of an active slot. *)
              let slot = arg mod n and c = arg mod l.cols in
              if (not (retired slot)) && m.(slot).(0) >= 0 then begin
                Ff_index.set_col t slot c r.(c);
                m.(slot).(c) <- r.(c)
              end
          | _ -> (
              match check_queries "random ops" l t m r with
              | () -> ()
              | exception e ->
                  prerr_endline (Printexc.to_string e);
                  ok := false))
        ops;
      !ok)
    QCheck2.Gen.(list_size (int_range 1 200) (pair (int_range 0 5) (int_range 0 10_000)))

(* Growth and compaction at the 4-ary boundaries: 4^k - 1, 4^k and
   4^k + 1 pushes from the smallest tree, then the older half closed and
   as many pushes again (sliding or growing the window), with every
   query checked against the model after each phase. *)
let test_growth_sweep () =
  List.iter
    (fun l ->
      List.iter
        (fun k ->
          let p = 1 lsl (2 * k) in
          List.iter
            (fun count ->
              let name = Printf.sprintf "%d pushes" count in
              let t = make ~initial_cap:1 l in
              let model = ref [||] in
              let push i =
                let r = row l ~residual:(i * 7919 mod 1000) ~score:(i * 31 mod 97) in
                Array.iteri
                  (fun c v -> if c > 0 && c < l.cols - 1 then r.(c) <- (v + (c * 211)) mod 1000)
                  r;
                check_int (name ^ ": slot id") (Array.length !model) (push_row t r);
                model := Array.append !model [| r |]
              in
              let check phase =
                List.iter
                  (fun x ->
                    check_queries (name ^ ", " ^ phase) l t !model
                      (row l ~residual:x ~score:(x mod 97)))
                  [ 0; 1; 250; 500; 990; 1000 ]
              in
              for i = 0 to count - 1 do
                push i
              done;
              check "grown";
              for slot = 0 to (count / 2) - 1 do
                Ff_index.deactivate t slot;
                !model.(slot) <- Array.make l.cols (-1)
              done;
              check "older half closed";
              for i = count to (2 * count) - 1 do
                push i
              done;
              check "refilled";
              check_bool (name ^ ": window compacted or grown") true
                (Ff_index.compacted_below t <= count / 2))
            [ p - 1; p; p + 1 ])
        [ 1; 2; 3 ])
    layouts

let suite =
  [
    case "push/query" test_push_query;
    case "set/deactivate" test_set_deactivate;
    case "need zero" test_need_zero;
    case "growth" test_growth;
    case "bad slot" test_bad_slot;
    case "cap one" test_cap_one;
    case "fold_active" test_fold_active;
    case "queries" test_queries;
    case "vector pruning" test_vector_pruning;
    case "ties prefer lowest slot" test_tie_breaks;
    case "all-inactive window" test_all_inactive;
    case "compaction" test_compaction;
    case "growth and compaction at 4^k-1, 4^k, 4^k+1 pushes" test_growth_sweep;
  ]
  @ List.concat_map
      (fun l -> List.map (fun initial_cap -> prop_vs_naive l ~initial_cap) [ 1; 8 ])
      layouts
