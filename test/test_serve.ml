(* Serve daemon core: protocol semantics, batch-split invariance, and
   the kill-restart-replay contract — a daemon restored from a snapshot
   answers the remaining commands byte-identically to one that never
   stopped. *)

open Helpers
module H = Dbp_binpack.Heuristics
module Serve = Dbp_sim.Serve

let check_lines = Alcotest.(check (array string))

(* Place commands for a generated instance, in arrival order — the same
   lines `dbp drive` would send. *)
let place_lines inst =
  Array.map
    (fun (r : Dbp_instance.Item.t) ->
      Printf.sprintf "place %d %d %d %.9f" r.id r.arrival r.departure
        (Dbp_util.Load.to_float r.size))
    (Dbp_instance.Instance.items inst)

let horizon inst =
  1
  + Array.fold_left
      (fun acc (r : Dbp_instance.Item.t) -> max acc r.departure)
      0
      (Dbp_instance.Instance.items inst)

let cloud ~seed =
  Dbp_workloads.Cloud_traces.generate
    ~config:{ Dbp_workloads.Cloud_traces.default with days = 1; base_rate = 1.5 }
    ~seed ()

let test_protocol_basics () =
  let t = Serve.create H.First_fit in
  let resp =
    Serve.exec_batch t
      [|
        "place 1 0 10 0.5";
        "place 2 0 10 0.6";
        "place 3 5 20 0.4";
        "depart 25";
        "stats";
        "quit";
        "stats";
      |]
  in
  check_lines "responses"
    [|
      "ok 0:0";
      "ok 0:1";
      "ok 0:0";
      "ok open=0";
      "ok cost=30 open=0 opened=2 max=2 items=3 clock=25 shards=1";
      "ok bye";
      "err daemon is shutting down";
    |]
    resp;
  check_bool "stopped after quit" true (Serve.stopped t)

let test_protocol_errors () =
  let t = Serve.create H.First_fit in
  let resp =
    Serve.exec_batch t
      [|
        "place 1 0 10 0.5";
        "place 1 2 8 0.3";
        "place 2 0 10 1.5";
        "place 3 0 5 0.2 0.9";
        "frobnicate";
        "depart x";
        "place 4 20 10 0.5";
      |]
  in
  check_bool "first ok" true (resp.(0) = "ok 0:0");
  check_bool "duplicate of a live id" true
    (contains ~sub:"still live (departs at 10)" resp.(1));
  check_bool "oversize" true (contains ~sub:"size 1.5 > 1" resp.(2));
  check_bool "dims mismatch" true (contains ~sub:"2 size fields" resp.(3));
  check_bool "unknown verb" true (contains ~sub:"unknown command" resp.(4));
  check_bool "bad tick" true (contains ~sub:"malformed tick" resp.(5));
  check_bool "bad duration" true
    (contains ~sub:"non-positive duration" resp.(6));
  (* A live id is rejected across batches too; once its departure tick
     has been processed the id is free for reuse. *)
  let r2 = Serve.exec_batch t [| "place 1 3 6 0.1" |] in
  check_bool "still live across batches" true
    (contains ~sub:"still live" r2.(0));
  let r3 = Serve.exec_batch t [| "depart 12"; "place 1 13 15 0.1" |] in
  check_bool "id reusable after departure" true
    (String.length r3.(1) >= 2 && String.sub r3.(1) 0 2 = "ok")

let test_arrival_in_past_does_not_leak_id () =
  let t = Serve.create H.First_fit in
  let r = Serve.exec_batch t [| "place 1 10 20 0.5"; "place 2 5 30 0.5" |] in
  check_bool "placed" true (r.(0) = "ok 0:0");
  check_bool "past arrival rejected" true
    (contains ~sub:"arrival in the past" r.(1));
  (* The rejected placement must not have marked id 2 live. *)
  let r2 = Serve.exec_batch t [| "place 2 12 30 0.5" |] in
  check_bool "id free after rejection" true
    (String.length r2.(0) >= 2 && String.sub r2.(0) 0 2 = "ok")

(* Responses are a pure function of the command sequence: cutting the
   same lines into different batches (or using more shards' worth of
   Pool workers) changes nothing — one shot, line by line, and at every
   two-way cut ([every_cut:false] samples three cuts, for long runs). *)
let check_split_invariance ?(every_cut = true) name ~shards rule lines =
  let fresh () = Serve.create ~shards rule in
  let one_shot = Serve.exec_batch (fresh ()) lines in
  let dribble =
    let t = fresh () in
    Array.map (fun l -> (Serve.exec_batch t [| l |]).(0)) lines
  in
  check_lines (name ^ ": line by line") one_shot dribble;
  let n = Array.length lines in
  let cuts =
    if every_cut then List.init (n - 1) (fun i -> i + 1) else [ n / 3; n / 2; 2 * n / 3 ]
  in
  List.iter
    (fun cut ->
      let t = fresh () in
      let a = Serve.exec_batch t (Array.sub lines 0 cut) in
      let b = Serve.exec_batch t (Array.sub lines cut (n - cut)) in
      check_lines (Printf.sprintf "%s: cut at %d" name cut) one_shot (Array.append a b))
    cuts

let test_batch_split_invariance () =
  let inst = cloud ~seed:5 in
  check_split_invariance ~every_cut:false "cloud trace" ~shards:3 H.Best_fit
    (Array.append (place_lines inst)
       [| Printf.sprintf "depart %d" (horizon inst); "stats" |]);
  (* Id reuse: id 5 departs at 10, and placing id 6 at 20 moves the
     clock past that, so the third line is a legal reuse however the
     lines are cut. *)
  let reuse = [| "place 5 0 10 0.5"; "place 6 20 30 0.5"; "place 5 30 40 0.5" |] in
  check_split_invariance "id reuse" ~shards:1 H.First_fit reuse;
  check_lines "id reuse answers"
    [| "ok 0:0"; "ok 0:0"; "ok 0:0" |]
    (Serve.exec_batch (Serve.create H.First_fit) reuse);
  (* The same on a sharded daemon, where each shard's clock runs at its
     own pace: ids 0-7 come back interleaved with new ids 8-15, so a
     reuse succeeds once a new id has moved its shard's clock past the
     old departure and fails before that, and after the barrier some of
     ids 8-15 are still live on the shard whose clock lags. *)
  check_split_invariance "sharded id reuse" ~shards:3 H.First_fit
    (Array.concat
       [
         Array.init 8 (fun i -> Printf.sprintf "place %d %d %d 0.4" i i (i + 5));
         Array.init 16 (fun j ->
             if j mod 2 = 0 then Printf.sprintf "place %d %d 60 0.1" (8 + (j / 2)) (20 + j)
             else Printf.sprintf "place %d %d 50 0.3" (j / 2) (20 + j));
         [| "depart 55" |];
         Array.init 16 (fun i -> Printf.sprintf "place %d %d %d 0.2" i (i + 56) (i + 70));
         [| "stats" |];
       ])

(* One read can carry many commands; the loop still hands
   [exec_batch] at most [max_batch] of them at a time. *)
let test_run_respects_max_batch () =
  let input = Bytes.of_string "place 1 0 10 0.6\nplace 2 0 10 0.6\nstats\nquit\n" in
  let fed = ref false and flushes = ref 0 and sent = ref [] in
  let conn =
    {
      Serve.recv =
        (fun buf off len ->
          if !fed then 0
          else begin
            fed := true;
            assert (len >= Bytes.length input);
            Bytes.blit input 0 buf off (Bytes.length input);
            Bytes.length input
          end);
      ready = (fun () -> not !fed);
      send = (fun l -> sent := l :: !sent);
      flush = (fun () -> incr flushes);
    }
  in
  Serve.run (Serve.create ~max_batch:1 H.First_fit) conn;
  check_int "one flush per command" 4 !flushes;
  Alcotest.(check (list string))
    "responses"
    [ "ok 0:0"; "ok 0:1"; "ok cost=0 open=2 opened=2 max=2 items=2 clock=0 shards=1"; "ok bye" ]
    (List.rev !sent)

(* Final stats after depart-past-everything equal the offline replay of
   the same items — the contract `dbp drive --verify` enforces. *)
let test_matches_offline_engine () =
  let inst = cloud ~seed:8 in
  let t = Serve.create H.First_fit in
  let resp = Serve.exec_batch t (place_lines inst) in
  Array.iter
    (fun r -> check_bool "placed" true (String.sub r 0 2 = "ok"))
    resp;
  ignore
    (Serve.exec_batch t [| Printf.sprintf "depart %d" (horizon inst) |]);
  let r = Dbp_sim.Engine.run Dbp_baselines.Any_fit.first_fit inst in
  check_int "stats vs Engine.run"
    0
    (match
       Scanf.sscanf (Serve.stats_line t)
         "ok cost=%d open=%d opened=%d max=%d items=%d" (fun c op o m i ->
           if
             c = r.cost && op = 0 && o = r.bins_opened && m = r.max_open
             && i = Dbp_instance.Instance.length inst
           then 0
           else 1)
     with
    | v -> v
    | exception _ -> 2)

(* The tentpole acceptance test: run a daemon halfway, snapshot (via
   the JSON codec and via the file round-trip), rebuild in a "new
   process" (fresh daemon value — nothing shared), and replay the rest.
   Every remaining response, and the final stats, must be byte-equal to
   the uninterrupted daemon's. *)
let kill_restart_replay rule ~shards ~seed () =
  let inst = cloud ~seed in
  let lines =
    Array.append (place_lines inst)
      [| Printf.sprintf "depart %d" (horizon inst); "stats" |]
  in
  let n = Array.length lines in
  let cut = n / 2 in
  let prefix = Array.sub lines 0 cut in
  let suffix = Array.sub lines cut (n - cut) in
  let full = Serve.create ~shards ~seed rule in
  let full_resp = Serve.exec_batch full lines in
  let original = Serve.create ~shards ~seed rule in
  let prefix_resp = Serve.exec_batch original prefix in
  check_lines "prefix responses" (Array.sub full_resp 0 cut) prefix_resp;
  (* Serialize through a byte string — exactly what lands on disk. *)
  let snap =
    Dbp_util.Json.parse_exn (Dbp_util.Json.to_string (Serve.to_json original))
  in
  let restored = Serve.of_json snap in
  check_int "shards survive" shards (Serve.shard_count restored);
  let suffix_resp = Serve.exec_batch restored suffix in
  check_lines "replayed suffix byte-identical"
    (Array.sub full_resp cut (n - cut))
    suffix_resp;
  check_bool "final stats byte-identical" true
    (Serve.stats_line restored = Serve.stats_line full)

let test_file_roundtrip () =
  let inst = cloud ~seed:12 in
  let t = Serve.create ~shards:2 H.Worst_fit in
  ignore (Serve.exec_batch t (place_lines inst));
  let path = Filename.temp_file "dbp_serve" ".json" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      let resp = Serve.exec_batch t [| "snapshot " ^ path |] in
      check_bool "snapshot ok" true
        (resp.(0) = Printf.sprintf "ok snapshot %s" path);
      check_bool "no tmp litter" false (Sys.file_exists (path ^ ".tmp"));
      let restored = Serve.restore_from_file path in
      check_bool "file round-trip stats" true
        (Serve.stats_line restored = Serve.stats_line t))

let check_raises_failure name f =
  match f () with
  | exception Failure _ -> ()
  | _ -> Alcotest.failf "%s: expected Failure" name

let test_malformed_snapshots () =
  check_raises_failure "missing fields" (fun () ->
      ignore (Serve.of_json (Dbp_util.Json.Obj [ ("version", Dbp_util.Json.Int 1) ])));
  check_raises_failure "bad version" (fun () ->
      ignore (Serve.of_json (Dbp_util.Json.Obj [ ("version", Dbp_util.Json.Int 99) ])))

let suite =
  [
    case "protocol basics" test_protocol_basics;
    case "protocol errors" test_protocol_errors;
    case "rejected arrival does not leak its id" test_arrival_in_past_does_not_leak_id;
    case "batch splits are unobservable" test_batch_split_invariance;
    case "run respects max_batch" test_run_respects_max_batch;
    case "stats match offline Engine.run" test_matches_offline_engine;
    slow_case "kill-restart-replay FF" (kill_restart_replay H.First_fit ~shards:1 ~seed:3);
    slow_case "kill-restart-replay BF sharded" (kill_restart_replay H.Best_fit ~shards:3 ~seed:4);
    slow_case "kill-restart-replay NF" (kill_restart_replay H.Next_fit ~shards:1 ~seed:5);
    case "snapshot file round-trip" test_file_roundtrip;
    case "malformed snapshots raise" test_malformed_snapshots;
  ]
