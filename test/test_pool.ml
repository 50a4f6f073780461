open Dbp_util
open Helpers

(* Results come back in submission order whatever the worker count,
   including when task costs are wildly unbalanced. *)
let test_map_ordering () =
  let inputs = List.init 100 Fun.id in
  let busy_square x =
    (* Heavier work for smaller x, so a racy merge would reorder. *)
    let spin = (100 - x) * 500 in
    let acc = ref 0 in
    for i = 1 to spin do
      acc := (!acc + i) mod 1_000_003
    done;
    ignore !acc;
    x * x
  in
  let expected = List.map (fun x -> x * x) inputs in
  List.iter
    (fun jobs ->
      Pool.with_pool ~jobs (fun pool ->
          Alcotest.(check (list int))
            (Printf.sprintf "jobs=%d" jobs)
            expected
            (Pool.map pool busy_square inputs)))
    [ 1; 2; 4 ]

let test_exception_propagation () =
  Pool.with_pool ~jobs:2 (fun pool ->
      let futures =
        List.map
          (fun x -> Pool.submit pool (fun () -> if x = 3 then failwith "boom" else x))
          [ 1; 2; 3; 4 ]
      in
      (match List.map (Pool.await pool) futures with
      | exception Failure msg -> Alcotest.(check string) "message" "boom" msg
      | _ -> Alcotest.fail "expected the task's Failure to re-raise");
      (* The pool survives a failed task. *)
      check_int "still works" 7 (Pool.await pool (Pool.submit pool (fun () -> 7))))

let test_inline_exception () =
  Pool.with_pool ~jobs:1 (fun pool ->
      let fut = Pool.submit pool (fun () -> failwith "inline") in
      match Pool.await pool fut with
      | exception Failure msg -> Alcotest.(check string) "message" "inline" msg
      | _ -> Alcotest.fail "expected Failure")

(* A task may fan its own subtasks onto the same pool: await helps run
   queued work, so this terminates even with every worker nested. *)
let test_nested_submit () =
  List.iter
    (fun jobs ->
      Pool.with_pool ~jobs (fun pool ->
          let totals =
            Pool.map pool
              (fun base ->
                let parts = Pool.map pool (fun i -> base + i) [ 1; 2; 3 ] in
                List.fold_left ( + ) 0 parts)
              [ 10; 20; 30; 40 ]
          in
          Alcotest.(check (list int))
            (Printf.sprintf "jobs=%d" jobs)
            [ 36; 66; 96; 126 ] totals))
    [ 1; 2; 4 ]

let test_shutdown_rejects_submit () =
  let pool = Pool.create ~jobs:2 () in
  check_int "works before" 1 (Pool.await pool (Pool.submit pool (fun () -> 1)));
  Pool.shutdown pool;
  Pool.shutdown pool;
  check_raises_invalid "submit after shutdown" (fun () ->
      ignore (Pool.submit pool (fun () -> 2)))

let test_default_jobs_override () =
  let before = Pool.default_jobs () in
  Pool.set_default_jobs 3;
  check_int "explicit override" 3 (Pool.default_jobs ());
  check_raises_invalid "n < 1 rejected" (fun () -> Pool.set_default_jobs 0);
  Pool.set_default_jobs before

(* Alcotest's checks are not domain-safe, so the tasks only count
   failed borrows in an atomic; the main domain asserts on the count. *)
let test_bank_reuse_and_exclusivity () =
  let created = Atomic.make 0 and shared = Atomic.make 0 in
  let bank =
    Pool.Bank.create (fun () ->
        Atomic.incr created;
        (ref 0, Mutex.create ()))
  in
  Pool.with_pool ~jobs:4 (fun pool ->
      let _ =
        Pool.map pool
          (fun _ ->
            Pool.Bank.use bank (fun (count, mutex) ->
                (* Exclusive borrow: trylock can never fail. *)
                if Mutex.try_lock mutex then begin
                  incr count;
                  Mutex.unlock mutex
                end
                else Atomic.incr shared))
          (List.init 64 Fun.id)
      in
      ());
  check_int "exclusive: no borrow found its resource locked" 0 (Atomic.get shared);
  let resources = Pool.Bank.all bank in
  check_int "bank lists every resource" (Atomic.get created) (List.length resources);
  check_bool "bounded by concurrency" true (Atomic.get created <= 5);
  check_int "no use lost" 64
    (List.fold_left (fun acc (count, _) -> acc + !count) 0 resources)

let suite =
  [
    case "map ordering under contention" test_map_ordering;
    case "exception propagation" test_exception_propagation;
    case "inline exception" test_inline_exception;
    case "nested submit and await" test_nested_submit;
    case "shutdown" test_shutdown_rejects_submit;
    case "default jobs override" test_default_jobs_override;
    case "bank reuse and exclusivity" test_bank_reuse_and_exclusivity;
  ]
