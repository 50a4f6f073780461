(* What one run hands back: the counts of attempted and failed
   operations, the check verdict with the reasons for any failure, and
   named metrics with their units. *)

type t = {
  mutable attempted : int;
  mutable failed : int;
  mutable problems : string list;  (** check failures, newest first *)
  mutable metrics : (string * float * string) list;  (** newest first *)
}

let create () = { attempted = 0; failed = 0; problems = []; metrics = [] }
let metric r name unit value = r.metrics <- (name, value, unit) :: r.metrics
let problem r fmt = Printf.ksprintf (fun m -> r.problems <- m :: r.problems) fmt

let check r ok fmt =
  Printf.ksprintf (fun m -> if not ok then r.problems <- m :: r.problems) fmt

let correct r = r.problems = []

let median = function
  | [] -> nan
  | l ->
      let a = Array.of_list l in
      Array.sort Float.compare a;
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* A metric with no samples (a layer the workload never enters) reads
   0, never a non-number. *)
let json_number v =
  if not (Float.is_finite v) then "0"
  else if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let to_json r =
  let metrics =
    List.rev r.metrics
    |> List.map (fun (name, v, unit) ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number v) unit)
    |> String.concat ", "
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    (correct r) r.attempted r.failed metrics
