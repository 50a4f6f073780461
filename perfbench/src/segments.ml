(* Per-stretch best over a run's passes.

   Every pass repeats the same work in the same order, cut into the same
   units (the chunks of a stream pass, the batches of a serve pass). The
   units are grouped into [per_pass] stretches of consecutive units. This
   host has slow phases, lasting seconds, that slow everything on it by
   up to 40%; for each stretch the run keeps the pass in which it ran
   fastest, the execution those phases disturbed least. A stretch spans
   many units, so the collector's work and clock jitter average out
   inside it and the choice does not drop them. Throughput is read from
   the summed stretch times, latency quantiles from the units of the
   kept executions. Memory is a few ints per unit, fixed after the first
   pass. *)

let per_pass = 32

type t = {
  mutable units : int;  (** units per pass; 0 until a pass has ended *)
  mutable time : int array;  (** this pass: per unit *)
  mutable lat : int array;  (** this pass: per unit, -1 if not a latency sample *)
  mutable n : int;
  mutable best_time : int array;  (** per stretch *)
  mutable best_lat : int array;  (** per unit, from its stretch's kept execution *)
}

let create () =
  { units = 0; time = Array.make 1024 0; lat = Array.make 1024 (-1); n = 0; best_time = [||]; best_lat = [||] }

let grow a fill =
  let b = Array.make (2 * Array.length a) fill in
  Array.blit a 0 b 0 (Array.length a);
  b

(* Record the next unit of the current pass. *)
let note t ~time ~lat =
  if t.n = Array.length t.time then begin
    t.time <- grow t.time 0;
    t.lat <- grow t.lat (-1)
  end;
  t.time.(t.n) <- time;
  t.lat.(t.n) <- lat;
  t.n <- t.n + 1

let stretches t = min per_pass t.units
let bound t s = s * t.units / stretches t

let end_pass t =
  if t.units = 0 then begin
    t.units <- t.n;
    t.best_time <- Array.make (stretches t) max_int;
    t.best_lat <- Array.make t.n (-1)
  end
  else if t.n <> t.units then
    failwith (Printf.sprintf "a pass had %d units, the first %d" t.n t.units);
  for s = 0 to stretches t - 1 do
    let lo = bound t s and hi = bound t (s + 1) in
    let total = ref 0 in
    for i = lo to hi - 1 do
      total := !total + t.time.(i)
    done;
    if !total < t.best_time.(s) then begin
      t.best_time.(s) <- !total;
      Array.blit t.lat lo t.best_lat lo (hi - lo)
    end
  done;
  t.n <- 0

let total t = Array.fold_left ( + ) 0 t.best_time

(* The [q]-quantile of the kept latency samples, interpolating between
   adjacent ranks; the sample count goes with it. *)
let quantile t q =
  let a = Array.of_list (List.filter (fun v -> v >= 0) (Array.to_list t.best_lat)) in
  Array.sort Int.compare a;
  let n = Array.length a in
  if n = 0 then nan
  else
    let pos = q *. float_of_int (n - 1) in
    let lo = int_of_float pos in
    let hi = min (n - 1) (lo + 1) in
    float_of_int a.(lo) +. ((pos -. float_of_int lo) *. float_of_int (a.(hi) - a.(lo)))

let samples t = Array.fold_left (fun acc v -> if v >= 0 then acc + 1 else acc) 0 t.best_lat

(* One line for stderr: the sample count and deciles of the kept
   latency samples, in microseconds. *)
let describe t =
  Printf.sprintf "%d stretches, %d latency samples, deciles (us): %s" (stretches t) (samples t)
    (String.concat " "
       (List.map (fun q -> Printf.sprintf "%.0f" (quantile t q /. 1e3)) [ 0.1; 0.2; 0.3; 0.4; 0.5; 0.6; 0.7; 0.8; 0.9; 0.99 ]))
