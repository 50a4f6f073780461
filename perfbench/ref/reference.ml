(* Reference computations the benchmark checks the program against.

   Written from the problem statement alone, on the standard library
   only: no engine, store, fit index or departure queue of the program
   under test is called here, so a fault in one of them cannot be
   reproduced by the reference and cancel out. Plain arrays, sorts and
   linear scans; speed matters only so far as a check must finish well
   inside one benchmark run. *)

type item = {
  id : int;
  arrival : int;
  departure : int;
  size : int array;  (** load units per dimension; [size.(0)] is dimension 0 *)
}

type result = { cost : int; bins_opened : int; max_open : int }

let pp_result { cost; bins_opened; max_open } =
  Printf.sprintf "cost=%d bins_opened=%d max_open=%d" cost bins_opened max_open

(* Growable int array. *)
module Ivec = struct
  type t = { mutable a : int array; mutable n : int }

  let create () = { a = Array.make 16 0; n = 0 }

  let push v x =
    if v.n = Array.length v.a then begin
      let b = Array.make (2 * v.n) 0 in
      Array.blit v.a 0 b 0 v.n;
      v.a <- b
    end;
    v.a.(v.n) <- x;
    v.n <- v.n + 1
end

let dims_of items = if Array.length items = 0 then 1 else Array.length items.(0).size

let check_dims items =
  let d = dims_of items in
  Array.iter
    (fun r ->
      if Array.length r.size <> d then invalid_arg "Reference: mixed dimensions";
      if r.departure <= r.arrival then invalid_arg "Reference: empty interval")
    items;
  d

let ceil_div a b = if a <= 0 then 0 else ((a - 1) / b) + 1

(* Items in processing order: by arrival, ties by id. The input is
   usually already in that order, so the sort is skipped when it is. *)
let by_arrival items =
  let cmp a b =
    if a.arrival <> b.arrival then Int.compare a.arrival b.arrival
    else Int.compare a.id b.id
  in
  let a = Array.copy items in
  let sorted = ref true in
  for i = 1 to Array.length a - 1 do
    if cmp a.(i - 1) a.(i) > 0 then sorted := false
  done;
  if not !sorted then Array.stable_sort cmp a;
  a

let first_fit ~capacity items =
  let dims = check_dims items in
  let items = by_arrival items in
  let n = Array.length items in
  (* Departure order: by tick, ties by id. Every departure at a tick is
     handled before any arrival at that tick. *)
  let dep = Array.init n Fun.id in
  Array.stable_sort
    (fun i j ->
      let a = items.(i) and b = items.(j) in
      if a.departure <> b.departure then Int.compare a.departure b.departure
      else Int.compare a.id b.id)
    dep;
  let bin_of = Array.make n (-1) in
  (* Per bin: residual per dimension (flat), item count, opening tick. *)
  let residual = Ivec.create ()
  and count = Ivec.create ()
  and opened = Ivec.create () in
  (* Bins in opening order; closed ones are skipped and swept out. *)
  let order = Ivec.create () in
  let open_now = ref 0 and max_open = ref 0 and cost = ref 0 in
  let depart i =
    let r = items.(i) and b = bin_of.(i) in
    for k = 0 to dims - 1 do
      residual.a.((b * dims) + k) <- residual.a.((b * dims) + k) + r.size.(k)
    done;
    count.a.(b) <- count.a.(b) - 1;
    if count.a.(b) = 0 then begin
      cost := !cost + (r.departure - opened.a.(b));
      decr open_now
    end
  in
  let fits b r =
    let ok = ref true and k = ref 0 in
    while !ok && !k < dims do
      if residual.a.((b * dims) + !k) < r.size.(!k) then ok := false;
      incr k
    done;
    !ok
  in
  let sweep () =
    let w = ref 0 in
    for j = 0 to order.n - 1 do
      let b = order.a.(j) in
      if count.a.(b) > 0 then begin
        order.a.(!w) <- b;
        incr w
      end
    done;
    order.n <- !w
  in
  let dp = ref 0 in
  for i = 0 to n - 1 do
    let r = items.(i) in
    while !dp < n && items.(dep.(!dp)).departure <= r.arrival do
      depart dep.(!dp);
      incr dp
    done;
    if order.n > 64 + (2 * !open_now) then sweep ();
    let chosen = ref (-1) and j = ref 0 in
    while !chosen < 0 && !j < order.n do
      let b = order.a.(!j) in
      if count.a.(b) > 0 && fits b r then chosen := b;
      incr j
    done;
    if !chosen < 0 then begin
      let b = count.n in
      for _ = 1 to dims do
        Ivec.push residual capacity
      done;
      Ivec.push count 0;
      Ivec.push opened r.arrival;
      Ivec.push order b;
      incr open_now;
      if !open_now > !max_open then max_open := !open_now;
      chosen := b
    end;
    let b = !chosen in
    for k = 0 to dims - 1 do
      residual.a.((b * dims) + k) <- residual.a.((b * dims) + k) - r.size.(k)
    done;
    count.a.(b) <- count.a.(b) + 1;
    bin_of.(i) <- b
  done;
  while !dp < n do
    depart dep.(!dp);
    incr dp
  done;
  ( { cost = !cost; bins_opened = count.n; max_open = !max_open },
    Array.mapi (fun i b -> (items.(i).id, b)) bin_of )

let floor ~capacity items =
  let dims = check_dims items in
  let horizon = Array.fold_left (fun acc r -> max acc r.departure) 0 items in
  let delta = Array.init dims (fun _ -> Array.make (horizon + 1) 0) in
  Array.iter
    (fun r ->
      for k = 0 to dims - 1 do
        delta.(k).(r.arrival) <- delta.(k).(r.arrival) + r.size.(k);
        delta.(k).(r.departure) <- delta.(k).(r.departure) - r.size.(k)
      done)
    items;
  let load = Array.make dims 0 and total = ref 0 in
  for t = 0 to horizon - 1 do
    let need = ref 0 in
    for k = 0 to dims - 1 do
      load.(k) <- load.(k) + delta.(k).(t);
      need := max !need (ceil_div load.(k) capacity)
    done;
    total := !total + !need
  done;
  !total

let sum_durations items =
  Array.fold_left (fun acc r -> acc + (r.departure - r.arrival)) 0 items

(* Rebuilding one shard's bins from the daemon's placement responses.
   An open bin keeps its id; a closed bin's id may be handed to a later
   bin. A bin is open at tick [t] exactly while one of its items departs
   after [t] (departures are handled before arrivals at a tick), so a
   placement into an id whose items have all departed by its arrival
   starts a new bin under that id. *)
module Bins_of_placements = struct
  type t = {
    mutable first : int array;  (** per id: opening tick of its current bin, -1 if none *)
    mutable last : int array;  (** per id: latest departure in its current bin *)
    opens : Ivec.t;
    closes : Ivec.t;
  }

  let create () =
    { first = Array.make 64 (-1); last = Array.make 64 0; opens = Ivec.create (); closes = Ivec.create () }

  let close t b =
    Ivec.push t.opens t.first.(b);
    Ivec.push t.closes t.last.(b);
    t.first.(b) <- -1

  let place t ~bin ~arrival ~departure =
    if bin < 0 then invalid_arg "Bins_of_placements.place: negative bin id";
    if bin >= Array.length t.first then begin
      let grow a fill =
        let b = Array.make (max (bin + 1) (2 * Array.length a)) fill in
        Array.blit a 0 b 0 (Array.length a);
        b
      in
      t.first <- grow t.first (-1);
      t.last <- grow t.last 0
    end;
    if t.first.(bin) >= 0 && t.last.(bin) <= arrival then close t bin;
    if t.first.(bin) < 0 then begin
      t.first.(bin) <- arrival;
      t.last.(bin) <- departure
    end
    else t.last.(bin) <- max t.last.(bin) departure

  let result t =
    Array.iteri (fun b f -> if f >= 0 then close t b) t.first;
    let n = t.opens.n in
    let cost = ref 0 in
    (* Sweep: at equal ticks closes (-1) sort before opens (+1). *)
    let ev = Array.make (2 * n) (0, 0) in
    for i = 0 to n - 1 do
      cost := !cost + (t.closes.a.(i) - t.opens.a.(i));
      ev.(2 * i) <- (t.opens.a.(i), 1);
      ev.((2 * i) + 1) <- (t.closes.a.(i), -1)
    done;
    Array.sort compare ev;
    let cur = ref 0 and peak = ref 0 in
    Array.iter
      (fun (_, d) ->
        cur := !cur + d;
        peak := max !peak !cur)
      ev;
    { cost = !cost; bins_opened = n; max_open = !peak }
end
