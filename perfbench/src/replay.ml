(* Isolated replays for the cloud-ff ledger: the departure-queue, store
   and fit-index operations of a recorded First-Fit run, each stream
   replayed alone against the public API of one module and timed as
   ns per operation.

   The recording is a flat int vector, [width] ints per event in engine
   order: [tick; id; departure; units; bin; flag], where [units] is
   positive for an arrival (flag: it opened [bin]) and negative for a
   departure (flag: it closed [bin]). *)

open Dbp_util
open Dbp_instance
open Dbp_sim

let width = 6

let record ops ~tick ~id ~departure ~units ~bin ~flag =
  List.iter (Vec.push ops) [ tick; id; departure; units; bin; flag ]

type result = { depart_queue : float; bin_store : float; ff_index : float }

let time_ns f =
  let t0 = Clock.now_ns () in
  let n = f () in
  float_of_int (Clock.now_ns () - t0) /. float_of_int (max 1 n)

(* What the engine asks of its queue: before each arrival, pop every
   departure due by its tick; then enqueue the arrival. Slots are
   recycled through a free stack, as the engine's arena recycles
   them. *)
let depart_queue ops =
  let n = Vec.length ops / width in
  let q = Depart_queue.create () in
  let free = Array.make n 0 and free_n = ref 0 and fresh = ref 0 in
  time_ns (fun () ->
      let calls = ref 0 in
      for e = 0 to n - 1 do
        let o = e * width in
        if Vec.get ops (o + 3) > 0 then begin
          let tick = Vec.get ops o in
          let rec drain () =
            incr calls;
            let s = Depart_queue.pop_due q ~upto:tick in
            if s >= 0 then begin
              free.(!free_n) <- s;
              incr free_n;
              drain ()
            end
          in
          drain ();
          let slot =
            if !free_n > 0 then begin
              decr free_n;
              free.(!free_n)
            end
            else begin
              incr fresh;
              !fresh - 1
            end
          in
          Depart_queue.add q ~dep:(Vec.get ops (o + 2)) ~id:(Vec.get ops (o + 1)) slot;
          incr calls
        end
      done;
      !calls)

let bin_store ops =
  let n = Vec.length ops / width in
  let store = Bin_store.create ~retire:true ~track_items:false () in
  (* Boxed items are built before the clock starts: the engine receives
     them from its arena, not from the store. *)
  let departure_slot = Item.make ~id:0 ~arrival:0 ~departure:1 ~size:Load.one in
  let items =
    Array.init n (fun e ->
        let o = e * width in
        let units = Vec.get ops (o + 3) in
        if units > 0 then
          Item.make ~id:(Vec.get ops (o + 1)) ~arrival:(Vec.get ops o)
            ~departure:(Vec.get ops (o + 2)) ~size:(Load.of_units units)
        else departure_slot)
  in
  let bin_map = ref (Array.make 1024 (-1)) in
  time_ns (fun () ->
      let calls = ref 0 in
      for e = 0 to n - 1 do
        let o = e * width in
        let tick = Vec.get ops o and units = Vec.get ops (o + 3) and bin = Vec.get ops (o + 4) in
        if bin >= Array.length !bin_map then begin
          let a = Array.make (2 * (bin + 1)) (-1) in
          Array.blit !bin_map 0 a 0 (Array.length !bin_map);
          bin_map := a
        end;
        if units > 0 then begin
          if Vec.get ops (o + 5) = 1 then begin
            !bin_map.(bin) <- Bin_store.open_bin store ~now:tick ~label:"FF";
            incr calls
          end;
          ignore (Bin_store.insert_residual store !bin_map.(bin) items.(e));
          incr calls
        end
        else begin
          ignore
            (Bin_store.remove_at store ~now:tick ~item_id:(Vec.get ops (o + 1))
               ~bin:!bin_map.(bin) ~units:(-units));
          incr calls
        end
      done;
      !calls)

(* The index calls First-Fit makes: a leftmost-fit query per arrival,
   then a push (new bin) or an update; per departure an update, or a
   deactivation when the bin closed. *)
let ff_index ops =
  let n = Vec.length ops / width in
  let idx = Ff_index.create () in
  let slot_of = ref (Array.make 1024 (-1)) and residual = ref (Array.make 1024 0) in
  time_ns (fun () ->
      let calls = ref 0 in
      for e = 0 to n - 1 do
        let o = e * width in
        let units = Vec.get ops (o + 3) and bin = Vec.get ops (o + 4) in
        if bin >= Array.length !slot_of then begin
          let grow a fill =
            let b = Array.make (2 * (bin + 1)) fill in
            Array.blit a 0 b 0 (Array.length a);
            b
          in
          slot_of := grow !slot_of (-1);
          residual := grow !residual 0
        end;
        if units > 0 then begin
          ignore (Ff_index.first_fit_idx idx units);
          if Vec.get ops (o + 5) = 1 then begin
            !residual.(bin) <- Load.capacity - units;
            !slot_of.(bin) <- Ff_index.push idx ~residual:!residual.(bin)
          end
          else begin
            !residual.(bin) <- !residual.(bin) - units;
            Ff_index.set idx !slot_of.(bin) !residual.(bin)
          end;
          calls := !calls + 2
        end
        else begin
          !residual.(bin) <- !residual.(bin) - units;
          if Vec.get ops (o + 5) = 1 then Ff_index.deactivate idx !slot_of.(bin)
          else Ff_index.set idx !slot_of.(bin) !residual.(bin);
          incr calls
        end
      done;
      !calls)

let run ops = { depart_queue = depart_queue ops; bin_store = bin_store ops; ff_index = ff_index ops }
