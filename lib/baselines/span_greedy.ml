open Dbp_util
open Dbp_instance
open Dbp_sim

(* SpanGreedy picks, among open bins that fit the item, the first bin
   minimizing the span extension max(0, departure - horizon), where a
   bin's horizon is the latest departure ever inserted into it
   (monotone: members only depart, so fitting now implies fitting
   forever). It inserts only when the minimal extension is strictly
   below the item's duration, else opens a new bin.

   The scan decomposes into two fit-index queries over slots holding
   one residual column per dimension and the horizon as the last
   column, with the item's sizes as the residual thresholds:
   - a bin with horizon >= departure has extension 0, the global
     minimum; the scan would keep the first such bin, which is exactly
     [first_fit_all] with the departure as the horizon threshold
     (extension 0 is always < duration, so this is an unconditional
     insert);
   - otherwise every fitting bin has extension departure - horizon > 0,
     minimized by the maximum horizon, first-attained on ties — exactly
     [best_score_idx]. *)
let policy store =
  let dims = Bin_store.dims store in
  let index = Ff_index.create ~columns:(dims + 1) () in
  let need = Array.make (dims + 1) 0 in
  let bin_of_slot : Bin_store.bin_id Vec.t = Vec.create () in
  let slot_of_bin = Imap.create ~capacity:16 () in
  let horizon slot = Ff_index.column index slot dims in
  let sync slot bin =
    for k = 0 to dims - 1 do
      Ff_index.set_col index slot k (Bin_store.residual_units_dim store bin k)
    done
  in
  (* The horizon is a high-water mark: it only ever grows, on insertion
     (departures free capacity but leave it). *)
  let raise_horizon slot h = if h > horizon slot then Ff_index.set_col index slot dims h in
  let on_arrival ~now (r : Item.t) =
    let insert_at slot =
      let bin = Vec.get bin_of_slot slot in
      Bin_store.insert store bin r;
      sync slot bin;
      raise_horizon slot r.departure;
      bin
    in
    let open_fresh () =
      let bin = Bin_store.open_bin store ~now ~label:"SG" in
      Bin_store.insert store bin r;
      let slot = Ff_index.push index ~residual:(Bin_store.residual_units store bin) in
      sync slot bin;
      raise_horizon slot r.departure;
      Vec.push bin_of_slot bin;
      Imap.set slot_of_bin bin slot;
      bin
    in
    need.(0) <- Load.to_units r.size;
    for k = 1 to dims - 1 do
      need.(k) <- r.extra.(k - 1)
    done;
    need.(dims) <- r.departure;
    match Ff_index.first_fit_all index need with
    | slot when slot >= 0 ->
        (* Extension 0: the horizon already covers the item. *)
        insert_at slot
    | _ -> (
        match Ff_index.best_score_idx index need with
        | slot when slot >= 0 && r.departure - horizon slot < Item.duration r -> insert_at slot
        | _ -> open_fresh ())
  in
  let on_departure ~now:_ _ ~bin ~closed =
    let slot = Imap.find slot_of_bin bin in
    if closed then begin
      Ff_index.deactivate index slot;
      Imap.remove slot_of_bin bin
    end
    else sync slot bin
  in
  (* A relocation frees capacity at the source (or closes it) and
     consumes capacity at the destination, whose horizon grows to the
     moved item's departure if that exceeds it. *)
  let on_move ~now (r : Item.t) ~src ~dst ~closed =
    on_departure ~now r ~bin:src ~closed;
    let dslot = Imap.find slot_of_bin dst in
    sync dslot dst;
    raise_horizon dslot r.departure
  in
  { Policy.name = "SpanGreedy"; on_arrival; on_departure; on_move = Some on_move }
