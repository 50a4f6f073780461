open Dbp_util
open Dbp_instance
open Dbp_sim

type gauge = {
  mutable gn_open : int;
  mutable cd_open : int;
  mutable max_gn : int;
  mutable max_classes : int;
}

let default_threshold i = 1.0 /. (2.0 *. sqrt (float_of_int i))

(* Threshold in load units for duration class i. *)
let threshold_units threshold i =
  let f = threshold i in
  if f <= 0.0 then invalid_arg "Ha: non-positive threshold";
  int_of_float (f *. float_of_int Load.capacity)

(* A type (i, c) packed into one int: the duration class i is
   [ceil_log2 duration] clamped to >= 1, so it fits in 6 bits, and the
   arrival block c is a non-negative tick quotient. Packed keys keep
   the per-item classification tables on unboxed int maps / int-keyed
   hashing instead of allocating a tuple (and hashing it structurally)
   for every arrival and departure. *)
let pack_ty ~cls ~block = (block lsl 6) lor cls

let make ?(rule = Dbp_binpack.Heuristics.First_fit) ?(threshold = default_threshold) gauge
    store =
  let dims = Bin_store.dims store in
  let gn = Fit_group.create ~rule ~dims ~label:"GN" () in
  let cd : (int, Fit_group.t) Hashtbl.t = Hashtbl.create 32 in
  let type_load = Imap.create ~capacity:32 () in
  (* Vector stores: per-type accumulated load in dimensions 1..d-1; the
     admission gauge is then the max over dimensions, so a type whose
     load crosses the threshold in {e any} resource goes to CD bins.
     Empty (and never touched) at d = 1. *)
  let type_extra : (int, int array) Hashtbl.t = Hashtbl.create 32 in
  let owner : (Bin_store.bin_id, Fit_group.t) Hashtbl.t = Hashtbl.create 64 in
  let classes = Hashtbl.create 8 in
  let update () =
    match gauge with
    | None -> ()
    | Some g ->
        g.gn_open <- Fit_group.open_count gn;
        g.cd_open <- Hashtbl.fold (fun _ grp acc -> acc + Fit_group.open_count grp) cd 0;
        if g.gn_open > g.max_gn then g.max_gn <- g.gn_open;
        g.max_classes <- max g.max_classes (Hashtbl.length classes)
  in
  let cd_group_of ty ~cls ~block =
    match Hashtbl.find_opt cd ty with
    | Some grp -> grp
    | None ->
        let grp =
          Fit_group.create ~rule ~dims ~label:(Printf.sprintf "CD(%d,%d)" cls block) ()
        in
        Hashtbl.replace cd ty grp;
        grp
  in
  let on_arrival ~now (r : Item.t) =
    let cls = Item.ha_class r in
    let block = Item.arrival_block r in
    let ty = pack_ty ~cls ~block in
    Hashtbl.replace classes cls ();
    let total = Imap.find_default type_load ty 0 + Load.to_units r.size in
    Imap.set type_load ty total;
    let gauge_total =
      if dims = 1 then total
      else begin
        let ex =
          match Hashtbl.find_opt type_extra ty with
          | Some a -> a
          | None ->
              let a = Array.make (dims - 1) 0 in
              Hashtbl.replace type_extra ty a;
              a
        in
        let m = ref total in
        for k = 0 to dims - 2 do
          ex.(k) <- ex.(k) + r.extra.(k);
          if ex.(k) > !m then m := ex.(k)
        done;
        !m
      end
    in
    let place_cd fresh =
      let grp = cd_group_of ty ~cls ~block in
      let bin =
        if fresh then Fit_group.place_new grp store ~now r
        else Fit_group.place grp store ~now r
      in
      Hashtbl.replace owner bin grp;
      bin
    in
    let bin =
      match Hashtbl.find_opt cd ty with
      | Some grp when Fit_group.open_count grp > 0 -> place_cd false
      | _ ->
          if gauge_total <= threshold_units threshold cls then begin
            let bin = Fit_group.place gn store ~now r in
            Hashtbl.replace owner bin gn;
            bin
          end
          else place_cd true
    in
    update ();
    bin
  in
  let on_departure ~now:_ (r : Item.t) ~bin ~closed =
    let ty = pack_ty ~cls:(Item.ha_class r) ~block:(Item.arrival_block r) in
    let remaining = Imap.find_default type_load ty 0 - Load.to_units r.size in
    if remaining > 0 then Imap.set type_load ty remaining
    else Imap.remove type_load ty;
    if dims > 1 then begin
      match Hashtbl.find_opt type_extra ty with
      | Some ex ->
          let all0 = ref true in
          for k = 0 to dims - 2 do
            ex.(k) <- ex.(k) - r.extra.(k);
            if ex.(k) <> 0 then all0 := false
          done;
          if !all0 && remaining <= 0 then Hashtbl.remove type_extra ty
      | None -> ()
    end;
    let grp =
      match Hashtbl.find_opt owner bin with
      | Some grp -> grp
      | None -> invalid_arg "Ha.on_departure: unowned bin"
    in
    Fit_group.note_depart grp store bin ~closed;
    if closed then begin
      Hashtbl.remove owner bin;
      (* Drop exhausted CD groups so type tables stay small; a type's
         bins never come back once closed (its arrival block has
         passed). *)
      if grp != gn && Fit_group.open_count grp = 0 then Hashtbl.remove cd ty
    end;
    update ()
  in
  (* Relocations leave the type-load gauges alone (the item is still
     live, so its type's total is unchanged); only the two bins' fit
     groups need resyncing. The exhausted-CD-group pruning done on
     departure-close is skipped here: a bin may hold items of other
     types after earlier moves, so the moved item's type does not
     identify the group's type key — an empty group lingering in [cd]
     is only a size optimization, never a correctness issue. *)
  let on_move ~now:_ _ ~src ~dst ~closed =
    (match Hashtbl.find_opt owner src with
    | Some grp -> Fit_group.note_depart grp store src ~closed
    | None -> invalid_arg "Ha.on_move: unowned bin");
    if closed then Hashtbl.remove owner src;
    (match Hashtbl.find_opt owner dst with
    | Some grp -> Fit_group.note_insert grp store dst
    | None -> invalid_arg "Ha.on_move: unowned bin");
    update ()
  in
  { Policy.name = "HA"; on_arrival; on_departure; on_move = Some on_move }

let policy ?rule ?threshold () store = make ?rule ?threshold None store

let instrumented ?rule ?threshold () =
  let gauge = { gn_open = 0; cd_open = 0; max_gn = 0; max_classes = 0 } in
  let factory store = make ?rule ?threshold (Some gauge) store in
  (factory, gauge)
