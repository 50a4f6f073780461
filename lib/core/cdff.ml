open Dbp_util
open Dbp_instance
open Dbp_sim

type gauge = {
  mutable rows_active : int;
  mutable max_row_bins : int;
  mutable segments : int;
}

type segment = { start : int; mutable top : int  (** n = log2 of the segment size *) }

let make ?(rule = Dbp_binpack.Heuristics.First_fit) gauge store =
  let rows : (int, Fit_group.t) Hashtbl.t = Hashtbl.create 16 in
  let owner : (Bin_store.bin_id, Fit_group.t) Hashtbl.t = Hashtbl.create 64 in
  let seg = ref None in
  let update () =
    match gauge with
    | None -> ()
    | Some g ->
        let active = ref 0 and biggest = ref 0 in
        Hashtbl.iter
          (fun _ grp ->
            let n = Fit_group.open_count grp in
            if n > 0 then incr active;
            if n > !biggest then biggest := n)
          rows;
        g.rows_active <- !active;
        g.max_row_bins <- max g.max_row_bins !biggest
  in
  let row_group r =
    match Hashtbl.find_opt rows r with
    | Some grp -> grp
    | None ->
        let grp =
          Fit_group.create ~rule ~dims:(Bin_store.dims store)
            ~label:(Printf.sprintf "row%d" r) ()
        in
        Hashtbl.replace rows r grp;
        grp
  in
  (* Re-key every row by [shift] when the segment's top class grows
     mid-tick (the paper's "adapts as larger items arrive"): row indices
     are distances below the top, so a larger top pushes existing rows
     down. Bin labels follow so figures show the final row structure. *)
  let shift_rows shift =
    let entries = Hashtbl.fold (fun r grp acc -> (r, grp) :: acc) rows [] in
    Hashtbl.reset rows;
    List.iter
      (fun (r, grp) ->
        let r' = r + shift in
        Fit_group.relabel grp store (Printf.sprintf "row%d" r');
        Hashtbl.replace rows r' grp)
      entries
  in
  let on_arrival ~now (r : Item.t) =
    let cls = Item.length_class r in
    let s =
      match !seg with
      | Some s when now < s.start + Ints.pow2 s.top -> s
      | _ ->
          (* New segment: forget the previous segment's rows (for aligned
             inputs they are empty by now). *)
          Hashtbl.reset rows;
          let s = { start = now; top = cls } in
          seg := Some s;
          (match gauge with None -> () | Some g -> g.segments <- g.segments + 1);
          s
    in
    if now = s.start && cls > s.top then begin
      shift_rows (cls - s.top);
      s.top <- cls
    end;
    let m = if now = s.start then s.top else min s.top (Ints.ntz (now - s.start)) in
    let row = max 0 (m - cls) in
    let grp = row_group row in
    let bin = Fit_group.place grp store ~now r in
    Hashtbl.replace owner bin grp;
    update ();
    bin
  in
  let on_departure ~now:_ (_ : Item.t) ~bin ~closed =
    (match Hashtbl.find_opt owner bin with
    | Some grp -> Fit_group.note_depart grp store bin ~closed
    | None -> invalid_arg "Cdff.on_departure: unowned bin");
    if closed then Hashtbl.remove owner bin;
    update ()
  in
  (* [owner] survives [shift_rows] re-keying (it maps bins to groups,
     not row indices), so the move-side resync is the generic
     ownership-table pattern. *)
  let on_move ~now:_ (_ : Item.t) ~src ~dst ~closed =
    (match Hashtbl.find_opt owner src with
    | Some grp -> Fit_group.note_depart grp store src ~closed
    | None -> invalid_arg "Cdff.on_move: unowned bin");
    if closed then Hashtbl.remove owner src;
    (match Hashtbl.find_opt owner dst with
    | Some grp -> Fit_group.note_insert grp store dst
    | None -> invalid_arg "Cdff.on_move: unowned bin");
    update ()
  in
  { Policy.name = "CDFF"; on_arrival; on_departure; on_move = Some on_move }

let policy ?rule () store = make ?rule None store

let instrumented ?rule () =
  let gauge = { rows_active = 0; max_row_bins = 0; segments = 0 } in
  ((fun store -> make ?rule (Some gauge) store), gauge)
