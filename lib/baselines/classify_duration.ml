open Dbp_instance
open Dbp_sim

let policy ?(rule = Dbp_binpack.Heuristics.First_fit) () store =
  let classes : (int, Fit_group.t) Hashtbl.t = Hashtbl.create 16 in
  let owner : (Bin_store.bin_id, Fit_group.t) Hashtbl.t = Hashtbl.create 64 in
  let group_of cls =
    match Hashtbl.find_opt classes cls with
    | Some g -> g
    | None ->
        let g =
          Fit_group.create ~rule ~dims:(Bin_store.dims store)
            ~label:(Printf.sprintf "class%d" cls) ()
        in
        Hashtbl.replace classes cls g;
        g
  in
  {
    Policy.name = "CD";
    on_arrival =
      (fun ~now r ->
        let g = group_of (Item.length_class r) in
        let bin = Fit_group.place g store ~now r in
        Hashtbl.replace owner bin g;
        bin);
    on_departure =
      (fun ~now:_ _ ~bin ~closed ->
        (match Hashtbl.find_opt owner bin with
        | Some g -> Fit_group.note_depart g store bin ~closed
        | None -> invalid_arg "Classify_duration: unowned bin");
        if closed then Hashtbl.remove owner bin);
    on_move =
      Some
        (fun ~now:_ _ ~src ~dst ~closed ->
          (match Hashtbl.find_opt owner src with
          | Some g -> Fit_group.note_depart g store src ~closed
          | None -> invalid_arg "Classify_duration: unowned bin");
          if closed then Hashtbl.remove owner src;
          match Hashtbl.find_opt owner dst with
          | Some g -> Fit_group.note_insert g store dst
          | None -> invalid_arg "Classify_duration: unowned bin");
  }
