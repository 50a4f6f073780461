open Dbp_instance
open Dbp_sim

let class_of ~classes ~mu_hint ~min_duration duration =
  if classes = 1 || mu_hint <= 1.0 then 0
  else begin
    let ratio = float_of_int duration /. float_of_int min_duration in
    let j = int_of_float (float_of_int classes *. log ratio /. log mu_hint) in
    max 0 (min (classes - 1) j)
  end

let policy ?(rule = Dbp_binpack.Heuristics.First_fit) ~classes ~mu_hint
    ?(min_duration = 1) () store =
  if classes < 1 then invalid_arg "Rt_classify.policy: classes < 1";
  if min_duration < 1 then invalid_arg "Rt_classify.policy: min_duration < 1";
  let groups : (int, Fit_group.t) Hashtbl.t = Hashtbl.create 16 in
  let owner : (Bin_store.bin_id, Fit_group.t) Hashtbl.t = Hashtbl.create 64 in
  let group_of cls =
    match Hashtbl.find_opt groups cls with
    | Some g -> g
    | None ->
        let g =
          Fit_group.create ~rule ~dims:(Bin_store.dims store)
            ~label:(Printf.sprintf "rt%d" cls) ()
        in
        Hashtbl.replace groups cls g;
        g
  in
  {
    Policy.name = Printf.sprintf "RT(%d)" classes;
    on_arrival =
      (fun ~now r ->
        let cls = class_of ~classes ~mu_hint ~min_duration (Item.duration r) in
        let g = group_of cls in
        let bin = Fit_group.place g store ~now r in
        Hashtbl.replace owner bin g;
        bin);
    on_departure =
      (fun ~now:_ _ ~bin ~closed ->
        (match Hashtbl.find_opt owner bin with
        | Some g -> Fit_group.note_depart g store bin ~closed
        | None -> invalid_arg "Rt_classify: unowned bin");
        if closed then Hashtbl.remove owner bin);
    on_move =
      Some
        (fun ~now:_ _ ~src ~dst ~closed ->
          (match Hashtbl.find_opt owner src with
          | Some g -> Fit_group.note_depart g store src ~closed
          | None -> invalid_arg "Rt_classify: unowned bin");
          if closed then Hashtbl.remove owner src;
          match Hashtbl.find_opt owner dst with
          | Some g -> Fit_group.note_insert g store dst
          | None -> invalid_arg "Rt_classify: unowned bin");
  }

let optimal_classes ~mu =
  if mu <= 2.0 then 1
  else begin
    let bound n = (mu ** (1.0 /. float_of_int n)) +. float_of_int n +. 3.0 in
    let limit = max 1 (int_of_float (Float.log2 mu)) + 2 in
    let best = ref 1 in
    for n = 2 to limit do
      if bound n < bound !best then best := n
    done;
    !best
  end

let auto ~mu_hint store =
  policy ~classes:(optimal_classes ~mu:mu_hint) ~mu_hint () store
