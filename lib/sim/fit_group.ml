open Dbp_util
open Dbp_instance
module H = Dbp_binpack.Heuristics

type t = {
  rule : H.rule;
  dims : int;
  mutable glabel : string;
  index : Ff_index.t;
  need : int array;  (** vector thresholds, one per dimension, refilled per arrival *)
  gid : int;  (** process-unique group id, tags the bin cookies below *)
  bin_of_slot : Bin_store.bin_id Vec.t;
  slot_of_bin : Imap.t;
  mutable n_open : int;
  mutable last_slot : int;  (** most recent slot, for Next-Fit *)
}

(* Each open member bin carries its index slot in the store's per-bin
   cookie, tagged with the owning group's id:
   [(gid lsl 32) lor slot]. The per-departure bin-to-slot lookup is
   then one array read plus a tag compare — the ownership check the
   [slot_of_bin] map used to answer with a hash probe. The map stays as
   the membership record for the cold queries ([owns], [relabel],
   [note_close]); only the hot paths bypass it. Group ids are
   process-unique (simulations are single-domain). *)
let next_gid = ref 0
let cookie_slot_bits = 32
let cookie_slot_mask = (1 lsl cookie_slot_bits) - 1

(* The index has one column per dimension. At d > 1, Best/Worst-Fit
   score fitting bins by the L1 norm of the residual vector (DESIGN.md,
   "Vector loads"), kept in one more column as a quantity to maximize:
   the L1 residual for WF, the L1 load for BF — so both rules are one
   [best_score_idx] query. At d = 1 Best-Fit uses the index's sorted
   keys instead, and Worst-Fit the column-0 maximum. *)
let scored rule dims =
  dims > 1 && match rule with H.Best_fit | H.Worst_fit -> true | _ -> false

let create ?(rule = H.First_fit) ~dims ~label () =
  if dims < 1 then invalid_arg "Fit_group.create: dims < 1";
  let columns = if scored rule dims then dims + 1 else dims in
  let successor = dims = 1 && rule = H.Best_fit in
  incr next_gid;
  {
    rule;
    dims;
    glabel = label;
    index = Ff_index.create ~columns ~successor ();
    need = Array.make dims 0;
    gid = !next_gid;
    bin_of_slot = Vec.create ();
    slot_of_bin = Imap.create ~capacity:16 ();
    n_open = 0;
    last_slot = -1;
  }

let label t = t.glabel
let open_count t = t.n_open

let relabel t store label =
  t.glabel <- label;
  Imap.iter (fun bin _slot -> Bin_store.relabel store bin label) t.slot_of_bin

let owns t bin = Imap.mem t.slot_of_bin bin

let open_bins t =
  Ff_index.active t.index |> List.map (fun slot -> Vec.get t.bin_of_slot slot)

(* Resync a slot's columns after its bin changed: dimension 0's residual
   comes from the caller (the store hands it back on insert), the other
   dimensions are read from the store, and the score column follows
   them. *)
let sync_extra t store slot bin residual =
  let l1 = ref residual in
  for k = 1 to t.dims - 1 do
    let r = Bin_store.residual_units_dim store bin k in
    Ff_index.set_col t.index slot k r;
    l1 := !l1 + r
  done;
  match t.rule with
  | H.Worst_fit -> Ff_index.set_col t.index slot t.dims !l1
  | H.Best_fit -> Ff_index.set_col t.index slot t.dims ((t.dims * Load.capacity) - !l1)
  | H.First_fit | H.Next_fit -> ()

let sync t store slot bin residual =
  Ff_index.set t.index slot residual;
  if t.dims > 1 then sync_extra t store slot bin residual

(* Scalar slot selection, -1 when nothing fits. Every rule is a single
   index query; ties break toward the smallest slot = the
   earliest-opened bin (the index contract, pinned by tests). *)
let choose_slot t need =
  let i = t.index in
  match t.rule with
  | H.First_fit -> Ff_index.first_fit_idx i need
  | H.Next_fit ->
      if t.last_slot >= 0 && Ff_index.residual i t.last_slot >= need then t.last_slot
      else -1
  | H.Best_fit -> Ff_index.best_fit_idx i need
  | H.Worst_fit -> Ff_index.worst_fit_idx i need

(* Vector slot selection: the item's size in every dimension is a
   threshold on that dimension's column, so each rule is still one
   index query — FF the leftmost slot meeting them all, NF a check of
   its last slot, BF/WF the best score among slots meeting them. *)
let choose_slot_vec t (r : Item.t) need =
  let nd = t.need in
  nd.(0) <- need;
  for k = 1 to t.dims - 1 do
    nd.(k) <- r.extra.(k - 1)
  done;
  match t.rule with
  | H.First_fit -> Ff_index.first_fit_all t.index nd
  | H.Next_fit ->
      if t.last_slot >= 0 && Ff_index.fits t.index t.last_slot nd then t.last_slot
      else -1
  | H.Best_fit | H.Worst_fit -> Ff_index.best_score_idx t.index nd

let register t store bin ~residual =
  let slot = Ff_index.push t.index ~residual in
  Vec.push t.bin_of_slot bin;
  assert (Vec.length t.bin_of_slot = Ff_index.length t.index);
  assert (slot <= cookie_slot_mask);
  Imap.set t.slot_of_bin bin slot;
  Bin_store.set_cookie store bin ((t.gid lsl cookie_slot_bits) lor slot);
  if t.dims > 1 then sync_extra t store slot bin residual;
  t.n_open <- t.n_open + 1;
  t.last_slot <- slot;
  slot

(* Every bin a group gets is opened here (or re-registered against a
   store of the group's own dims by [of_json]), so this is where a store
   of another dimensionality is refused — before anything changes. *)
let place_new t store ~now (r : Item.t) =
  if Bin_store.dims store <> t.dims then
    invalid_arg "Fit_group: the store's dims differ from the group's";
  let bin = Bin_store.open_bin store ~now ~label:t.glabel in
  let residual = Bin_store.insert_residual store bin r in
  ignore (register t store bin ~residual);
  bin

let place t store ~now (r : Item.t) =
  let need = Load.to_units r.size in
  let slot = if t.dims = 1 then choose_slot t need else choose_slot_vec t r need in
  if slot < 0 then place_new t store ~now r
  else begin
    let bin = Vec.get t.bin_of_slot slot in
    sync t store slot bin (Bin_store.insert_residual store bin r);
    t.last_slot <- slot;
    bin
  end

(* Hot lookup: the cookie stashed at [register]. A wrong or stale tag
   (unset cookie, another group's bin) fails the compare and raises,
   matching the map-based check this replaces. *)
let slot_hot t store bin op =
  let c = Bin_store.cookie store bin in
  if c lsr cookie_slot_bits <> t.gid then
    invalid_arg ("Fit_group." ^ op ^ ": bin not in group");
  c land cookie_slot_mask

let slot_exn t bin op =
  let slot = Imap.find_default t.slot_of_bin bin (-1) in
  if slot < 0 then invalid_arg ("Fit_group." ^ op ^ ": bin not in group");
  slot

let note_insert t store bin =
  sync t store (slot_hot t store bin "note_insert") bin (Bin_store.residual_units store bin)

let note_close t bin =
  let slot = slot_exn t bin "note_close" in
  Ff_index.deactivate t.index slot;
  Imap.remove t.slot_of_bin bin;
  t.n_open <- t.n_open - 1;
  if t.last_slot = slot then t.last_slot <- -1

let note_depart t store bin ~closed =
  if closed then begin
    note_close t bin;
    (* A retained bin record outlives its close; clearing the stash
       makes a later misdirected notification raise instead of silently
       reactivating the slot. (A retired slot is already unreadable.) *)
    if not (Bin_store.retire_mode store) then Bin_store.set_cookie store bin (-1)
  end
  else
    sync t store (slot_hot t store bin "note_depart") bin (Bin_store.residual_units store bin)

(* --- policy wrapper ---

   The standard wiring of one group over the whole store: every Any-Fit
   baseline is this, and the serve daemon builds its per-shard policies
   here rather than in dbp_baselines (which sits above dbp_sim in the
   library order). Exposing it from the group module also lets a caller
   keep the group handle — the serve snapshot path needs it. *)

let rule_code = function
  | H.First_fit -> "FF"
  | H.Best_fit -> "BF"
  | H.Worst_fit -> "WF"
  | H.Next_fit -> "NF"

let rule_of_code = function
  | "FF" -> Some H.First_fit
  | "BF" -> Some H.Best_fit
  | "WF" -> Some H.Worst_fit
  | "NF" -> Some H.Next_fit
  | _ -> None

let policy_of t store =
  {
    Policy.name = t.glabel;
    on_arrival = (fun ~now r -> place t store ~now r);
    on_departure = (fun ~now:_ _ ~bin ~closed -> note_depart t store bin ~closed);
    (* Every bin belongs to the one group, so a relocation is a
       departure-side resync at the source plus an insert-side one at
       the destination. *)
    on_move =
      Some
        (fun ~now:_ _ ~src ~dst ~closed ->
          note_depart t store src ~closed;
          note_insert t store dst);
  }

let policy ?name rule store =
  let name = Option.value name ~default:(rule_code rule) in
  policy_of (create ~rule ~dims:(Bin_store.dims store) ~label:name ()) store

(* --- snapshot codec ---

   A group serializes as its rule, label, member bins in slot order, and
   the Next-Fit anchor bin. Nothing else: residuals are re-read from the
   (already restored) store, the index is rebuilt by re-registering each
   bin — which compacts slots to 0..n-1 and re-stamps every cookie under
   the new process's group id. Slot numbers are unobservable (all the
   rules' tie-breaks use relative slot order, which registration
   preserves), so the compaction is behavior-neutral. *)

let to_json t =
  let bins = open_bins t in
  let last_bin =
    if t.last_slot < 0 then -1 else Vec.get t.bin_of_slot t.last_slot
  in
  Json.Obj
    [
      ("rule", Json.String (rule_code t.rule));
      ("label", Json.String t.glabel);
      ("bins", Json.List (List.map (fun b -> Json.Int b) bins));
      ("last_bin", Json.Int last_bin);
    ]

let of_json ~store j =
  let fail msg = failwith ("Fit_group.of_json: " ^ msg) in
  let field name =
    match Json.member name j with Some v -> v | None -> fail ("missing " ^ name)
  in
  let rule =
    match field "rule" with
    | Json.String s -> (
        match rule_of_code s with
        | Some r -> r
        | None -> fail ("unknown rule " ^ s))
    | _ -> fail "rule: expected string"
  in
  let label =
    match field "label" with Json.String s -> s | _ -> fail "label: expected string"
  in
  let last_bin =
    match field "last_bin" with Json.Int b -> b | _ -> fail "last_bin: expected int"
  in
  let t = create ~rule ~dims:(Bin_store.dims store) ~label () in
  (match field "bins" with
  | Json.List bins ->
      List.iter
        (function
          | Json.Int bin ->
              if not (Bin_store.is_open store bin) then
                fail (Printf.sprintf "bin %d is not open in the store" bin);
              if Imap.mem t.slot_of_bin bin then
                fail (Printf.sprintf "bin %d registered twice" bin);
              ignore
                (register t store bin
                   ~residual:(Bin_store.residual_units store bin))
          | _ -> fail "bins: expected int list")
        bins
  | _ -> fail "bins: expected list");
  t.last_slot <-
    (if last_bin < 0 then -1
     else
       match Imap.find_default t.slot_of_bin last_bin (-1) with
       | -1 -> fail (Printf.sprintf "last_bin %d is not a member" last_bin)
       | slot -> slot);
  t
