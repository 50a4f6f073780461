open Dbp_util
open Dbp_instance

type bin_id = int

(* Packed [current] values: (bin lsl size_bits) lor size_units. A size
   is at most Load.capacity = 1e9 < 2^30 units, so 30 low bits hold it
   exactly and the bin id gets the rest (open_bin guards the ceiling).
   One Imap probe then yields both facts [remove] needs — which bin, and
   how much load to give back — with no record or Item.t lookup. *)
let size_bits = 30
let size_mask = (1 lsl size_bits) - 1
let () = assert (Load.capacity <= size_mask)
let max_slot = 1 lsl 32

(* [b_closed] state encoding. *)
let open_mark = -1
let freed_mark = -2

(* Bin records as parallel int arrays indexed by bin id. The live set is
   an intrusive doubly-linked list threaded through [b_prev]/[b_next] in
   opening order, so [open_bins] — the First-Fit scan order — is a plain
   traversal and closing a bin unlinks it in O(1).

   Two retention modes share the arena. [`Retain] (the default) never
   reuses a slot: ids are dense and monotonic, closed bins keep their
   record, item lists, and the permanent [history]/[ever] logs — what
   reports, figures and the validators need. [`Retire] recycles the slot
   of a closed bin through a free list (threaded through [b_next]): when
   a bin closes, its usage, count and lifetime fold into the running
   aggregates and the slot is handed to the next [open_bin], so memory
   is O(open bins), not O(bins ever) — the contract the streaming
   engine's million-item runs rely on. Retired ids may therefore be
   reassigned; nothing observable depends on id values (policies drop
   closed ids from their tables, and costs count ticks, not ids). *)
type t = {
  retire : bool;
  track : bool;  (** maintain [current] (item id -> packed bin, units) *)
  dims : int;  (** resource dimensions per bin; 1 = the scalar engine *)
  mutable b_load : int array;  (** load in units *)
  mutable b_extra : int array array;
      (** per-dimension load columns for dimensions 1..dims-1, parallel
          to [b_load]; [[||]] when [dims = 1], so the scalar path never
          touches them *)
  extra_current : (int, int array) Hashtbl.t;
      (** tracking stores with [dims > 1]: live item id -> extra units
          (the item's own array, never mutated) — what lets the id-only
          {!remove} give every dimension back *)
  mutable b_opened : int array;
  mutable b_closed : int array;  (** closing tick, or open/freed mark *)
  mutable b_count : int array;  (** items currently in the bin *)
  mutable b_prev : int array;  (** previous open bin in opening order, -1 = none *)
  mutable b_next : int array;  (** next open bin / free-list link *)
  mutable b_label : string array;
  mutable b_items : Item.t list array;  (** retain mode only; reverse order *)
  mutable cap : int;
  mutable next_fresh : int;  (** first never-used slot *)
  mutable free_head : int;  (** retire mode: head of the slot free list *)
  mutable opened : int;  (** bins ever opened (identity-independent) *)
  mutable live_head : int;  (** oldest open bin, -1 when none *)
  mutable live_tail : int;  (** newest open bin, -1 when none *)
  current : Imap.t;  (** active item id -> packed (bin, units) *)
  history : (int * bin_id) Vec.t;  (** retain mode only *)
  ever : Imap.t;  (** retain mode only: item id -> bin *)
  mutable n_open : int;
  mutable hw_open : int;
  mutable hw_items : int;
  mutable done_usage : int;
  mutable closed_count : int;
  lifetime_counts : int array;
  mutable lifetime_sum : int;
  mutable last_item : int;  (** item id of the most recent {!insert}, -1 = none *)
  mutable last_bin : bin_id;  (** bin of the most recent {!insert} *)
  mutable b_cookie : int array;  (** caller-owned stash per bin, -1 when unset *)
  moves_log : (int * int * bin_id * bin_id) Vec.t;
      (** retain mode only: (tick, item, src, dst) per {!move}, in
          execution order — what the validators replay to reconstruct
          per-item stints *)
  mutable moves_n : int;  (** moves ever (both modes) *)
  mutable moved_units_sum : int;  (** dimension-0 units carried by moves *)
}

let m_opens = Metrics.counter "bin_store.opens"
let m_closes = Metrics.counter "bin_store.closes"
let m_usage = Metrics.counter "bin_store.usage"
let m_max_open = Metrics.gauge "bin_store.max_open"
let m_live_items = Metrics.gauge "bin_store.live_items"
let lifetime_buckets = [| 1; 4; 16; 64; 256; 1024; 4096; 16384 |]
let m_lifetime = Metrics.histogram ~buckets:lifetime_buckets "bin_store.lifetime"
let m_moves = Metrics.counter "bin_store.moves"
let m_moved_units = Metrics.counter "bin_store.moved_units"

let initial_cap = 16

let create ?(retire = false) ?(track_items = true) ?(dims = 1) () =
  if (not track_items) && not retire then
    invalid_arg "Bin_store.create: track_items:false requires retire mode";
  if dims < 1 then invalid_arg "Bin_store.create: dims < 1";
  {
    retire;
    track = track_items;
    dims;
    b_load = Array.make initial_cap 0;
    b_extra = Array.init (dims - 1) (fun _ -> Array.make initial_cap 0);
    extra_current = Hashtbl.create (if dims > 1 then 64 else 1);
    b_opened = Array.make initial_cap 0;
    b_closed = Array.make initial_cap freed_mark;
    b_count = Array.make initial_cap 0;
    b_prev = Array.make initial_cap (-1);
    b_next = Array.make initial_cap (-1);
    b_label = Array.make initial_cap "";
    b_items = (if retire then [||] else Array.make initial_cap []);
    cap = initial_cap;
    next_fresh = 0;
    free_head = -1;
    opened = 0;
    live_head = -1;
    live_tail = -1;
    current = Imap.create ~capacity:64 ();
    history = Vec.create ();
    ever = Imap.create ~capacity:64 ();
    n_open = 0;
    hw_open = 0;
    hw_items = 0;
    done_usage = 0;
    closed_count = 0;
    lifetime_counts = Array.make (Array.length lifetime_buckets + 1) 0;
    lifetime_sum = 0;
    last_item = -1;
    last_bin = -1;
    b_cookie = Array.make initial_cap (-1);
    moves_log = Vec.create ();
    moves_n = 0;
    moved_units_sum = 0;
  }

let retire_mode t = t.retire
let dims t = t.dims

(* Existence check shared by the public per-bin accessors. A freed slot
   (retire mode) raises exactly like the dropped record used to. *)
let check_bin t id =
  if id < 0 || id >= t.next_fresh then invalid_arg "Bin_store: unknown bin id";
  if Array.unsafe_get t.b_closed id = freed_mark then
    invalid_arg "Bin_store: bin retired (store is in retire mode)"

let grow t =
  let cap' = 2 * t.cap in
  let extend a fill =
    let a' = Array.make cap' fill in
    Array.blit a 0 a' 0 t.cap;
    a'
  in
  t.b_load <- extend t.b_load 0;
  t.b_extra <- Array.map (fun col -> extend col 0) t.b_extra;
  t.b_opened <- extend t.b_opened 0;
  t.b_closed <- extend t.b_closed freed_mark;
  t.b_count <- extend t.b_count 0;
  t.b_prev <- extend t.b_prev (-1);
  t.b_next <- extend t.b_next (-1);
  t.b_label <- extend t.b_label "";
  t.b_cookie <- extend t.b_cookie (-1);
  if not t.retire then t.b_items <- extend t.b_items [];
  t.cap <- cap'

let open_bin t ~now ~label =
  let id =
    if t.free_head >= 0 then begin
      let id = t.free_head in
      t.free_head <- t.b_next.(id);
      id
    end
    else begin
      if t.next_fresh = t.cap then grow t;
      let id = t.next_fresh in
      t.next_fresh <- id + 1;
      id
    end
  in
  if id >= max_slot then invalid_arg "Bin_store.open_bin: too many concurrent bins";
  t.b_load.(id) <- 0;
  for k = 0 to t.dims - 2 do
    t.b_extra.(k).(id) <- 0
  done;
  t.b_opened.(id) <- now;
  t.b_closed.(id) <- open_mark;
  t.b_count.(id) <- 0;
  t.b_label.(id) <- label;
  t.b_cookie.(id) <- -1;
  if not t.retire then t.b_items.(id) <- [];
  t.b_prev.(id) <- t.live_tail;
  t.b_next.(id) <- -1;
  if t.live_tail >= 0 then t.b_next.(t.live_tail) <- id else t.live_head <- id;
  t.live_tail <- id;
  t.opened <- t.opened + 1;
  t.n_open <- t.n_open + 1;
  (* The gauge keeps a max, so publishing only on a new local peak
     leaves its final value unchanged and skips the metric call on
     every non-record open. *)
  if t.n_open > t.hw_open then begin
    t.hw_open <- t.n_open;
    Metrics.set_max m_max_open t.n_open
  end;
  Metrics.incr m_opens;
  id

let unlink_live t id =
  let p = t.b_prev.(id) and n = t.b_next.(id) in
  if p >= 0 then t.b_next.(p) <- n else t.live_head <- n;
  if n >= 0 then t.b_prev.(n) <- p else t.live_tail <- p;
  t.b_prev.(id) <- -1;
  t.b_next.(id) <- -1

let insert_residual t id (r : Item.t) =
  check_bin t id;
  if t.b_closed.(id) <> open_mark then invalid_arg "Bin_store.insert: bin is closed";
  if Item.dims r <> t.dims then
    invalid_arg "Bin_store.insert: item/store dimensionality mismatch";
  let u = Load.to_units r.size in
  let load = t.b_load.(id) in
  if load + u > Load.capacity then invalid_arg "Bin_store.insert: does not fit";
  for k = 0 to t.dims - 2 do
    if t.b_extra.(k).(id) + r.extra.(k) > Load.capacity then
      invalid_arg "Bin_store.insert: does not fit"
  done;
  if t.track then begin
    if not (Imap.add_new t.current r.id ((id lsl size_bits) lor u)) then
      invalid_arg "Bin_store.insert: item already packed";
    let live = Imap.length t.current in
    if live > t.hw_items then begin
      t.hw_items <- live;
      Metrics.set_max m_live_items live
    end
  end;
  if t.track && t.dims > 1 then Hashtbl.replace t.extra_current r.id r.extra;
  t.last_item <- r.id;
  t.last_bin <- id;
  t.b_load.(id) <- load + u;
  for k = 0 to t.dims - 2 do
    t.b_extra.(k).(id) <- t.b_extra.(k).(id) + r.extra.(k)
  done;
  t.b_count.(id) <- t.b_count.(id) + 1;
  if not t.retire then begin
    t.b_items.(id) <- r :: t.b_items.(id);
    Imap.set t.ever r.id id;
    Vec.push t.history (r.id, id)
  end;
  Load.capacity - (load + u)

let insert t id r = ignore (insert_residual t id r)

(* One pass; the relative order of the remaining items is preserved. *)
let rec remove_item item_id prefix = function
  | [] -> assert false
  | (r : Item.t) :: rest ->
      if r.id = item_id then List.rev_append prefix rest
      else remove_item item_id (r :: prefix) rest

let observe_lifetime t life =
  t.lifetime_sum <- t.lifetime_sum + life;
  let n = Array.length lifetime_buckets in
  let rec slot i = if i = n || life <= lifetime_buckets.(i) then i else slot (i + 1) in
  let i = slot 0 in
  t.lifetime_counts.(i) <- t.lifetime_counts.(i) + 1

(* Close an emptied bin: fold its lifetime into the aggregates and
   either retire the slot or stamp the closing tick. Shared by item
   departures ([release]) and by [move] draining a source bin. *)
let close_empty t ~now id =
  unlink_live t id;
  t.n_open <- t.n_open - 1;
  let life = now - t.b_opened.(id) in
  t.done_usage <- t.done_usage + life;
  t.closed_count <- t.closed_count + 1;
  observe_lifetime t life;
  (* Retire: the aggregates above are all that survives; recycling the
     slot is what keeps a streamed run's memory bounded. The caller's
     [on_departure] may still read nothing of this bin — the next
     [open_bin] would repurpose it. *)
  if t.retire then begin
    t.b_closed.(id) <- freed_mark;
    t.b_next.(id) <- t.free_head;
    t.free_head <- id
  end
  else t.b_closed.(id) <- now;
  Metrics.incr m_closes;
  Metrics.add m_usage life;
  Metrics.observe m_lifetime life

(* Give back [u] units of [item_id]'s load to bin [id]; close the bin if
   it emptied. The packing record is the caller's business: [remove]
   resolves it through [current], [remove_at] is handed it by a caller
   that tracked the placement itself. *)
let release t ~now ~item_id ~extra id u =
  t.b_load.(id) <- t.b_load.(id) - u;
  for k = 0 to t.dims - 2 do
    t.b_extra.(k).(id) <- t.b_extra.(k).(id) - extra.(k)
  done;
  let count = t.b_count.(id) - 1 in
  t.b_count.(id) <- count;
  if not t.retire then t.b_items.(id) <- remove_item item_id [] t.b_items.(id);
  let closed = count = 0 in
  if closed then close_empty t ~now id;
  closed

(* Resolve a tracked item's extra dimensions (only a [dims > 1] store
   has entries; the shared empty array serves everyone else). *)
let take_extra t item_id =
  if t.dims = 1 then Item.no_extra
  else begin
    match Hashtbl.find_opt t.extra_current item_id with
    | Some e ->
        Hashtbl.remove t.extra_current item_id;
        e
    | None -> raise Not_found
  end

let remove_packed t ~now ~item_id =
  let packed = Imap.take t.current item_id in
  (* raises Not_found *)
  let id = packed lsr size_bits in
  let u = packed land size_mask in
  let extra = take_extra t item_id in
  let closed = release t ~now ~item_id ~extra id u in
  (id lsl 1) lor Bool.to_int closed

let remove t ~now ~item_id =
  let p = remove_packed t ~now ~item_id in
  (p lsr 1, p land 1 = 1)

let remove_at ?(extra = Item.no_extra) t ~now ~item_id ~bin ~units =
  if Array.length extra <> t.dims - 1 then
    invalid_arg "Bin_store.remove_at: extra/store dimensionality mismatch";
  if t.track then begin
    let packed = Imap.take t.current item_id in
    if packed <> (bin lsl size_bits) lor units then
      invalid_arg "Bin_store.remove_at: bin/units disagree with the packing record";
    if t.dims > 1 then Hashtbl.remove t.extra_current item_id
  end;
  release t ~now ~item_id ~extra bin units

(* Relocate a live item into another open bin. The arrival logs
   ([history]/[ever]) record *initial* placements only; moves are logged
   separately, so the two streams together reconstruct per-item stints.
   [last_item]/[last_bin] are deliberately untouched: a move performed
   inside [on_arrival] must not disturb the engine's "did the policy
   pack where it said?" check, which keys on the arrival insert. *)
let move t ~now ~item_id ~dst =
  if not t.track then
    invalid_arg "Bin_store.move: store does not track items (track_items:false)";
  check_bin t dst;
  if t.b_closed.(dst) <> open_mark then
    invalid_arg "Bin_store.move: destination bin is closed";
  let packed =
    match Imap.find_opt t.current item_id with
    | Some p -> p
    | None -> invalid_arg "Bin_store.move: item is not live"
  in
  let src = packed lsr size_bits in
  let u = packed land size_mask in
  if src = dst then invalid_arg "Bin_store.move: item already in that bin";
  if t.b_load.(dst) + u > Load.capacity then
    invalid_arg "Bin_store.move: does not fit";
  let extra =
    if t.dims = 1 then Item.no_extra else Hashtbl.find t.extra_current item_id
  in
  for k = 0 to t.dims - 2 do
    if t.b_extra.(k).(dst) + extra.(k) > Load.capacity then
      invalid_arg "Bin_store.move: does not fit"
  done;
  Imap.set t.current item_id ((dst lsl size_bits) lor u);
  t.b_load.(dst) <- t.b_load.(dst) + u;
  t.b_load.(src) <- t.b_load.(src) - u;
  for k = 0 to t.dims - 2 do
    t.b_extra.(k).(dst) <- t.b_extra.(k).(dst) + extra.(k);
    t.b_extra.(k).(src) <- t.b_extra.(k).(src) - extra.(k)
  done;
  t.b_count.(dst) <- t.b_count.(dst) + 1;
  let count = t.b_count.(src) - 1 in
  t.b_count.(src) <- count;
  if not t.retire then begin
    (* Retain mode keeps per-bin contents and the full move log; retire
       mode drops both so streaming memory stays O(live items) — the
       counters below still aggregate every move. *)
    let r = List.find (fun (r : Item.t) -> r.id = item_id) t.b_items.(src) in
    t.b_items.(src) <- remove_item item_id [] t.b_items.(src);
    t.b_items.(dst) <- r :: t.b_items.(dst);
    Vec.push t.moves_log (now, item_id, src, dst)
  end;
  t.moves_n <- t.moves_n + 1;
  t.moved_units_sum <- t.moved_units_sum + u;
  Metrics.incr m_moves;
  Metrics.add m_moved_units u;
  let closed = count = 0 in
  if closed then close_empty t ~now src;
  closed

let move_count t = t.moves_n
let moved_units t = t.moved_units_sum
let move_logged t = Vec.length t.moves_log
let move_entry t i = Vec.get t.moves_log i
let move_log t = Vec.to_list t.moves_log
let load t id = check_bin t id; Load.of_units t.b_load.(id)
let residual t id = check_bin t id; Load.of_units (Load.capacity - t.b_load.(id))
let residual_units t id = check_bin t id; Load.capacity - t.b_load.(id)

let check_dim t k op =
  if k < 0 || k >= t.dims then invalid_arg ("Bin_store." ^ op ^ ": bad dimension")

let load_units_dim t id k =
  check_bin t id;
  check_dim t k "load_units_dim";
  if k = 0 then t.b_load.(id) else t.b_extra.(k - 1).(id)

let residual_units_dim t id k = Load.capacity - load_units_dim t id k

(* The vector fit predicate over dimensions 1.. only; dimension 0 is
   the caller's to check. *)
let fits_extra t id (extra : int array) =
  let ok = ref true in
  for k = 0 to t.dims - 2 do
    if t.b_extra.(k).(id) + extra.(k) > Load.capacity then ok := false
  done;
  !ok
let is_open t id = check_bin t id; t.b_closed.(id) = open_mark
let label t id = check_bin t id; t.b_label.(id)
let relabel t id label = check_bin t id; t.b_label.(id) <- label
let opened_at t id = check_bin t id; t.b_opened.(id)

let closed_at t id =
  check_bin t id;
  let c = t.b_closed.(id) in
  if c = open_mark then None else Some c

let contents t id =
  check_bin t id;
  if t.retire then
    invalid_arg "Bin_store.contents: no per-item records in retire mode";
  List.rev t.b_items.(id)

let fold_live f acc t =
  let rec loop acc id = if id < 0 then acc else loop (f acc id) t.b_next.(id) in
  loop acc t.live_head

let fold_open f acc t = fold_live f acc t
let item_count t id = check_bin t id; t.b_count.(id)
let open_bins t = List.rev (fold_live (fun acc id -> id :: acc) [] t)
let all_bins t = if t.retire then open_bins t else List.init t.next_fresh Fun.id
let open_count t = t.n_open
let bins_opened t = t.opened
let max_open t = t.hw_open
let closed_count t = t.closed_count
let live_items t = Imap.length t.current
let max_live_items t = t.hw_items

let lifetime_histogram t =
  (Array.copy lifetime_buckets, Array.copy t.lifetime_counts, t.lifetime_sum)

let usage t ~now =
  fold_live (fun acc id -> acc + (now - t.b_opened.(id))) t.done_usage t

let closed_usage t = t.done_usage
let assignment t = Vec.to_list t.history

let bin_of_item t item_id =
  match Imap.find_opt t.current item_id with
  | Some packed -> packed lsr size_bits
  | None -> if t.retire then raise Not_found else Imap.find t.ever item_id

(* Packed values are non-negative, so -1 is a safe absent marker. *)
let live_bin_of_item t item_id =
  let packed = Imap.find_default t.current item_id (-1) in
  if packed < 0 then -1 else packed lsr size_bits

let last_inserted_into t ~item_id ~bin = t.last_item = item_id && t.last_bin = bin

let set_cookie t id v = check_bin t id; t.b_cookie.(id) <- v
let cookie t id = check_bin t id; t.b_cookie.(id)

(* --- snapshot codec (retire-mode stores) ---

   Serialize everything a restarted process needs to continue with
   bit-identical observable behavior: the per-bin arrays up to
   [next_fresh] (including the free list threaded through [b_next] —
   the *order* of recycled slots decides which ids future [open_bin]
   calls hand out, and ids are visible to serve clients), the live-list
   links, and every aggregate that feeds costs and reports. Cookies are
   deliberately not serialized: they hold fit-index slot stamps keyed
   by a process-unique group id, stale by construction in a new
   process; restored bins start unstamped (-1) and the index rebuild
   re-stamps them.

   Retain-mode stores are not snapshottable — they hold boxed item
   lists, the full history and move logs; long-lived processes run
   retire mode, which is exactly the state that fits in O(open bins). *)

let json_ints a n = Json.List (List.init n (fun i -> Json.Int a.(i)))

let to_json t =
  if not t.retire then
    invalid_arg "Bin_store.to_json: only retire-mode stores are snapshottable";
  let n = t.next_fresh in
  let current =
    if not t.track then Json.Null
    else begin
      let pairs = Imap.fold (fun k v acc -> (k, v) :: acc) t.current [] in
      let pairs = List.sort compare pairs in
      Json.List
        (List.concat_map (fun (k, v) -> [ Json.Int k; Json.Int v ]) pairs)
    end
  in
  let extra_current =
    if not (t.track && t.dims > 1) then Json.Null
    else begin
      let entries = Hashtbl.fold (fun k e acc -> (k, e) :: acc) t.extra_current [] in
      let entries = List.sort compare entries in
      Json.List
        (List.map
           (fun (k, e) ->
             Json.List (Json.Int k :: Array.to_list (Array.map (fun u -> Json.Int u) e)))
           entries)
    end
  in
  Json.Obj
    [
      ("track", Json.Bool t.track);
      ("dims", Json.Int t.dims);
      ("next_fresh", Json.Int n);
      ("free_head", Json.Int t.free_head);
      ("b_load", json_ints t.b_load n);
      ( "b_extra",
        Json.List (Array.to_list (Array.map (fun col -> json_ints col n) t.b_extra)) );
      ("b_opened", json_ints t.b_opened n);
      ("b_closed", json_ints t.b_closed n);
      ("b_count", json_ints t.b_count n);
      ("b_prev", json_ints t.b_prev n);
      ("b_next", json_ints t.b_next n);
      ( "b_label",
        Json.List (List.init n (fun i -> Json.String t.b_label.(i))) );
      ("live_head", Json.Int t.live_head);
      ("live_tail", Json.Int t.live_tail);
      ("opened", Json.Int t.opened);
      ("n_open", Json.Int t.n_open);
      ("hw_open", Json.Int t.hw_open);
      ("hw_items", Json.Int t.hw_items);
      ("done_usage", Json.Int t.done_usage);
      ("closed_count", Json.Int t.closed_count);
      ("lifetime_counts", json_ints t.lifetime_counts (Array.length t.lifetime_counts));
      ("lifetime_sum", Json.Int t.lifetime_sum);
      ("moves_n", Json.Int t.moves_n);
      ("moved_units_sum", Json.Int t.moved_units_sum);
      ("current", current);
      ("extra_current", extra_current);
    ]

let of_json j =
  let fail msg = failwith ("Bin_store.of_json: " ^ msg) in
  let field name =
    match Json.member name j with Some v -> v | None -> fail ("missing " ^ name)
  in
  let int name = match field name with Json.Int i -> i | _ -> fail (name ^ ": expected int") in
  let bool name = match field name with Json.Bool b -> b | _ -> fail (name ^ ": expected bool") in
  let int_list = function
    | Json.List l -> List.map (function Json.Int i -> i | _ -> fail "expected int") l
    | _ -> fail "expected int list"
  in
  let track = bool "track" and dims = int "dims" in
  if dims < 1 then fail "dims < 1";
  let n = int "next_fresh" in
  if n < 0 then fail "negative next_fresh";
  let cap = max initial_cap (Ints.pow2 (Ints.ceil_log2 (max 1 n))) in
  let t = { (create ~retire:true ~track_items:track ~dims ()) with cap } in
  let fill name arr of_field tail =
    let l = of_field (field name) in
    if List.length l <> n then fail (name ^ ": wrong length");
    let a = Array.make cap tail in
    List.iteri (fun i v -> a.(i) <- v) l;
    arr a
  in
  fill "b_load" (fun a -> t.b_load <- a) int_list 0;
  fill "b_opened" (fun a -> t.b_opened <- a) int_list 0;
  fill "b_closed" (fun a -> t.b_closed <- a) int_list freed_mark;
  fill "b_count" (fun a -> t.b_count <- a) int_list 0;
  fill "b_prev" (fun a -> t.b_prev <- a) int_list (-1);
  fill "b_next" (fun a -> t.b_next <- a) int_list (-1);
  fill "b_label"
    (fun a -> t.b_label <- a)
    (function
      | Json.List l -> List.map (function Json.String s -> s | _ -> fail "expected string") l
      | _ -> fail "expected string list")
    "";
  t.b_cookie <- Array.make cap (-1);
  (match field "b_extra" with
  | Json.List cols ->
      if List.length cols <> dims - 1 then fail "b_extra: wrong dimension count";
      t.b_extra <-
        Array.of_list
          (List.map
             (fun col ->
               let l = int_list col in
               if List.length l <> n then fail "b_extra: wrong length";
               let a = Array.make cap 0 in
               List.iteri (fun i v -> a.(i) <- v) l;
               a)
             cols)
  | _ -> fail "b_extra: expected list");
  t.next_fresh <- n;
  t.free_head <- int "free_head";
  t.live_head <- int "live_head";
  t.live_tail <- int "live_tail";
  t.opened <- int "opened";
  t.n_open <- int "n_open";
  t.hw_open <- int "hw_open";
  t.hw_items <- int "hw_items";
  t.done_usage <- int "done_usage";
  t.closed_count <- int "closed_count";
  (let l = int_list (field "lifetime_counts") in
   if List.length l <> Array.length t.lifetime_counts then
     fail "lifetime_counts: wrong length";
   List.iteri (fun i v -> t.lifetime_counts.(i) <- v) l);
  t.lifetime_sum <- int "lifetime_sum";
  t.moves_n <- int "moves_n";
  t.moved_units_sum <- int "moved_units_sum";
  (match field "current" with
  | Json.Null -> if track then fail "current: missing for a tracking store"
  | js ->
      if not track then fail "current: present for a non-tracking store";
      let rec pairs = function
        | [] -> ()
        | k :: v :: rest ->
            if not (Imap.add_new t.current k v) then fail "current: duplicate id";
            pairs rest
        | _ -> fail "current: odd pair list"
      in
      pairs (int_list js));
  (match field "extra_current" with
  | Json.Null -> ()
  | Json.List entries ->
      List.iter
        (function
          | Json.List (Json.Int k :: e) ->
              Hashtbl.replace t.extra_current k
                (Array.of_list
                   (List.map (function Json.Int u -> u | _ -> fail "extra_current") e))
          | _ -> fail "extra_current: malformed entry")
        entries
  | _ -> fail "extra_current: expected list");
  (* Sanity: the live list must link exactly [n_open] open bins. *)
  let rec walk acc id =
    if id < 0 then acc
    else if acc > n then fail "live list cycle"
    else begin
      if t.b_closed.(id) <> open_mark then fail "live list links a closed bin";
      walk (acc + 1) t.b_next.(id)
    end
  in
  if walk 0 t.live_head <> t.n_open then fail "live list length <> n_open";
  t
