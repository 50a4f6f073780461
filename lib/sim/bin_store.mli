(** The shared bin substrate all online algorithms pack into.

    The store is the single source of truth for bin contents, loads and —
    crucially — the MinUsageTime objective: every bin accrues usage from
    its opening tick to the tick its last item departs (the paper's
    convention that an emptied bin closes and is never reused). Algorithms
    decide *which* bin receives an item; the store enforces capacity and
    does the accounting, so all algorithms are costed identically. *)

open Dbp_util
open Dbp_instance

type bin_id = int
type t

val create : ?retire:bool -> ?track_items:bool -> ?dims:int -> unit -> t
(** With [~retire:false] (the default) every bin ever opened is
    retained, with the permanent placement logs — full-fidelity state
    for reports, figures and the validators.

    [dims] (default 1) is the store's resource dimensionality: every
    bin keeps one load column per dimension and {!insert} enforces
    capacity in all of them. Items must match ([Item.dims r = dims],
    [Invalid_argument] otherwise). The scalar store ([dims = 1]) has no
    extra columns and its code paths are untouched.

    With [~retire:true] the store runs in {e retire/compact} mode: a bin
    that closes folds its usage, count and lifetime into running
    aggregates ({!closed_usage}, {!closed_count}, {!lifetime_histogram})
    and its arena slot is recycled, so memory is O(currently open bins) —
    the streaming engine's contract. In this mode per-bin accessors
    ({!load}, {!closed_at}, ...) work only while the bin is open (a
    retired id raises [Invalid_argument]), {!contents} is unavailable
    (no per-item records are kept), {!all_bins} lists open bins only,
    {!assignment} is empty, and {!bin_of_item} resolves active items
    only. Because slots are recycled, a retired [bin_id] may later
    denote a different, newly opened bin; ids are only meaningful while
    their bin is open. No simulation observable depends on id values.

    With [~track_items:false] (retire mode only) the store also skips
    the per-item packing map: {!remove}/{!bin_of_item}/{!live_items}
    have nothing to resolve items against, so departures must go
    through {!remove_at} with the placement remembered by the caller —
    the streaming engine keeps a bin per arena slot and hands it back,
    trading the map's per-item hash traffic for one array word.
    Costing, capacity enforcement and every per-bin observable are
    unchanged. *)

val retire_mode : t -> bool

val dims : t -> int
(** Resource dimensions per bin (1 = the scalar engine). *)

val open_bin : t -> now:int -> label:string -> bin_id
(** Open a fresh bin at tick [now]. [label] is free-form metadata used by
    traces and figures (e.g. ["GN"], ["CD(3,7)"], ["row2"]). *)

val insert : t -> bin_id -> Item.t -> unit
(** Raises [Invalid_argument] if the bin is closed, the item does not
    fit, or the item id is already packed. *)

val insert_residual : t -> bin_id -> Item.t -> int
(** {!insert}, returning the bin's residual capacity in load units after
    the insertion — the value a placement index stores for the bin, read
    here for free instead of by a second per-bin lookup. *)

val remove : t -> now:int -> item_id:int -> bin_id * bool
(** Remove a departed item. Returns its bin and whether that bin became
    empty and was therefore closed at [now]. Raises [Not_found] for an
    unknown item id. In retire mode this is O(1) — one hash probe yields
    the bin and the load to release; retain mode additionally walks the
    bin's item list. Closing a bin unlinks it from the live set in
    O(1). *)

val remove_packed : t -> now:int -> item_id:int -> int
(** {!remove} without the result tuple: returns
    [(bin lsl 1) lor (if closed then 1 else 0)]. Bin ids stay below
    [2^32] ({!open_bin}'s ceiling), so the packing is exact — the
    packed form keeps a drain loop allocation-free. *)

val remove_at :
  ?extra:int array ->
  t ->
  now:int ->
  item_id:int ->
  bin:bin_id ->
  units:int ->
  bool
(** Remove a departed item whose placement the caller remembered:
    give [units] of load back to [bin], closing it if it emptied
    (the return value). With item tracking on, the packing record is
    still consumed and must agree with [bin]/[units]
    ([Invalid_argument] otherwise); with [~track_items:false] this is
    the only removal entry point. On a [dims > 1] store, [extra] must
    be the item's extra-dimension units (length [dims - 1] — usually
    the item's own [extra] field); it defaults to the empty array,
    which only a scalar store accepts. *)

val move : t -> now:int -> item_id:int -> dst:bin_id -> bool
(** Relocate a live item into another open bin, in O(1) unlink/relink on
    the packing record (retain mode additionally rewrites the two bins'
    item lists). Returns whether the source bin emptied and was closed
    at [now] — closed by a move exactly as it would be by a departure
    (lifetime, aggregates, live-list unlink, retire-mode slot
    recycling). Capacity is enforced in every dimension. The arrival
    logs ({!assignment}, {!bin_of_item} after departure) keep recording
    {e initial} placements; moves are logged separately ({!move_log}),
    and {!last_inserted_into} is unaffected, so a move performed inside
    a policy's arrival hook does not disturb the engine's placement
    check. Requires item tracking ([Invalid_argument] with
    [~track_items:false]); raises [Invalid_argument] if the item is not
    live, the destination is closed, equals the current bin, or lacks
    capacity. *)

val move_count : t -> int
(** Moves ever executed (both retention modes). *)

val moved_units : t -> int
(** Total dimension-0 load units carried by moves. *)

val move_log : t -> (int * int * bin_id * bin_id) list
(** Permanent [(tick, item_id, src, dst)] log of moves in execution
    order. Retain mode only — empty in retire mode (the same unbounded
    retention {!assignment} avoids there). *)

val move_logged : t -> int
(** Length of {!move_log} — lets an incremental consumer (the shadow
    validator) drain only the entries appended since its last look. *)

val move_entry : t -> int -> int * int * bin_id * bin_id
(** Random access into {!move_log} without materializing the list. *)

val load : t -> bin_id -> Load.t
val residual : t -> bin_id -> Load.t

val residual_units : t -> bin_id -> int
(** {!residual} in raw load units — what a placement index stores; one
    call instead of a [Load.t] round-trip on the per-departure resync. *)

val load_units_dim : t -> bin_id -> int -> int
(** Load in the given dimension (0-based; dimension 0 equals
    [Load.to_units (load t id)]), in units. *)

val residual_units_dim : t -> bin_id -> int -> int
(** Free space in the given dimension, in units. *)

val fits_extra : t -> bin_id -> int array -> bool
(** Whether the bin can accept an item whose extra-dimension sizes are
    the given array (length [dims - 1]) — dimensions 1.. only; the
    caller checks dimension 0. Vacuously true on a scalar store. No
    bounds or liveness checks. *)

val is_open : t -> bin_id -> bool
val label : t -> bin_id -> string

val relabel : t -> bin_id -> string -> unit
(** Rename a bin (CDFF re-anchors its row indices when it learns a larger
    top class at a segment start; row labels must follow). *)

val opened_at : t -> bin_id -> int

val closed_at : t -> bin_id -> int option
(** Closing tick, or [None] while open. *)

val contents : t -> bin_id -> Item.t list
(** Items currently in the bin, in insertion order. Retain mode only:
    in retire mode the store keeps no per-item records and this raises
    [Invalid_argument]. *)

val open_bins : t -> bin_id list
(** Open bins in opening order (the First-Fit scan order). *)

val fold_open : ('a -> bin_id -> 'a) -> 'a -> t -> 'a
(** Fold over the open bins in opening order without materializing the
    list — the deterministic enumeration the recourse strategies scan on
    every event. *)

val item_count : t -> bin_id -> int
(** Items currently in the bin (both retention modes — unlike
    {!contents}, this is a plain counter read). *)

val all_bins : t -> bin_id list
(** Every bin ever opened (open or closed), in opening order — the
    enumeration validators use to recompute the usage integral from the
    per-bin [opened_at]/[closed_at] log. In retire mode only the open
    bins still exist, so this equals {!open_bins}. *)

val open_count : t -> int
val bins_opened : t -> int
(** Total bins ever opened. *)

val max_open : t -> int
(** High-water mark of simultaneously open bins. *)

val closed_count : t -> int
(** Bins closed so far; [bins_opened - open_count]. *)

val live_items : t -> int
(** Items currently packed (arrived, not yet departed). *)

val max_live_items : t -> int
(** High-water mark of {!live_items} — in retire mode, the store's item
    retention never exceeds this, whatever the trace length. *)

val lifetime_histogram : t -> int array * int array * int
(** [(bounds, counts, sum)] of closed-bin lifetimes: [counts] has one
    cell per inclusive upper bound in [bounds] plus a final overflow
    cell, and [sum] is the total closed lifetime ([= closed_usage]).
    Accumulated in both modes; in retire mode it is the surviving record
    of the dropped bins. *)

val usage : t -> now:int -> int
(** Accumulated usage time (bin x ticks) counting open bins up to
    [now]. This is the MinUsageTime objective. *)

val closed_usage : t -> int
(** Usage of closed bins only; equals [usage ~now] once every item has
    departed. *)

val assignment : t -> (int * bin_id) list
(** Permanent log of [(item_id, bin)] placements, including departed
    items, in placement order. Empty in retire mode (the log is exactly
    the unbounded retention retire mode exists to avoid). *)

val bin_of_item : t -> int -> bin_id
(** Bin that ever held the item (including after departure); raises
    [Not_found]. In retire mode, only active items resolve. *)

val live_bin_of_item : t -> int -> bin_id
(** Bin currently holding the {e live} item, or [-1] when the item is
    not active — one probe, no allocation, no exception. *)

val last_inserted_into : t -> item_id:int -> bin:bin_id -> bool
(** Whether the most recent {!insert} into this store was exactly
    [item_id] into [bin] — two field reads, no probe. The engine's
    per-arrival sanity check ("did the policy pack where it said?")
    lives on this: a policy's [on_arrival] performs exactly one insert
    (its own item), so checking the last insert is as strong as a
    table lookup. *)

val set_cookie : t -> bin_id -> int -> unit
(** Stash a caller-owned word on the bin. The store never interprets it;
    it is reset to [-1] when a (recycled) slot is reopened. A bin
    belongs to exactly one {!Fit_group}, which stashes its tagged index
    slot here — turning the per-departure bin-to-slot lookup into one
    array read. *)

val cookie : t -> bin_id -> int
(** The stashed word, or [-1] if never set since the bin opened. *)

val to_json : t -> Dbp_util.Json.t
(** Snapshot a retire-mode store: per-bin arrays up to the high-water
    slot (including the free list threaded through the next links —
    recycled-slot order decides which ids future {!open_bin} calls hand
    out), the live-list links, the id->placement table when item
    tracking is on, and every cost/report aggregate. Fit-index cookies
    are {e not} serialized: they are stamps keyed by a process-unique
    group id, meaningless after restart; restored bins read as unstamped
    until an index re-registers them. Raises [Invalid_argument] on a
    retain-mode store (unbounded history; long-lived processes run
    retire mode). *)

val of_json : Dbp_util.Json.t -> t
(** Rebuild a store from {!to_json} output. The result is
    observationally identical to the snapshotted store: same open bins,
    loads, ids, aggregates, and — via the restored free list — the same
    future id assignments. Raises [Failure] on malformed input. *)
