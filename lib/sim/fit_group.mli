(** An ordered family of bins packed with an Any-Fit rule.

    Every algorithm in the paper reduces to Any-Fit placement within some
    family of bins — First-Fit uses one group, pure Classify-by-Duration
    one group per duration class, HA one GN group plus one group per CD
    type, CDFF one group per row. This module owns the family's placement
    logic: pick a bin by the rule, open a new bin when none fits, and
    keep the fit index ({!Ff_index}) in sync with the store.

    A bin belongs to exactly one group; the owning algorithm must call
    {!note_close} when the engine reports that a departure closed the
    bin. *)

open Dbp_instance

type t

val create :
  ?rule:Dbp_binpack.Heuristics.rule -> dims:int -> label:string -> unit -> t
(** A fresh empty group for a store of [dims] dimensions
    ([Bin_store.dims]; the group raises [Invalid_argument] when it opens
    a bin in a store of another dimensionality). [rule] defaults to
    [First_fit]. [label] prefixes the labels of bins the group opens. *)

val place : t -> Bin_store.t -> now:int -> Item.t -> Bin_store.bin_id
(** Pack the item into the group, opening a new bin when no open bin of
    the group fits. On a vector ([dims > 1]) store, "fits" means fits
    in every dimension, and Best/Worst-Fit score fitting bins by the L1
    norm of the residual vector (see DESIGN.md, "Vector loads"). Every
    rule is one index query at every [dims]. *)

val place_new : t -> Bin_store.t -> now:int -> Item.t -> Bin_store.bin_id
(** Force-open a new bin for the item (HA opens a fresh CD bin when a
    type's load first crosses its threshold). *)

val note_insert : t -> Bin_store.t -> Bin_store.bin_id -> unit
(** Resync one bin's residual after an out-of-band insertion. Normally
    unnecessary ({!place} resyncs itself). *)

val note_close : t -> Bin_store.bin_id -> unit
(** Mark a member bin closed. Unknown bins raise [Invalid_argument]. *)

val note_depart : t -> Bin_store.t -> Bin_store.bin_id -> closed:bool -> unit
(** Handle a departure from a member bin: {!note_close} when the bin
    emptied, otherwise resync its residual (departures free capacity the
    placement index must see). Policies must call this on every
    departure. *)

val owns : t -> Bin_store.bin_id -> bool
val open_count : t -> int
val open_bins : t -> Bin_store.bin_id list
(** Open member bins in opening order. *)

val label : t -> string

val relabel : t -> Bin_store.t -> string -> unit
(** Rename the group and its open member bins (future bins use the new
    label too). *)

val policy_of : t -> Bin_store.t -> Policy.t
(** Wire an existing group over the whole store as a policy: arrivals
    place into the group, departures resync it, moves resync both ends.
    The caller keeps the group handle — this is the serve daemon's
    snapshot hook. *)

val policy : ?name:string -> Dbp_binpack.Heuristics.rule -> Policy.factory
(** One-group Any-Fit policy over the whole store ([policy_of] over a
    fresh group). [name] defaults to the rule's short code (FF/BF/WF/NF)
    and doubles as the group label. *)

val rule_code : Dbp_binpack.Heuristics.rule -> string
val rule_of_code : string -> Dbp_binpack.Heuristics.rule option
(** Short codes FF/BF/WF/NF, the serve protocol's policy names. *)

val to_json : t -> Dbp_util.Json.t
(** Snapshot the group: rule, label, member bins in slot order, Next-Fit
    anchor. Residuals and loads live in the store's own snapshot. *)

val of_json : store:Bin_store.t -> Dbp_util.Json.t -> t
(** Rebuild a group against an already-restored [store]: each member bin
    is re-registered in slot order (slots compact to [0..n-1]; relative
    order — all any-fit tie-breaks need — is preserved) and its cookie
    re-stamped under the new process's group id. Raises [Failure] on
    malformed input or bins the store does not consider open. *)
