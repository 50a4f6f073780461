(** Fit index: a 4-ary max tree over per-bin columns — the one index
    behind every Any-Fit placement.

    Each slot (bin) carries a fixed number of non-negative int columns:
    column 0 is the dimension-0 residual, and callers add one column
    per extra resource dimension and, optionally, a last {e score}
    column (SpanGreedy's horizon, a vector Best/Worst-Fit's L1 score).
    Every tree node stores, per column, the maximum over its leaf span,
    so a query can prune a subtree when {e any} column falls short.
    Slots are assigned in bin-opening order, so "leftmost slot" =
    "earliest bin", and every tie-break below is "earliest-opened bin
    wins". The tree is 4-ary: half the levels of a binary tree, with
    each node's four children in adjacent words — one cache line per
    level on the per-item descent and update ascent.

    An inactive (deactivated or never-pushed) slot holds -1 in every
    column. Thresholds are non-negative, so inactive slots never meet
    one. *)

type t

val create : ?initial_cap:int -> ?columns:int -> ?successor:bool -> unit -> t
(** [initial_cap] (default 8, minimum 1) is rounded up to a power of
    four; the tree quadruples on demand. [columns] (default 1) is the
    column count.

    [successor] (default false) additionally keeps the active slots'
    column-0 values as sorted (residual, slot) keys in an unrolled
    (chunked) list, for {!best_fit_idx}. The tree aggregates are then
    maintained lazily: writes only mark them stale, and the next query
    that needs them rebuilds them. Scalar Best-Fit turns this on.

    The tree additionally {e compacts}: when its leaves fill up and the
    older half are all inactive, the leaf window slides instead of
    growing, and those slots are retired for good. Slot numbers (and
    therefore every slot-order tie-break) never change — only the memory
    footprint, which tracks the span of still-active slots rather than
    the slots ever pushed. Touching a retired slot ({!set},
    {!deactivate}, {!residual}, ...) raises [Invalid_argument]; slots are
    only retired while inactive, so a caller that never revives a
    deactivated slot can never observe the difference. *)

val push : t -> residual:int -> int
(** Append an active slot with column 0 = [residual] (non-negative) and
    every other column 0; returns the slot index. *)

val set : t -> int -> int -> unit
(** [set t slot residual] updates column 0 of a slot (e.g. after an
    insertion). The value must be non-negative; setting a deactivated
    slot revives it, with its other columns at 0. *)

val set_col : t -> int -> int -> int -> unit
(** [set_col t slot c v] updates column [c] of a slot ([set] is
    [set_col t slot 0]). Only column 0 may be set on an inactive slot. *)

val deactivate : t -> int -> unit
(** Mark a slot unusable (its bin closed): -1 in every column. *)

val residual : t -> int -> int
(** Column 0 of a slot (-1 when deactivated). *)

val column : t -> int -> int -> int
(** [column t slot c] is column [c] of a slot (-1 when deactivated). *)

val length : t -> int
(** Number of slots ever pushed. *)

val compacted_below : t -> int
(** Slots below this bound have been retired by compaction (all were
    inactive when the window slid). 0 until a compaction happens. *)

(** {2 Column-0 queries} *)

val first_fit_idx : t -> int -> int
(** [first_fit_idx t need] is the smallest slot index with column 0 >=
    [need], or [-1] when no active slot fits — the allocation-free query
    the per-item placement path uses. [need] must be non-negative. *)

val first_fit : t -> int -> int option
(** {!first_fit_idx} with an option, for callers off the hot path. *)

val worst_fit_idx : t -> int -> int
(** [worst_fit_idx t need] is the slot holding the {e maximum} column-0
    value, provided it is >= [need] — the roomiest adequate bin —
    smallest slot on ties, or [-1]. *)

val best_fit_idx : t -> int -> int
(** [best_fit_idx t need] is the slot holding the {e minimum} column-0
    value >= [need] — the tightest adequate bin — smallest slot on ties,
    or [-1]. Needs successor mode; raises [Invalid_argument] otherwise. *)

(** {2 Threshold queries}

    A threshold array [need] holds one non-negative threshold per
    column, from column 0 on; a slot {e meets} it when column [c] >=
    [need.(c)] for every threshold given. *)

val first_fit_all : t -> int array -> int
(** [first_fit_all t need] is the smallest slot meeting every threshold
    in [need] (one per column at most, and at least one), or [-1]. *)

val best_score_idx : t -> int array -> int
(** [best_score_idx t need] is the slot with the largest value in the
    last column among slots meeting [need] on every other column (one
    threshold per column but the last; further entries are ignored),
    smallest slot on ties, or [-1]. *)

val fits : t -> int -> int array -> bool
(** [fits t slot need] is whether a slot meets every threshold in
    [need] (false for a deactivated slot). *)

val fold_active : t -> init:'a -> f:('a -> int -> int -> 'a) -> 'a
(** [fold_active t ~init ~f] folds [f acc slot residual] over active
    slots in increasing slot order, without allocating. *)

val active : t -> int list
(** Active slots in increasing order (used by tests and traversals). *)
