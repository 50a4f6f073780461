(** Reference computations the benchmark checks the program's outputs
    against. They share no code with the program: standard library
    only, plain arrays and linear scans. *)

type item = {
  id : int;
  arrival : int;
  departure : int;
  size : int array;  (** load units per dimension; [size.(0)] is dimension 0 *)
}
(** An item occupies its bin during the half-open tick interval
    [[arrival, departure)]. *)

type result = { cost : int; bins_opened : int; max_open : int }

val pp_result : result -> string

val first_fit : capacity:int -> item array -> result * (int * int) array
(** First-Fit over the items in processing order — by arrival, ties by
    id; every departure at a tick before any arrival at that tick. Each
    item goes into the earliest-opened open bin with room in every
    dimension, else into a new bin. A bin closes when its last item
    departs and is never reused. [cost] is the summed open time of all
    bins. Also returns [(item id, bin)] in processing order, bins
    numbered by opening. Raises [Invalid_argument] on mixed dimensions
    or an empty interval. *)

val floor : capacity:int -> item array -> int
(** Lemma 3.1's floor, the sum over ticks [t] of [ceil (S_t)] where
    [S_t] is the load of the items active at [t] in bin units; with
    several dimensions, the largest of the per-dimension ceilings at
    each tick. No packing costs less. *)

val sum_durations : item array -> int
(** Cost of giving every item a bin of its own; no packing that closes
    empty bins costs more. *)

(** A shard's bins rebuilt from the daemon's placement responses
    ([ok <shard>:<bin>]). An id names one bin while that bin is open and
    may name a later bin once it closes. *)
module Bins_of_placements : sig
  type t

  val create : unit -> t

  val place : t -> bin:int -> arrival:int -> departure:int -> unit
  (** Record that an item was answered with [bin]; calls must follow
      the daemon's processing order. *)

  val result : t -> result
  (** Cost, bins opened and peak open bins of the recorded placements.
      Closes every bin: call once, after the last placement. *)
end
