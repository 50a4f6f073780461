(** Long-lived sharded placement daemon: the core behind [dbp serve].

    A daemon is a set of independent shards, each a retire-mode
    {!Engine.Interactive} packing with one Any-Fit {!Fit_group} (rules
    FF/BF/WF/NF — the policies with exact snapshot codecs). Item ids
    route to shards by a salted hash, so a client's placements are
    sticky across the daemon's whole life, including restarts: the salt
    travels in the snapshot.

    {2 Protocol}

    Line-oriented, one response line per command line (blank lines and
    [#] comments are dropped without a response):

    {v
    place <id> <arrival> <departure> <size> [<size2> ...]
                       -> ok <shard>:<bin> | err <reason>
    depart <tick>      -> ok open=<n>        (process departures <= tick)
    stats              -> ok cost=... open=... opened=... max=...
                             items=... clock=... shards=...
    snapshot <path>    -> ok snapshot <path> (atomic: write tmp, rename)
    quit               -> ok bye
    v}

    Sizes are floats in (0, 1] as in the CSV format; a vector daemon
    ([dims > 1]) requires exactly [dims] size fields per place. Item
    ids must be unique among {e live} items; an id may be reused once
    its shard has processed its departure tick. [stats] reads the live
    store aggregates — [cost] counts {e closed} bins' usage, so after
    [depart <horizon>] past every departure it equals the offline
    {!Engine.run} cost of the same sequence (the [dbp drive] check).

    {2 Determinism}

    Responses are a pure function of the command sequence: batch
    boundaries (client timing) and the [--jobs] fan-out never change a
    byte. A daemon restored from a snapshot answers the remaining
    commands byte-identically to one that never stopped. *)


type t

val create :
  ?shards:int ->
  ?dims:int ->
  ?seed:int ->
  ?max_batch:int ->
  Dbp_binpack.Heuristics.rule ->
  t
(** Fresh daemon: [shards] (default 1) engines of [dims] (default 1)
    dimensions, routing salt drawn from a PRNG seeded with [seed]
    (default 0), batches capped at [max_batch] (default 512) commands.
    Raises [Invalid_argument] on non-positive values. *)

val shard_count : t -> int

val stopped : t -> bool
(** Set once a [quit] command was executed. *)

val exec_batch : t -> string array -> string array
(** Execute command lines, one response per line (same order).
    Consecutive [place] commands fan out across shards through the
    default {!Dbp_util.Pool}; everything else is a barrier. How a
    command sequence is cut into batches is unobservable. *)

val stats_line : t -> string
(** The [stats] response, without issuing a command. *)

val to_json : t -> Dbp_util.Json.t
(** Full-state snapshot: rule, dims, routing salt, PRNG state, and per
    shard the engine snapshot ({!Engine.Interactive.snapshot}) plus the
    fit-group snapshot ({!Fit_group.to_json}). *)

val of_json : ?max_batch:int -> Dbp_util.Json.t -> t
(** Rebuild a daemon from {!to_json} output; the live-id table is
    rederived from the restored arenas. Raises [Failure] on malformed
    input. *)

val snapshot_to_file : t -> string -> unit
(** {!to_json} to a file, atomically (write [<path>.tmp], rename). *)

val restore_from_file : ?max_batch:int -> string -> t

(** The daemon's whole view of its client. [recv] must block until
    input is available (returning 0 at end of input); [ready] must
    answer "is input available right now?" without blocking — the
    batching signal. *)
type conn = {
  recv : bytes -> int -> int -> int;
  ready : unit -> bool;
  send : string -> unit;
  flush : unit -> unit;
}

val run : t -> conn -> unit
(** Serve the connection until [quit] or end of input: repeatedly drain
    the lines the client has already written, execute at most
    [max_batch] of them as one batch (the rest wait for the next pass),
    send the responses, flush. Never blocks while
    holding unanswered commands. An unterminated final line is answered
    with an error, mirroring {!Io.of_channel}'s framing rule. *)
