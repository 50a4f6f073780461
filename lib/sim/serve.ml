open Dbp_util
open Dbp_instance
module H = Dbp_binpack.Heuristics

(* Long-lived placement daemon core.

   One [t] is a set of independent shards, each a retire-mode
   {!Engine.Interactive} driven by a single {!Fit_group} policy.
   Arrivals are routed to shards by a salted hash of the item id, so a
   tenant's placements never migrate between shards and the mapping
   survives restarts (the salt is part of the snapshot). Everything
   here is transport-agnostic — the [conn] record is the daemon's whole
   view of the outside world, so the CLI can serve stdin or a Unix
   socket with the same loop and the test suite can drive a daemon
   in-process with no file descriptors at all.

   Determinism contract: responses are a pure function of the command
   sequence (batch boundaries and [--jobs] fan-out never change them),
   and a daemon restored from a snapshot answers the remaining commands
   byte-identically to one that never stopped. *)

let m_commands = Metrics.counter "serve.commands"
let m_places = Metrics.counter "serve.places"
let m_errors = Metrics.counter "serve.errors"
let m_snapshots = Metrics.counter "serve.snapshots"

(* Batch sizes depend on client timing (how many lines were readable
   when the loop drained the connection), not on the work requested —
   scheduling-stability, like the pool metrics. *)
let m_batches = Metrics.counter ~stability:Sched "serve.batches"

let m_batch_fill =
  Metrics.histogram ~stability:Sched
    ~buckets:[| 1; 4; 16; 64; 256; 1024 |]
    "serve.batch_fill"

type shard = {
  eng : Engine.Interactive.t;
  group : Fit_group.t;
  live : (int, int) Hashtbl.t;
      (** live item id -> departure for the ids routed here; rejects
          duplicate live ids and is swept lazily so it stays O(live
          items), not O(ids ever) *)
}

type t = {
  rule : H.rule;
  dims : int;
  salt : int;
  prng : Prng.t;
  mutable shards : shard array;
  max_batch : int;
  mutable stopped : bool;
}

let shard_count t = Array.length t.shards
let stopped t = t.stopped

(* SplitMix-style finalizer on the 63-bit int; routing only needs a
   stable, well-spread salt+id -> shard map, not cryptography. The two
   multipliers fit in 62 bits so the literals parse on 64-bit OCaml. *)
let mix x =
  let x = x lxor (x lsr 33) in
  let x = x * 0x2545F4914F6CDD1D in
  let x = x lxor (x lsr 29) in
  let x = x * 0x9E3779B97F4A7C1 in
  x lxor (x lsr 32)

let shard_of_id t id =
  let n = Array.length t.shards in
  if n = 1 then 0 else mix (t.salt lxor id) land max_int mod n

let shard_label rule ~shards i =
  if shards = 1 then Fit_group.rule_code rule
  else Printf.sprintf "%s@%d" (Fit_group.rule_code rule) i

(* Shard engines run the streaming configuration — retire-mode store,
   no released log, LTTB-bounded series — because a daemon's memory
   must track its *live* items, not its uptime. *)
let serve_max_series = 512

let make_shard rule ~dims ~label =
  let gref = ref None in
  let factory store =
    let g = Fit_group.create ~rule ~dims ~label () in
    gref := Some g;
    Fit_group.policy_of g store
  in
  let eng =
    Engine.Interactive.start ~retire:true ~retain_released:false
      ~max_series:serve_max_series ~dims factory
  in
  { eng; group = Option.get !gref; live = Hashtbl.create 256 }

let create ?(shards = 1) ?(dims = 1) ?(seed = 0) ?(max_batch = 512) rule =
  if shards < 1 then invalid_arg "Serve.create: shards must be >= 1";
  if dims < 1 then invalid_arg "Serve.create: dims must be >= 1";
  if max_batch < 1 then invalid_arg "Serve.create: max_batch must be >= 1";
  let prng = Prng.create ~seed in
  let salt = Int64.to_int (Prng.bits64 prng) land max_int in
  {
    rule;
    dims;
    salt;
    prng;
    shards =
      Array.init shards (fun i ->
          make_shard rule ~dims ~label:(shard_label rule ~shards i));
    max_batch;
    stopped = false;
  }

(* --- snapshot --- *)

let to_json t =
  Json.Obj
    [
      ("version", Json.Int 1);
      ("rule", Json.String (Fit_group.rule_code t.rule));
      ("dims", Json.Int t.dims);
      ("salt", Json.Int t.salt);
      ("prng", Prng.to_json t.prng);
      ( "shards",
        Json.List
          (Array.to_list
             (Array.map
                (fun s ->
                  Json.Obj
                    [
                      ("engine", Engine.Interactive.snapshot s.eng);
                      ("group", Fit_group.to_json s.group);
                    ])
                t.shards)) );
    ]

let of_json ?(max_batch = 512) j =
  let fail msg = failwith ("Serve.of_json: " ^ msg) in
  let field name =
    match Json.member name j with Some v -> v | None -> fail ("missing " ^ name)
  in
  (match field "version" with
  | Json.Int 1 -> ()
  | Json.Int v -> fail (Printf.sprintf "unsupported snapshot version %d" v)
  | _ -> fail "version: expected int");
  let rule =
    match field "rule" with
    | Json.String s -> (
        match Fit_group.rule_of_code s with
        | Some r -> r
        | None -> fail ("unknown rule " ^ s))
    | _ -> fail "rule: expected string"
  in
  let int name =
    match field name with Json.Int i -> i | _ -> fail (name ^ ": expected int")
  in
  let dims = int "dims" in
  let restore_shard sj =
    let member name =
      match Json.member name sj with
      | Some v -> v
      | None -> fail ("shard: missing " ^ name)
    in
    let gref = ref None in
    let factory store =
      let g = Fit_group.of_json ~store (member "group") in
      gref := Some g;
      Fit_group.policy_of g store
    in
    let eng = Engine.Interactive.of_snapshot factory (member "engine") in
    (* The live-id table is derivable state: rebuild it from the
       shard's arena rather than trusting (or storing) a second copy. *)
    let live = Hashtbl.create 256 in
    let blk = Engine.Interactive.item_block eng in
    Item_block.iter_live
      (fun slot -> Hashtbl.replace live (Item_block.id blk slot) (Item_block.departure blk slot))
      blk;
    { eng; group = Option.get !gref; live }
  in
  let shards =
    match field "shards" with
    | Json.List (_ :: _ as l) -> Array.of_list (List.map restore_shard l)
    | _ -> fail "shards: expected non-empty list"
  in
  {
    rule;
    dims;
    salt = int "salt";
    prng = Prng.of_json (field "prng");
    shards;
    max_batch;
    stopped = false;
  }

let snapshot_to_file t path =
  (* Write-then-rename so a crash mid-write never leaves a torn
     snapshot where a good one (or nothing) should be. *)
  let tmp = path ^ ".tmp" in
  let oc = open_out tmp in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (Json.to_string (to_json t));
      output_char oc '\n');
  Sys.rename tmp path;
  Metrics.incr m_snapshots

let restore_from_file ?max_batch path =
  let ic = open_in path in
  let s =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  of_json ?max_batch (Json.parse_exn s)

(* --- command parsing --- *)

type cmd =
  | Place of Item.t
  | Depart of int
  | Stats
  | Snapshot of string
  | Quit
  | Bad of string

exception Parse of string

let perr fmt = Printf.ksprintf (fun m -> raise (Parse m)) fmt

let int_field what s =
  match int_of_string s with
  | n -> n
  | exception Failure _ -> perr "malformed %s %S" what s

let float_field what s =
  match float_of_string s with
  | f -> f
  | exception Failure _ -> perr "malformed %s %S" what s

let parse_place t = function
  | id :: arrival :: departure :: size :: extras ->
      let id = int_field "id" id in
      let arrival = int_field "arrival" arrival in
      let departure = int_field "departure" departure in
      let size_f = float_field "size" size in
      if departure <= arrival then
        perr "item %d has non-positive duration (arrival %d, departure %d)" id
          arrival departure;
      if size_f <= 0.0 then perr "item %d has non-positive size %g" id size_f;
      if size_f > 1.0 then perr "item %d has size %g > 1 (a full bin)" id size_f;
      if List.length extras <> t.dims - 1 then
        perr "item %d carries %d size fields; this daemon packs %d dimension%s"
          id
          (1 + List.length extras)
          t.dims
          (if t.dims = 1 then "" else "s");
      let extra =
        match extras with
        | [] -> Item.no_extra
        | _ ->
            extras
            |> List.mapi (fun k s ->
                   let f = float_field (Printf.sprintf "size%d" (k + 2)) s in
                   if f < 0.0 then
                     perr "item %d has negative size %g in dimension %d" id f
                       (k + 1);
                   if f > 1.0 then
                     perr "item %d has size %g > 1 (a full bin) in dimension %d"
                       id f (k + 1);
                   Load.to_units (Load.of_float f))
            |> Array.of_list
      in
      (try Item.make_vec ~extra ~id ~arrival ~departure ~size:(Load.of_float size_f)
       with Invalid_argument msg -> perr "%s" msg)
  | _ -> perr "place: expected <id> <arrival> <departure> <size> [sizes...]"

let parse_cmd t line =
  let words =
    String.split_on_char ' ' line |> List.filter (fun w -> w <> "")
  in
  try
    match words with
    | [] -> Bad "empty command"
    | verb :: rest -> (
        match (String.lowercase_ascii verb, rest) with
        | "place", rest -> Place (parse_place t rest)
        | "depart", [ tick ] -> Depart (int_field "tick" tick)
        | "depart", _ -> Bad "depart: expected one tick argument"
        | "stats", [] -> Stats
        | "snapshot", [ path ] -> Snapshot path
        | "snapshot", _ -> Bad "snapshot: expected one path argument"
        | "quit", [] -> Quit
        | verb, _ -> Bad (Printf.sprintf "unknown command %S" verb))
  with Parse m -> Bad m

(* --- execution --- *)

let stats_line t =
  let cost = ref 0
  and opened = ref 0
  and open_now = ref 0
  and max_open = ref 0
  and items = ref 0
  and clock = ref 0 in
  Array.iter
    (fun s ->
      let store = Engine.Interactive.store s.eng in
      cost := !cost + Bin_store.closed_usage store;
      opened := !opened + Bin_store.bins_opened store;
      open_now := !open_now + Bin_store.open_count store;
      max_open := !max_open + Bin_store.max_open store;
      items := !items + Engine.Interactive.items_arrived s.eng;
      clock := max !clock (Engine.Interactive.now s.eng))
    t.shards;
  Printf.sprintf "ok cost=%d open=%d opened=%d max=%d items=%d clock=%d shards=%d"
    !cost !open_now !opened !max_open !items !clock (Array.length t.shards)

(* Amortized sweep of a shard's live-id table: once it holds more than
   twice the items actually in flight (plus slack), drop every id whose
   departure the shard has already processed. Each entry is inserted
   once and swept at most once per crossing of the threshold, so the
   daemon's footprint tracks live items even across years of churn —
   the table cannot become the slow leak it exists to prevent. *)
let sweep_live s =
  let in_flight = Item_block.live (Engine.Interactive.item_block s.eng) in
  if Hashtbl.length s.live > 64 + (2 * in_flight) then begin
    let now = Engine.Interactive.now s.eng in
    Hashtbl.filter_map_inplace (fun _ dep -> if dep <= now then None else Some dep) s.live
  end

(* One place inside its shard's in-order sub-batch, behind the live-id
   check. An id always routes to the same shard, so the shard's own
   table decides the check, against the shard's clock as it stands
   now — the answer the line gets whatever batch it arrives in. *)
let place_checked t s (r : Item.t) =
  let sh = t.shards.(s) in
  match Hashtbl.find_opt sh.live r.id with
  | Some dep when dep > Engine.Interactive.now sh.eng ->
      Printf.sprintf "err item id %d is still live (departs at %d)" r.id dep
  | _ -> (
      match Engine.Interactive.arrive sh.eng r with
      | bin ->
          (* Only a placement that actually happened marks its id live;
             a rejected one (arrival in the past) must not poison later
             reuse of the id. *)
          Hashtbl.replace sh.live r.id r.departure;
          Printf.sprintf "ok %d:%d" s bin
      | exception Invalid_argument msg -> "err " ^ msg)

(* A run of consecutive [place] commands fans out across shards: the
   routing (and every response) is a function of the command sequence
   alone, and each shard touches only its own engine and live-id table,
   so the per-shard sub-batches can execute on any domain in any order —
   [Pool.map]'s ordered gather puts the responses back in arrival
   positions. Everything else is a barrier handled inline. *)
let exec_places t cmds resp lo hi =
  let nshards = Array.length t.shards in
  if nshards = 1 then
    for k = lo to hi - 1 do
      match cmds.(k) with Place r -> resp.(k) <- place_checked t 0 r | _ -> assert false
    done
  else begin
    let work = Array.make nshards [] in
    for k = hi - 1 downto lo do
      match cmds.(k) with
      | Place r ->
          let s = shard_of_id t r.id in
          work.(s) <- (k, r) :: work.(s)
      | _ -> assert false
    done;
    Pool.with_default (fun pool ->
        Pool.map pool
          (fun s -> List.map (fun (k, r) -> (k, place_checked t s r)) work.(s))
          (List.init nshards Fun.id))
    |> List.iter (List.iter (fun (k, line) -> resp.(k) <- line))
  end

let exec_one t = function
  | Place _ -> assert false (* runs of places go through exec_places *)
  | Depart tick ->
      Array.iter
        (fun s ->
          let now = Engine.Interactive.now s.eng in
          if tick > now then Engine.Interactive.advance_to s.eng tick)
        t.shards;
      let open_now =
        Array.fold_left
          (fun acc s -> acc + Engine.Interactive.open_count s.eng)
          0 t.shards
      in
      Printf.sprintf "ok open=%d" open_now
  | Stats -> stats_line t
  | Snapshot path -> (
      match snapshot_to_file t path with
      | () -> Printf.sprintf "ok snapshot %s" path
      | exception Sys_error msg -> "err snapshot: " ^ msg
      | exception Invalid_argument msg -> "err snapshot: " ^ msg)
  | Quit ->
      t.stopped <- true;
      "ok bye"
  | Bad msg -> "err " ^ msg

let exec_batch t lines =
  let n = Array.length lines in
  let cmds = Array.map (fun l -> parse_cmd t l) lines in
  let resp = Array.make n "" in
  let i = ref 0 in
  while !i < n do
    if t.stopped then begin
      resp.(!i) <- "err daemon is shutting down";
      incr i
    end
    else
      match cmds.(!i) with
      | Place _ ->
          let j = ref !i in
          while
            !j < n && match cmds.(!j) with Place _ -> true | _ -> false
          do
            incr j
          done;
          exec_places t cmds resp !i !j;
          Metrics.add m_places (!j - !i);
          i := !j
      | c ->
          resp.(!i) <- exec_one t c;
          incr i
  done;
  Metrics.add m_commands n;
  Array.iter (fun r -> if String.length r >= 3 && String.sub r 0 3 = "err" then Metrics.incr m_errors) resp;
  Array.iter sweep_live t.shards;
  resp

(* --- the serving loop --- *)

type conn = {
  recv : bytes -> int -> int -> int;
      (** blocking read into the byte range; 0 means end of input *)
  ready : unit -> bool;
      (** input available right now without blocking? *)
  send : string -> unit;  (** queue one response line *)
  flush : unit -> unit;  (** push queued responses to the client *)
}

let run t conn =
  let chunk = Bytes.create 65536 in
  let partial = Buffer.create 256 in
  let lines : string Vec.t = Vec.create () in
  let eof = ref false in
  let pull () =
    let n = conn.recv chunk 0 (Bytes.length chunk) in
    if n = 0 then eof := true
    else
      for i = 0 to n - 1 do
        let c = Bytes.unsafe_get chunk i in
        if c = '\n' then begin
          let line = String.trim (Buffer.contents partial) in
          Buffer.clear partial;
          (* Blank lines and # comments are protocol chaff, not
             commands: dropped without a response, matching the CSV
             reader's tolerance. *)
          if line <> "" && line.[0] <> '#' then Vec.push lines line
        end
        else Buffer.add_char partial c
      done
  in
  (* Lines already read are answered even after a [quit] (with the
     shutdown error), so where [max_batch] cuts them changes nothing. *)
  while not ((t.stopped || !eof) && Vec.length lines = 0) do
    (* Drain whatever the client has already written (batching), but
       never block while holding unanswered commands. *)
    while
      (not (t.stopped || !eof))
      && Vec.length lines < t.max_batch
      && (Vec.length lines = 0 || conn.ready ())
    do
      pull ()
    done;
    if !eof && String.trim (Buffer.contents partial) <> "" then begin
      (* Same framing rule as Io.of_channel: a final line the client
         never terminated is an error, not a command parsed from half
         the bytes. *)
      Buffer.clear partial;
      conn.send "err truncated final line (no trailing newline)";
      conn.flush ()
    end;
    if Vec.length lines > 0 then begin
      (* One read may queue more than [max_batch] lines; the rest move
         to the front and wait for the next pass. *)
      let n = min t.max_batch (Vec.length lines) in
      let batch = Array.init n (Vec.get lines) in
      let rest = Vec.length lines - n in
      for k = 0 to rest - 1 do
        Vec.set lines k (Vec.get lines (n + k))
      done;
      if rest = 0 then Vec.clear_shrink lines else Vec.truncate lines rest;
      Metrics.incr m_batches;
      Metrics.observe m_batch_fill (Array.length batch);
      let resp = exec_batch t batch in
      Array.iter conn.send resp;
      conn.flush ()
    end
  done
