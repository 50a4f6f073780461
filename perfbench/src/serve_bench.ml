(* The serve workload: [Serve.run], the loop [dbp serve] runs, driven
   in process through a [conn] record by one closed-loop client, as
   [dbp drive] drives the daemon over pipes.

   The client sends the cloud trace as [place] lines in lockstep batches
   of up to [batch] lines, with [depart <tick>] and [stats] once per
   simulated hour. A batch's clock starts when its rendered lines are
   handed to the daemon and stops when its last response is flushed.
   [restarts] times per pass it sends [snapshot <path>] and [quit], and
   the daemon restarts from that file. A pass ends with a [depart] past
   the horizon, a final [stats] and [quit].

   The client keeps one batch of lines and, per item, the shard its
   response named (one byte), so peak RSS is the daemon's. *)

open Dbp_util
open Dbp_instance
open Dbp_sim
module Cloud = Dbp_workloads.Cloud_traces
module Ref = Perfbench_ref.Reference

let shards = 4
let batch = 512
let restarts = 3
let rule = Dbp_binpack.Heuristics.First_fit

type spec = { config : Cloud.config; seed : int; snap_path : string }

(* The first 15 days of the pinned trace: a pass takes about a second,
   so that a run holds some twenty passes for {!Segments} to choose
   from. *)
let spec ~seed ~smoke ~snap_path =
  { config = Inputs.cloud ~days:(if smoke then 2 else 15) ~dims:1; seed; snap_path }

let create spec = Serve.create ~shards ~seed:spec.seed ~max_batch:batch rule

type phase = Work | Snapshot | Quit_restart | Final | Quit_final | Done

(* The traced run's twins, fed the same work after each batch: a daemon
   driven through [exec_batch] (no framing) and per-shard engines fed
   the items the responses routed to them (no protocol). *)
type twins = {
  mutable direct : Serve.t;
  mutable engines : Engine.Interactive.t array;
  mutable run_ns : int;
  mutable exec_ns : int;
  mutable engine_ns : int;
  mutable cmds : int;
  mutable places : int;
  mutable batches : int;
  words : Float.Array.t;  (** minor words allocated during batches *)
  mutable encode_ms : float list;
  mutable print_ms : float list;
  mutable parse_ms : float list;
  mutable decode_ms : float list;
  mutable spans : Spans.t option;  (** the first traced pass only *)
}

let fresh_engines () =
  Array.init shards (fun _ ->
      Engine.Interactive.start ~retire:true ~retain_released:false ~max_series:512
        (Fit_group.policy rule))

let new_twins spec =
  {
    direct = create spec;
    engines = fresh_engines ();
    run_ns = 0;
    exec_ns = 0;
    engine_ns = 0;
    cmds = 0;
    places = 0;
    batches = 0;
    words = Float.Array.make 1 0.;
    encode_ms = [];
    print_ms = [];
    parse_ms = [];
    decode_ms = [];
    spans = Some (Spans.create ());
  }

let span tw name ~start =
  Option.iter (fun s -> Spans.add s name ~start ~dur:(Clock.now_ns () - start)) tw.spans

type client = {
  spec : spec;
  src : Event_source.Chunk.t;
  blk : Item_block.t;
  slots : int array;
  mutable slot_i : int;
  mutable slot_n : int;
  mutable exhausted : bool;
  mutable next_hour : int;
  mutable restart_ticks : int list;
  pending : string Queue.t;  (** hourly lines not yet sent *)
  mutable phase : phase;
  (* the batch in flight *)
  out : Buffer.t;  (** the batch's lines, newline-terminated *)
  starts : int array;  (** offset of each line in [out] *)
  items : Item.t option array;  (** the item of each [place] line *)
  resp : string array;
  mutable n : int;
  mutable got : int;
  mutable work : bool;  (** a work batch (not snapshot or quit) *)
  mutable out_pos : int;
  mutable t_start : int;
  mutable w_start : float;
  (* results of the pass *)
  recon : Ref.Bins_of_placements.t array;
  mutable shard_of : Bytes.t;
  mutable placed : int;
  mutable sent : int;
  mutable errors : int;
  mutable final_stats : string;
  mutable snapshot_ms : float list;
  mutable snapshot_kb : float list;
  tm : Segments.t;  (** units: work batches; latency samples: those with places *)
  mutable on_first : (unit -> unit) option;
  mutable daemon : Serve.t;
  twins : twins option;
  mutable problems : string list;
}

let new_client spec ~tm ~on_first ~daemon ~twins =
  {
    spec;
    src = Cloud.chunks ~config:spec.config ~seed:spec.seed ();
    blk = Item_block.create ();
    slots = Array.make 256 (-1);
    slot_i = 0;
    slot_n = 0;
    exhausted = false;
    next_hour = 60;
    restart_ticks =
      List.init restarts (fun k -> (k + 1) * spec.config.days * 1440 / (restarts + 1));
    pending = Queue.create ();
    phase = Work;
    out = Buffer.create (batch * 40);
    starts = Array.make (batch + 1) 0;
    items = Array.make batch None;
    resp = Array.make batch "";
    n = 0;
    got = 0;
    work = false;
    out_pos = 0;
    t_start = 0;
    w_start = 0.;
    recon = Array.init shards (fun _ -> Ref.Bins_of_placements.create ());
    shard_of = Bytes.create 65536;
    placed = 0;
    sent = 0;
    errors = 0;
    final_stats = "";
    snapshot_ms = [];
    snapshot_kb = [];
    tm;
    on_first;
    daemon;
    twins;
    problems = [];
  }

let problem c fmt = Printf.ksprintf (fun m -> c.problems <- m :: c.problems) fmt

(* Next item slot of the trace, or -1 at its end. *)
let peek c =
  if c.slot_i < c.slot_n then c.slots.(c.slot_i)
  else if c.exhausted then -1
  else begin
    c.slot_n <- Event_source.Chunk.next_chunk c.src c.blk c.slots;
    c.slot_i <- 0;
    if c.slot_n = 0 then begin
      c.exhausted <- true;
      -1
    end
    else c.slots.(0)
  end

(* Line [i] of the batch, without its newline. *)
let line c i = Buffer.sub c.out c.starts.(i) (c.starts.(i + 1) - c.starts.(i) - 1)

let end_line c ?item () =
  Buffer.add_char c.out '\n';
  c.items.(c.n) <- item;
  c.n <- c.n + 1;
  c.starts.(c.n) <- Buffer.length c.out

let add_line c ?item l =
  Buffer.add_string c.out l;
  end_line c ?item ()

(* [place <id> <arrival> <departure> <size>], the size with nine
   decimals as [dbp drive] writes it ([%.9f]), written straight into the
   batch buffer: rendering runs outside the batch clock but inside the
   run, and a faster client fits more passes into a run. *)
let add_place c (r : Item.t) =
  let b = c.out in
  let int v = Buffer.add_string b (string_of_int v) in
  let units = Load.to_units r.size in
  let frac = string_of_int (units mod Load.capacity) in
  Buffer.add_string b "place ";
  int r.id;
  Buffer.add_char b ' ';
  int r.arrival;
  Buffer.add_char b ' ';
  int r.departure;
  Buffer.add_string b (if units >= Load.capacity then " 1." else " 0.");
  for _ = String.length frac to 8 do
    Buffer.add_char b '0'
  done;
  Buffer.add_string b frac;
  end_line c ~item:r ()

(* Render the next work batch: pending hourly lines, then places, up to
   [batch] lines; stop early at a restart tick or the end of the
   trace. *)
let fill_work c =
  let stop = ref false in
  while (not !stop) && c.n < batch do
    if not (Queue.is_empty c.pending) then add_line c (Queue.pop c.pending)
    else begin
      let slot = peek c in
      if slot < 0 then begin
        stop := true;
        c.phase <- Final
      end
      else begin
        let arrival = Item_block.arrival c.blk slot in
        match c.restart_ticks with
        | r :: rest when r <= arrival ->
            c.restart_ticks <- rest;
            stop := true;
            c.phase <- Snapshot
        | _ ->
            if c.next_hour <= arrival then begin
              Queue.push (Printf.sprintf "depart %d" c.next_hour) c.pending;
              Queue.push "stats" c.pending;
              c.next_hour <- c.next_hour + 60
            end
            else begin
              let r = Item_block.item c.blk slot in
              add_place c r;
              Item_block.free c.blk slot;
              c.slot_i <- c.slot_i + 1
            end
      end
    end
  done

let ms_since t0 = Clock.seconds_since t0 *. 1e3

(* The traced run times the snapshot codec on the live daemon, apart
   from the [snapshot] command, before the daemon is stopped. *)
let time_encode c tw =
  let t0 = Clock.now_ns () in
  let j = Serve.to_json c.daemon in
  tw.encode_ms <- ms_since t0 :: tw.encode_ms;
  span tw "snapshot.encode" ~start:t0;
  let t1 = Clock.now_ns () in
  ignore (Sys.opaque_identity (Json.to_string j));
  tw.print_ms <- ms_since t1 :: tw.print_ms;
  span tw "snapshot.print" ~start:t1

(* Build the next batch for the daemon, by phase. *)
let render c =
  if c.got <> c.n then problem c "a batch of %d commands got %d responses" c.n c.got;
  Buffer.clear c.out;
  c.n <- 0;
  c.got <- 0;
  c.work <- false;
  (match c.phase with
  | Work ->
      fill_work c;
      if c.n > 0 then c.work <- true
  | _ -> ());
  if c.n = 0 then begin
    match c.phase with
    | Work -> assert false
    | Snapshot ->
        add_line c ("snapshot " ^ c.spec.snap_path);
        c.phase <- Quit_restart
    | Quit_restart ->
        Option.iter (time_encode c) c.twins;
        add_line c "quit";
        c.phase <- Work
    | Final ->
        add_line c (Printf.sprintf "depart %d" (Inputs.horizon c.spec.config));
        add_line c "stats";
        c.work <- true;
        c.phase <- Quit_final
    | Quit_final ->
        add_line c "quit";
        c.phase <- Done
    | Done -> failwith "serve client: daemon asked for input after quit"
  end;
  c.out_pos <- 0;
  c.sent <- c.sent + c.n

let recv c buf off len =
  if c.out_pos >= Buffer.length c.out then begin
    Option.iter (fun f -> c.on_first <- None; f ()) c.on_first;
    render c;
    c.w_start <- Gc.minor_words ();
    c.t_start <- Clock.now_ns ()
  end;
  let k = min len (Buffer.length c.out - c.out_pos) in
  Buffer.blit c.out c.out_pos buf off k;
  c.out_pos <- c.out_pos + k;
  k

let send c line =
  if c.got < c.n then c.resp.(c.got) <- line
  else problem c "response %S to no command" line;
  c.got <- c.got + 1

(* "ok <shard>:<bin>" *)
let parse_place line =
  let n = String.length line in
  let rec num i acc =
    if i < n && line.[i] >= '0' && line.[i] <= '9' then num (i + 1) ((acc * 10) + Char.code line.[i] - 48)
    else (acc, i)
  in
  if String.starts_with ~prefix:"ok " line then
    let s, i = num 3 0 in
    if i < n && line.[i] = ':' then
      let b, j = num (i + 1) 0 in
      if j = n && j > i + 1 then Some (s, b) else None
    else None
  else None

(* The twins replay the batch after the daemon answered it. *)
let replay_twins c tw =
  let work = Array.init c.n (line c) in
  let t0 = Clock.now_ns () in
  let direct = Serve.exec_batch tw.direct work in
  tw.exec_ns <- tw.exec_ns + (Clock.now_ns () - t0);
  span tw "twin.exec_batch" ~start:t0;
  Array.iteri
    (fun i r ->
      if r <> c.resp.(i) then
        problem c "exec_batch answered %S where the daemon answered %S" r c.resp.(i))
    direct;
  (* Routes and depart ticks are read before the engine clock starts. *)
  let ops =
    Array.init c.n (fun i ->
        match (c.items.(i), parse_place c.resp.(i)) with
        | Some r, Some (s, _) -> `Arrive (s, r)
        | _ -> (
            match String.split_on_char ' ' work.(i) with
            | [ "depart"; tick ] -> `Advance (int_of_string tick)
            | _ -> `Skip))
  in
  let t1 = Clock.now_ns () in
  Array.iter
    (function
      | `Arrive (s, r) -> ignore (Engine.Interactive.arrive tw.engines.(s) r)
      | `Advance tick ->
          Array.iter
            (fun e -> if tick > Engine.Interactive.now e then Engine.Interactive.advance_to e tick)
            tw.engines
      | `Skip -> ())
    ops;
  tw.engine_ns <- tw.engine_ns + (Clock.now_ns () - t1);
  span tw "twin.engine" ~start:t1

let flush c =
  if c.got >= c.n then begin
    let dt = Clock.now_ns () - c.t_start in
    let words = Gc.minor_words () -. c.w_start in
    if c.got > c.n then problem c "%d responses to %d commands" c.got c.n;
    let places = ref 0 in
    for i = 0 to c.n - 1 do
      let r = c.resp.(i) in
      if not (String.starts_with ~prefix:"ok" r) then begin
        c.errors <- c.errors + 1;
        problem c "%S answered %S" (line c i) r
      end;
      match c.items.(i) with
      | Some item -> (
          incr places;
          match parse_place r with
          | Some (s, bin) when s < shards ->
              Ref.Bins_of_placements.place c.recon.(s) ~bin ~arrival:item.arrival
                ~departure:item.departure;
              if c.placed >= Bytes.length c.shard_of then begin
                let b = Bytes.create (2 * Bytes.length c.shard_of) in
                Bytes.blit c.shard_of 0 b 0 c.placed;
                c.shard_of <- b
              end;
              Bytes.set c.shard_of c.placed (Char.chr s);
              c.placed <- c.placed + 1
          | _ -> problem c "unparseable place response %S" r)
      | None -> if line c i = "stats" then c.final_stats <- r
    done;
    if c.work then begin
      Segments.note c.tm ~time:dt ~lat:(if !places > 0 then dt else -1);
      Option.iter
        (fun tw ->
          tw.run_ns <- tw.run_ns + dt;
          tw.cmds <- tw.cmds + c.n;
          tw.places <- tw.places + !places;
          tw.batches <- tw.batches + 1;
          Float.Array.set tw.words 0 (Float.Array.get tw.words 0 +. words);
          Option.iter (fun s -> Spans.add s "serve.batch" ~start:c.t_start ~dur:dt) tw.spans;
          replay_twins c tw)
        c.twins
    end
    else if c.n = 1 && String.starts_with ~prefix:"snapshot " (line c 0) then begin
      c.snapshot_ms <- (float_of_int dt /. 1e6) :: c.snapshot_ms;
      c.snapshot_kb <- (float_of_int (Unix.stat c.spec.snap_path).st_size /. 1e3) :: c.snapshot_kb
    end
  end

let conn c =
  {
    Serve.recv = recv c;
    ready = (fun () -> c.out_pos < Buffer.length c.out);
    send = send c;
    flush = (fun () -> flush c);
  }

(* Restart from the snapshot file: through [restore_from_file], or, in
   the traced run, through its two codec steps timed apart. *)
let restore c =
  match c.twins with
  | None -> Serve.restore_from_file ~max_batch:batch c.spec.snap_path
  | Some tw ->
      let s = In_channel.with_open_bin c.spec.snap_path In_channel.input_all in
      let t0 = Clock.now_ns () in
      let j = Json.parse_exn s in
      tw.parse_ms <- ms_since t0 :: tw.parse_ms;
      span tw "restore.parse" ~start:t0;
      let t1 = Clock.now_ns () in
      let d = Serve.of_json ~max_batch:batch j in
      tw.decode_ms <- ms_since t1 :: tw.decode_ms;
      span tw "restore.decode" ~start:t1;
      d

(* What a pass leaves behind: counts, the bins rebuilt per shard, the
   final [stats], restart timings — and the per-item shard ids, which
   the caller keeps for the first pass only. *)
type pass = {
  placed : int;
  sent : int;
  errors : int;
  problems : string list;
  bins : Ref.result array;
  final_stats : string;
  snapshot_ms : float list;
  snapshot_kb : float list;
  restore_ms : float list;
  mutable shard_of : Bytes.t;
}

let pass spec ~tm ~on_first ~twins =
  Option.iter
    (fun tw ->
      tw.direct <- create spec;
      tw.engines <- fresh_engines ())
    twins;
  let c = new_client spec ~tm ~on_first ~daemon:(create spec) ~twins in
  let restore_ms = ref [] in
  Serve.run c.daemon (conn c);
  while c.phase <> Done do
    if not (Serve.stopped c.daemon) then failwith "serve: the daemon stopped reading before quit";
    let t0 = Clock.now_ns () in
    c.daemon <- restore c;
    restore_ms := ms_since t0 :: !restore_ms;
    Serve.run c.daemon (conn c)
  done;
  Segments.end_pass tm;
  {
    placed = c.placed;
    sent = c.sent;
    errors = c.errors;
    problems = List.rev c.problems;
    bins = Array.map Ref.Bins_of_placements.result c.recon;
    final_stats = c.final_stats;
    snapshot_ms = c.snapshot_ms;
    snapshot_kb = c.snapshot_kb;
    restore_ms = !restore_ms;
    shard_of = Bytes.sub c.shard_of 0 c.placed;
  }

(* Passes for [seconds]; every pass must route as the first did. *)
let passes ?warmup ~seconds f =
  let routes = ref None in
  let check f () =
      let p = f () in
      (match !routes with
      | None -> routes := Some p.shard_of
      | Some r ->
          if not (Bytes.equal r p.shard_of) then
            failwith "serve: a pass routed items differently from the first";
          p.shard_of <- Bytes.empty);
      p
  in
  Stream_bench.passes ?warmup:(Option.map check warmup) ~seconds (check f)

(* --- checks --- *)

let parse_stats line =
  try
    Scanf.sscanf line "ok cost=%d open=%d opened=%d max=%d items=%d clock=%d shards=%d"
      (fun cost open_ opened max items _ sh -> Some (cost, open_, opened, max, items, sh))
  with Scanf.Scan_failure _ | Failure _ | End_of_file -> None

(* Per shard, the bins rebuilt from the responses must match the
   reference First-Fit over the items the responses routed there; the
   final [stats], after every restart, must equal the sum. Returns the
   cost ratio over the floor of the whole trace. *)
let check spec rep passes =
  let items = Inputs.reference_items ~config:spec.config ~seed:spec.seed in
  let n = Array.length items in
  let first = List.hd passes in
  let shard_items =
    Array.init shards (fun s ->
        let l = ref [] in
        for i = min n first.placed - 1 downto 0 do
          if Char.code (Bytes.get first.shard_of i) = s then l := items.(i) :: !l
        done;
        Array.of_list !l)
  in
  let refs = Array.map (fun a -> fst (Ref.first_fit ~capacity:Load.capacity a)) shard_items in
  let sum f = Array.fold_left (fun acc r -> acc + f r) 0 refs in
  let cost = sum (fun r -> r.Ref.cost) in
  List.iteri
    (fun p c ->
      List.iter (fun m -> Report.problem rep "pass %d: %s" p m) c.problems;
      Report.check rep (c.placed = n) "pass %d: %d places answered, trace has %d items" p c.placed n;
      Array.iteri
        (fun s r ->
          let got = c.bins.(s) in
          Report.check rep (got = r) "pass %d shard %d: responses give %s, reference First-Fit %s" p s
            (Ref.pp_result got) (Ref.pp_result r))
        refs;
      match parse_stats c.final_stats with
      | Some (c_cost, open_, opened, max, its, sh) ->
          Report.check rep
            (c_cost = cost && open_ = 0
            && opened = sum (fun r -> r.bins_opened)
            && max = sum (fun r -> r.max_open)
            && its = n && sh = shards)
            "pass %d: final %S, reference cost=%d opened=%d max=%d items=%d" p c.final_stats cost
            (sum (fun r -> r.bins_opened)) (sum (fun r -> r.max_open)) n
      | None -> Report.problem rep "pass %d: final stats %S unparseable" p c.final_stats)
    passes;
  let floor = Ref.floor ~capacity:Load.capacity items and upper = Ref.sum_durations items in
  Report.check rep (floor <= cost && cost <= upper) "cost %d outside [floor %d, sum of durations %d]"
    cost floor upper;
  float_of_int cost /. float_of_int floor

(* --- a run --- *)

(* Places per second of batch round trips, over the kept stretches. *)
let rate tm places = float_of_int places /. (float_of_int (Segments.total tm) *. 1e-9)

let run spec ~seconds ~trace ~trace_path ~on_first rep =
  let on_first = ref (Some on_first) in
  let take_first () =
    let f = !on_first in
    on_first := None;
    f
  in
  let tm = Segments.create () and gc = Stream_bench.gc_count () in
  let untraced seconds =
    let run tm () = pass spec ~tm ~on_first:(take_first ()) ~twins:None in
    passes ~warmup:(run (Segments.create ())) ~seconds (Stream_bench.counted gc (run tm))
  in
  let account ps =
    List.iter
      (fun p ->
        rep.Report.attempted <- rep.Report.attempted + p.sent;
        rep.failed <- rep.failed + p.errors)
      ps
  in
  if not trace then begin
    let ps = untraced seconds in
    let rss = Clock.peak_rss_mb () in
    prerr_endline (Printf.sprintf "perfbench: %d passes after warm-up; %s" (List.length ps - 1) (Segments.describe tm));
    account ps;
    let ratio = check spec rep ps in
    Report.metric rep "items_per_s" "items/s" (rate tm (List.hd ps).placed);
    Report.metric rep "peak_rss_mb" "MB" rss;
    Report.metric rep "cost_ratio" "ratio" ratio;
    Report.metric rep "place_p50_us" "us" (Segments.quantile tm 0.5 /. 1e3);
    Report.metric rep "place_p90_us" "us" (Segments.quantile tm 0.9 /. 1e3)
  end
  else begin
    let pa = untraced (0.4 *. seconds) in
    Stream_bench.report_gc rep gc ~items:(List.fold_left (fun acc p -> acc + p.placed) 0 (List.tl pa));
    let tw = new_twins spec and tb = Segments.create () in
    let pb =
      passes ~seconds:(0.6 *. seconds) (fun () ->
          let p = pass spec ~tm:tb ~on_first:None ~twins:(Some tw) in
          Option.iter (fun s -> Spans.write s trace_path) tw.spans;
          tw.spans <- None;
          p)
    in
    let ps = pa @ pb in
    account ps;
    ignore (check spec rep ps);
    let per a b = float_of_int a /. float_of_int b in
    let med l = Report.median l in
    Report.metric rep "serve.framing_ns_per_cmd" "ns" (per (tw.run_ns - tw.exec_ns) tw.cmds);
    Report.metric rep "serve.protocol_ns_per_cmd" "ns" (per (tw.exec_ns - tw.engine_ns) tw.cmds);
    Report.metric rep "serve.engine_ns_per_place" "ns" (per tw.engine_ns tw.places);
    Report.metric rep "serve.words_per_cmd" "words" (Float.Array.get tw.words 0 /. float_of_int tw.cmds);
    Report.metric rep "serve.batch_fill" "lines" (per tw.cmds tw.batches);
    Report.metric rep "serve.snapshot_ms" "ms" (med (List.concat_map (fun p -> p.snapshot_ms) ps));
    Report.metric rep "serve.snapshot_kb" "KB" (med (List.concat_map (fun p -> p.snapshot_kb) ps));
    Report.metric rep "serve.restore_ms" "ms" (med (List.concat_map (fun p -> p.restore_ms) pa));
    Report.metric rep "snapshot.encode_ms" "ms" (med tw.encode_ms);
    Report.metric rep "snapshot.print_ms" "ms" (med tw.print_ms);
    Report.metric rep "restore.parse_ms" "ms" (med tw.parse_ms);
    Report.metric rep "restore.decode_ms" "ms" (med tw.decode_ms);
    let placed = (List.hd pa).placed in
    let ua = rate tm placed and ta = rate tb placed in
    Report.metric rep "trace.overhead_pct" "%" (100. *. (ua -. ta) /. ua)
  end
