(* The three stream workloads: the cloud trace through
   [Engine.Stream.run_chunks] with the [dbp stream] defaults, at d=1
   (cloud-ff), at d=2 (cloud-d2-ff), and at d=1 under
   [Recourse.wrap ~k:2] (cloud-recourse).

   A run repeats whole passes over the same trace until its time is up.
   Untraced, the emitter is wrapped only to stamp each call (two clock
   reads per 256 items). Traced (--trace 1), a run has four phases:
   untraced passes (the rate the tracing overhead is measured against,
   and the GC counters), timed passes with every layer call wrapped, one
   counting pass, and on cloud-ff the isolated replays. *)

open Dbp_util
open Dbp_instance
open Dbp_sim
module Cloud = Dbp_workloads.Cloud_traces
module Ref = Perfbench_ref.Reference

type kind = Ff | D2_ff | Recourse

type spec = { kind : kind; config : Cloud.config; dims : int; seed : int }

(* Trace lengths keep a pass under a second, so that a run holds some
   twenty passes for {!Segments} to choose from. *)
let spec kind ~seed ~smoke =
  let days, dims =
    match kind with
    | Ff -> ((if smoke then 2 else 60), 1)
    | D2_ff -> ((if smoke then 1 else 6), 2)
    | Recourse -> ((if smoke then 1 else 2), 1)
  in
  { kind; config = Inputs.cloud ~days ~dims; dims; seed }

let recourse_k = 2
let ff = Dbp_baselines.Any_fit.first_fit

let budget spec factory =
  if spec.kind = Recourse then Recourse.wrap ~k:recourse_k factory else factory

let run_pass spec factory emitter =
  Engine.Stream.run_chunks ~retire:true ~track_items:(spec.kind = Recourse) ~max_series:512
    ~chunk_size:Engine.Stream.default_chunk_size ~dims:spec.dims factory emitter

let native spec = Cloud.chunks ~config:spec.config ~seed:spec.seed ()

(* What a pass produced; the post-run store is not kept, so the
   benchmark's own footprint does not grow with the number of passes. *)
type summary = { items : int; cost : int; bins_opened : int; max_open : int; moves : int }

let summary (s : Engine.Stream.stats) =
  {
    items = s.items;
    cost = s.result.cost;
    bins_opened = s.result.bins_opened;
    max_open = s.result.max_open;
    moves = s.result.moves;
  }

let describe s =
  Printf.sprintf "items=%d cost=%d bins_opened=%d max_open=%d moves=%d" s.items s.cost
    s.bins_opened s.max_open s.moves

(* Whole passes: an optional warm-up pass, whose timings the caller
   drops, then passes until [seconds] have elapsed (at least one). The
   heap is compacted before each timed pass, so every pass starts from
   the same GC state and the collector's work falls into the same
   stretches of each pass (see {!Segments}). *)
let passes ?warmup ~seconds f =
  let first = Option.map (fun w -> w ()) warmup in
  let t0 = Clock.now_ns () in
  let rec go acc =
    Gc.compact ();
    let p = f () in
    if Clock.seconds_since t0 >= seconds then List.rev (p :: acc) else go (p :: acc)
  in
  let ps = go [] in
  match first with Some p -> p :: ps | None -> ps

(* GC counters over the passes themselves, leaving out the collections
   {!passes} forces between them. *)
type gc_count = { mutable minor_words : float; mutable majors : int; mutable n : int }

let gc_count () = { minor_words = 0.; majors = 0; n = 0 }

let counted g f () =
  let g0 = Gc.quick_stat () in
  let p = f () in
  let g1 = Gc.quick_stat () in
  g.minor_words <- g.minor_words +. (g1.minor_words -. g0.minor_words);
  g.majors <- g.majors + (g1.major_collections - g0.major_collections);
  g.n <- g.n + 1;
  p

let report_gc rep g ~items =
  Report.metric rep "gc.minor_words_per_item" "words" (g.minor_words /. float_of_int items);
  Report.metric rep "gc.major_collections" "count/pass" (float_of_int g.majors /. float_of_int g.n);
  Report.metric rep "gc.top_heap_mb" "MB"
    (float_of_int ((Gc.quick_stat ()).top_heap_words * (Sys.word_size / 8)) /. 1e6)

(* --- timed passes --- *)

(* A pass's units are its emitter calls: the time from one call to the
   next (generate a chunk, drain the one before), with the drain — from
   hand-over to the next call — as the latency sample. Engine start and
   the final drain are units without a sample. *)
let rate (tm : Segments.t) items = float_of_int items /. (float_of_int (Segments.total tm) *. 1e-9)

(* One pass through [factory]; [probe] makes the native emitter call
   inside the stamping wrapper. *)
let timed_pass spec tm ~on_first ~factory ~probe =
  let src = native spec in
  let first = ref true and prev = ref 0 and handed = ref 0 in
  let emitter =
    Event_source.Chunk.make (fun blk slots ->
        let t = Clock.now_ns () in
        if !first then begin
          first := false;
          on_first ();
          Segments.note tm ~time:(t - !prev) ~lat:(-1)
        end
        else Segments.note tm ~time:(t - !prev) ~lat:(t - !handed);
        prev := t;
        let n = probe src blk slots in
        handed := Clock.now_ns ();
        n)
  in
  prev := Clock.now_ns ();
  let s = run_pass spec factory emitter in
  Segments.note tm ~time:(Clock.now_ns () - !prev) ~lat:(-1);
  Segments.end_pass tm;
  summary s

let plain src blk slots = Event_source.Chunk.next_chunk src blk slots

(* --- traced passes --- *)

(* Accumulators of the traced passes. Times in ns; allocation in minor
   words, kept in a float array so that recording them allocates
   nothing. *)
type acc = {
  mutable src_ns : int;
  mutable src_calls : int;
  mutable items : int;
  mutable arr_ns : int;  (** inner policy [on_arrival] *)
  mutable dep_ns : int;  (** inner policy [on_departure] *)
  mutable arrivals : int;
  mutable departures : int;
  mutable outer_ns : int;  (** the policy as the engine sees it *)
  mutable outer_calls : int;
  mutable pass_ns : int;
  words : Float.Array.t;  (** 0: emitter, 1: inner arrivals *)
  mutable spans : Spans.t option;  (** the first traced pass only *)
  mutable policy_mark : int;
}

let new_acc () =
  {
    src_ns = 0;
    src_calls = 0;
    items = 0;
    arr_ns = 0;
    dep_ns = 0;
    arrivals = 0;
    departures = 0;
    outer_ns = 0;
    outer_calls = 0;
    pass_ns = 0;
    words = Float.Array.make 2 0.;
    spans = Some (Spans.create ());
    policy_mark = 0;
  }

let add_words a i w0 w1 = Float.Array.set a.words i (Float.Array.get a.words i +. (w1 -. w0))

(* The policy the engine calls ([outer]); on cloud-recourse the
   First-Fit inside [Recourse.wrap] is wrapped too ([inner]), so the
   planning time is the difference. Without recourse, [inner] alone
   wraps First-Fit. *)
let inner_wrap a (factory : Policy.factory) store =
  let p = factory store in
  {
    p with
    Policy.on_arrival =
      (fun ~now r ->
        let w0 = Gc.minor_words () in
        let t0 = Clock.now_ns () in
        let b = p.on_arrival ~now r in
        let t1 = Clock.now_ns () in
        add_words a 1 w0 (Gc.minor_words ());
        a.arr_ns <- a.arr_ns + (t1 - t0);
        a.arrivals <- a.arrivals + 1;
        b);
    on_departure =
      (fun ~now r ~bin ~closed ->
        let t0 = Clock.now_ns () in
        p.on_departure ~now r ~bin ~closed;
        a.dep_ns <- a.dep_ns + (Clock.now_ns () - t0);
        a.departures <- a.departures + 1);
  }

let outer_wrap a (factory : Policy.factory) store =
  let p = factory store in
  {
    p with
    Policy.on_arrival =
      (fun ~now r ->
        let t0 = Clock.now_ns () in
        let b = p.on_arrival ~now r in
        a.outer_ns <- a.outer_ns + (Clock.now_ns () - t0);
        a.outer_calls <- a.outer_calls + 1;
        b);
    on_departure =
      (fun ~now r ~bin ~closed ->
        let t0 = Clock.now_ns () in
        p.on_departure ~now r ~bin ~closed;
        a.outer_ns <- a.outer_ns + (Clock.now_ns () - t0);
        a.outer_calls <- a.outer_calls + 1);
  }

let traced_factory spec a =
  match spec.kind with
  | Recourse -> outer_wrap a (Recourse.wrap ~k:recourse_k (inner_wrap a ff))
  | Ff | D2_ff -> inner_wrap a ff

let policy_ns spec a = if spec.kind = Recourse then a.outer_ns else a.arr_ns + a.dep_ns

(* The emitter call, timed; spans at chunk granularity: the call, and
   the engine's drain of the chunk handed over before it, with the
   policy's share of that drain. *)
let traced_probe spec a =
  let handed = ref 0 in
  fun src blk slots ->
    let w0 = Gc.minor_words () in
    let t0 = Clock.now_ns () in
    let n = Event_source.Chunk.next_chunk src blk slots in
    let t1 = Clock.now_ns () in
    add_words a 0 w0 (Gc.minor_words ());
    a.src_ns <- a.src_ns + (t1 - t0);
    a.src_calls <- a.src_calls + 1;
    a.items <- a.items + n;
    (match a.spans with
    | Some s ->
        let p = policy_ns spec a in
        if !handed > 0 then
          Spans.add s "engine.drain" ~start:!handed ~dur:(t0 - !handed)
            ~args:(Printf.sprintf "\"policy_us\":\"%.3f\"" (float_of_int (p - a.policy_mark) /. 1e3));
        Spans.add s "source.chunk" ~start:t0 ~dur:(t1 - t0);
        a.policy_mark <- p
    | None -> ());
    handed := t1;
    n

(* Cost of one probe pair as the wrappers take them (two clock reads
   and two allocation-counter reads), so that engine self time can be
   reported without the tracer's own share. *)
let probe_pair_ns () =
  let n = 200_000 and sink = ref 0 in
  let t0 = Clock.now_ns () in
  for _ = 1 to n do
    let w0 = Gc.minor_words () in
    let a = Clock.now_ns () in
    let b = Clock.now_ns () in
    sink := !sink + (b - a) + int_of_float (Gc.minor_words () -. w0)
  done;
  ignore (Sys.opaque_identity !sink);
  float_of_int (Clock.now_ns () - t0) /. float_of_int n

(* --- the counting pass --- *)

(* Counts, per policy call, what the timed passes must not pay for:
   open bins, vector rejects (open bins ahead of the chosen one that fit
   dimension 0 but not dimension 1 — the restarts of the resume scan),
   and moves per event. On request it also records the operation
   stream of the store and the fit index for the replays. *)
type counts = {
  mutable c_arrivals : int;
  mutable c_events : int;
  mutable open_at_arrival : int;
  mutable open_at_event : int;
  mutable vec_rejects : int;
  mutable max_moves : int;
  ops : int Vec.t;  (** {!Replay} recording *)
}

(* The replays use the first 300k events (about 11 simulated days of
   the 60-day trace): enough for a steady ns/op, and a bounded
   recording. *)
let record_limit = 300_000 * Replay.width

let new_counts () =
  {
    c_arrivals = 0;
    c_events = 0;
    open_at_arrival = 0;
    open_at_event = 0;
    vec_rejects = 0;
    max_moves = 0;
    ops = Vec.create ();
  }

let vec_rejects store (r : Item.t) chosen =
  let need0 = Load.to_units r.size in
  (* Bins ahead of [chosen] in opening order were not touched by this
     placement, so their state is the state the scan saw. *)
  let exception Stop of int in
  try
    Bin_store.fold_open
      (fun n b ->
        if b = chosen then raise (Stop n)
        else if
          Bin_store.residual_units store b >= need0 && not (Bin_store.fits_extra store b r.extra)
        then n + 1
        else n)
      0 store
  with Stop n -> n

let counting_factory spec c ~record =
  let count_inner (factory : Policy.factory) store =
    let p = factory store in
    {
      p with
      Policy.on_arrival =
        (fun ~now r ->
          let open_before = Bin_store.open_count store in
          let opened_before = Bin_store.bins_opened store in
          let b = p.on_arrival ~now r in
          c.c_arrivals <- c.c_arrivals + 1;
          c.open_at_arrival <- c.open_at_arrival + open_before;
          if spec.dims > 1 then c.vec_rejects <- c.vec_rejects + vec_rejects store r b;
          if record && Vec.length c.ops < record_limit then
            Replay.record c.ops ~tick:now ~id:r.id ~departure:r.departure
              ~units:(Load.to_units r.size) ~bin:b
              ~flag:(Bin_store.bins_opened store - opened_before);
          b);
      on_departure =
        (fun ~now r ~bin ~closed ->
          p.on_departure ~now r ~bin ~closed;
          if record && Vec.length c.ops < record_limit then
            Replay.record c.ops ~tick:now ~id:r.id ~departure:r.departure
              ~units:(-Load.to_units r.size) ~bin
              ~flag:(if closed then 1 else 0));
    }
  in
  let count_outer (factory : Policy.factory) store =
    let p = factory store in
    let around f =
      let m0 = Bin_store.move_count store in
      c.c_events <- c.c_events + 1;
      c.open_at_event <- c.open_at_event + Bin_store.open_count store;
      let v = f () in
      c.max_moves <- max c.max_moves (Bin_store.move_count store - m0);
      v
    in
    {
      p with
      Policy.on_arrival = (fun ~now r -> around (fun () -> p.on_arrival ~now r));
      on_departure =
        (fun ~now r ~bin ~closed -> around (fun () -> p.on_departure ~now r ~bin ~closed));
    }
  in
  count_outer (budget spec (count_inner ff))

(* The counting pass doubles as the check that no event moves more than
   [recourse_k] items, read from the store around each policy call. *)
let counting_pass spec rep first ~record =
  let c = new_counts () in
  let s = summary (run_pass spec (counting_factory spec c ~record) (native spec)) in
  Report.check rep (s = first) "counting pass differs from pass 0: %s vs %s" (describe s)
    (describe first);
  if spec.kind = Recourse then
    Report.check rep (c.max_moves <= recourse_k) "an event moved %d items (budget %d)" c.max_moves
      recourse_k;
  c

let counter name =
  List.fold_left
    (fun acc (e : Metrics.entry) -> match e.value with Counter v when e.name = name -> v | _ -> acc)
    0 (Metrics.snapshot ())

(* --- checks --- *)

(* Every pass must give the first pass's result, and the first pass must
   agree with computations made apart from the program. Returns the
   cost ratio over the Lemma 3.1 floor. *)
let check spec rep all =
  let first = List.hd all in
  List.iteri
    (fun i s ->
      Report.check rep (s = first) "pass %d differs from pass 0: %s vs %s" i (describe s)
        (describe first))
    all;
  let items = Inputs.reference_items ~config:spec.config ~seed:spec.seed in
  let capacity = Load.capacity in
  let floor = Ref.floor ~capacity items and upper = Ref.sum_durations items in
  let cost = first.cost in
  Report.check rep (Array.length items = first.items) "engine consumed %d items, trace has %d"
    first.items (Array.length items);
  Report.check rep (floor <= cost && cost <= upper) "cost %d outside [floor %d, sum of durations %d]"
    cost floor upper;
  (match spec.kind with
  | Ff | D2_ff ->
      let r, _ = Ref.first_fit ~capacity items in
      Report.check rep
        (r.cost = cost && r.bins_opened = first.bins_opened && r.max_open = first.max_open)
        "reference First-Fit %s, engine %s" (Ref.pp_result r) (describe first)
  | Recourse ->
      let inst =
        Instance.of_items
          (Array.to_list
             (Array.map
                (fun (r : Ref.item) ->
                  Item.make ~id:r.id ~arrival:r.arrival ~departure:r.departure
                    ~size:(Load.of_units r.size.(0)))
                items))
      in
      let n = Dbp_check.Naive.run (budget spec ff) inst in
      Report.check rep
        (n.cost = cost && n.bins_opened = first.bins_opened && n.moves = first.moves)
        "naive engine cost=%d bins_opened=%d moves=%d, engine %s" n.cost n.bins_opened n.moves
        (describe first));
  float_of_int cost /. float_of_int floor

(* --- a run --- *)

let sum_items ps = List.fold_left (fun acc (p : summary) -> acc + p.items) 0 ps

let run spec ~seconds ~trace ~trace_path ~on_first rep =
  let first_call = ref true in
  let on_first () =
    if !first_call then begin
      first_call := false;
      on_first ()
    end
  in
  let gc = gc_count () in
  let untraced tm seconds =
    let pass tm () = timed_pass spec tm ~on_first ~factory:(budget spec ff) ~probe:plain in
    passes ~warmup:(pass (Segments.create ())) ~seconds (counted gc (pass tm))
  in
  let tm = Segments.create () in
  if not trace then begin
    let ps = untraced tm seconds in
    let rss = Clock.peak_rss_mb () in
    prerr_endline (Printf.sprintf "perfbench: %d passes after warm-up; %s" (List.length ps - 1) (Segments.describe tm));
    rep.Report.attempted <- sum_items ps;
    let ratio = check spec rep ps in
    if spec.kind = Recourse then ignore (counting_pass spec rep (List.hd ps) ~record:false);
    Report.metric rep "items_per_s" "items/s" (rate tm (List.hd ps).items);
    Report.metric rep "peak_rss_mb" "MB" rss;
    Report.metric rep "cost_ratio" "ratio" ratio;
    Report.metric rep "place_p50_us" "us" (Segments.quantile tm 0.5 /. 1e3);
    Report.metric rep "place_p90_us" "us" (Segments.quantile tm 0.9 /. 1e3)
  end
  else begin
    (* Phase 1: untraced passes. *)
    let pa = untraced tm (0.4 *. seconds) in
    report_gc rep gc ~items:(sum_items (List.tl pa));
    (* Phase 2: every layer call wrapped. Layer shares are raw sums over
       these passes, so that the parts and the whole share one base. *)
    let probe = probe_pair_ns () in
    let a = new_acc () and tb = Segments.create () in
    let pb =
      passes ~seconds:(0.6 *. seconds) (fun () ->
          let t0 = Clock.now_ns () in
          let p =
            timed_pass spec tb ~on_first ~factory:(traced_factory spec a) ~probe:(traced_probe spec a)
          in
          a.pass_ns <- a.pass_ns + (Clock.now_ns () - t0);
          Option.iter (fun s -> Spans.write s trace_path) a.spans;
          a.spans <- None;
          p)
    in
    (* Phase 3: counts, and the recording the replays use. *)
    let first = List.hd pa in
    let closed0 = counter "recourse.bins_closed" and rejected0 = counter "recourse.plans_rejected" in
    let c = counting_pass spec rep first ~record:(spec.kind = Ff) in
    let closed = counter "recourse.bins_closed" - closed0
    and rejected = counter "recourse.plans_rejected" - rejected0 in
    rep.attempted <- sum_items pa + sum_items pb;
    ignore (check spec rep (pa @ pb));
    let per a b = float_of_int a /. float_of_int b in
    let items = a.items in
    Report.metric rep "source.ns_per_item" "ns" (per a.src_ns items);
    Report.metric rep "source.words_per_item" "words" (Float.Array.get a.words 0 /. float_of_int items);
    Report.metric rep "policy.arrive_ns" "ns" (per a.arr_ns a.arrivals);
    Report.metric rep "policy.depart_ns" "ns" (per a.dep_ns a.departures);
    Report.metric rep "policy.words_per_arrival" "words"
      (Float.Array.get a.words 1 /. float_of_int a.arrivals);
    Report.metric rep "policy.open_bins_per_arrival" "count" (per c.open_at_arrival c.c_arrivals);
    Report.metric rep "policy.vec_rejects_per_arrival" "count" (per c.vec_rejects c.c_arrivals);
    let probes =
      if spec.kind = Recourse then begin
        Report.metric rep "recourse.plan_ns_per_event" "ns"
          (per (a.outer_ns - a.arr_ns - a.dep_ns) a.outer_calls);
        Report.metric rep "recourse.open_bins_per_event" "count" (per c.open_at_event c.c_events);
        Report.metric rep "recourse.plan_success_ratio" "ratio" (per closed (closed + rejected));
        Report.metric rep "recourse.moves" "count" (float_of_int first.moves);
        a.src_calls + a.arrivals + a.departures + a.outer_calls
      end
      else a.src_calls + a.arrivals + a.departures
    in
    (* Engine self time: the pass minus the emitter and policy spans
       inside it, and minus the probes' own cost. *)
    Report.metric rep "engine.glue_ns_per_item" "ns"
      ((float_of_int (a.pass_ns - a.src_ns - policy_ns spec a) -. (probe *. float_of_int probes))
      /. float_of_int items);
    if spec.kind = Ff then begin
      let r = Replay.run c.ops in
      Report.metric rep "depart_queue.ns_per_op" "ns" r.depart_queue;
      Report.metric rep "bin_store.ns_per_op" "ns" r.bin_store;
      Report.metric rep "ff_index.ns_per_op" "ns" r.ff_index
    end;
    let ua = rate tm first.items and ta = rate tb first.items in
    prerr_endline
      (Printf.sprintf "perfbench: untraced %.0f items/s over %d passes, traced %.0f over %d"
         ua (List.length pa - 1) ta (List.length pb));
    Report.metric rep "trace.overhead_pct" "%" (100. *. (ua -. ta) /. ua)
  end
