(* perfbench: the placement engine and daemon under four workloads.

     perfbench --workload NAME --seed N --seconds S --trace 0|1
     perfbench --smoke

   Prints, as its last line, one JSON object: whether every check
   passed, the operations attempted and failed, and the metrics — the
   end-to-end set untraced (--trace 0), the per-layer set traced
   (--trace 1). Exits 1 when a check fails. See perfbench/README.md. *)

let workloads = [ "cloud-ff"; "cloud-d2-ff"; "cloud-recourse"; "serve" ]

let end_to_end =
  [ "items_per_s"; "setup_s"; "peak_rss_mb"; "cost_ratio"; "place_p50_us"; "place_p90_us" ]

(* Every per-layer metric, with its unit; a workload that never enters a
   layer reports 0 for it. *)
let per_layer =
  [
    ("source.ns_per_item", "ns");
    ("source.words_per_item", "words");
    ("policy.arrive_ns", "ns");
    ("policy.depart_ns", "ns");
    ("policy.words_per_arrival", "words");
    ("policy.open_bins_per_arrival", "count");
    ("policy.vec_rejects_per_arrival", "count");
    ("recourse.plan_ns_per_event", "ns");
    ("recourse.open_bins_per_event", "count");
    ("recourse.plan_success_ratio", "ratio");
    ("recourse.moves", "count");
    ("engine.glue_ns_per_item", "ns");
    ("depart_queue.ns_per_op", "ns");
    ("bin_store.ns_per_op", "ns");
    ("ff_index.ns_per_op", "ns");
    ("serve.framing_ns_per_cmd", "ns");
    ("serve.protocol_ns_per_cmd", "ns");
    ("serve.engine_ns_per_place", "ns");
    ("serve.words_per_cmd", "words");
    ("serve.batch_fill", "lines");
    ("serve.snapshot_ms", "ms");
    ("serve.snapshot_kb", "KB");
    ("serve.restore_ms", "ms");
    ("snapshot.encode_ms", "ms");
    ("snapshot.print_ms", "ms");
    ("restore.parse_ms", "ms");
    ("restore.decode_ms", "ms");
    ("gc.minor_words_per_item", "words");
    ("gc.major_collections", "count/pass");
    ("gc.top_heap_mb", "MB");
    ("trace.overhead_pct", "%");
  ]

let out_dir = Filename.concat "perfbench" "_out"

let usage () =
  prerr_endline
    "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1\n\
    \       perfbench --smoke\n\
     workloads: cloud-ff, cloud-d2-ff, cloud-recourse, serve";
  exit 2

(* One run of one workload. [t0] is the wall-clock time the process
   started; set-up ends when the engine or daemon asks for its first
   item. *)
let run_workload ~t0 ~smoke ~workload ~seed ~seconds ~trace =
  let rep = Report.create () in
  let setup = ref nan in
  let on_first () = setup := Unix.gettimeofday () -. t0 in
  let trace_path = Filename.concat out_dir (Printf.sprintf "%s.trace.json" workload) in
  (try
     let stream kind =
       (* The [dbp stream] GC profile is part of its set-up. *)
       Dbp_util.Gc_tune.apply Dbp_util.Gc_tune.stream_default;
       Stream_bench.run (Stream_bench.spec kind ~seed ~smoke) ~seconds ~trace ~trace_path ~on_first rep
     in
     match workload with
     | "cloud-ff" -> stream Ff
     | "cloud-d2-ff" -> stream D2_ff
     | "cloud-recourse" -> stream Recourse
     | "serve" ->
         let snap_path = Filename.concat out_dir (Printf.sprintf "serve-%d.snap" (Unix.getpid ())) in
         Fun.protect
           ~finally:(fun () -> List.iter (fun p -> if Sys.file_exists p then Sys.remove p) [ snap_path; snap_path ^ ".tmp" ])
           (fun () ->
             Serve_bench.run (Serve_bench.spec ~seed ~smoke ~snap_path) ~seconds ~trace ~trace_path ~on_first rep)
     | _ -> usage ()
   with e ->
     rep.failed <- rep.failed + 1;
     Report.problem rep "%s raised %s" workload (Printexc.to_string e));
  if not trace then Report.metric rep "setup_s" "s" !setup;
  (* Exactly the metric set of the mode, in a fixed order. *)
  let find name = List.find_opt (fun (n, _, _) -> n = name) rep.metrics in
  let ordered =
    if trace then List.map (fun (n, u) -> match find n with Some m -> m | None -> (n, 0., u)) per_layer
    else List.filter_map find end_to_end
  in
  rep.metrics <- List.rev ordered;
  if not trace then
    List.iter
      (fun n -> if find n = None then Report.problem rep "metric %s missing" n)
      end_to_end;
  List.iter (fun m -> prerr_endline ("perfbench: check failed: " ^ m)) (List.rev rep.problems);
  rep

let () =
  let t_main = Unix.gettimeofday () in
  let t0 = Option.value (Clock.process_start ()) ~default:t_main in
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 and smoke = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME one of " ^ String.concat ", " workloads);
      ("--seed", Arg.Set_int seed, "N trace seed (1 = the pinned trace)");
      ("--seconds", Arg.Set_float seconds, "S measure for S seconds (whole passes)");
      ("--trace", Arg.Set_int trace, "0|1 untraced end-to-end run, or traced per-layer run");
      ("--smoke", Arg.Set smoke, " every workload on a small trace, traced and untraced, every check on");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench";
  (* One domain: the serve fan-out stays inline. *)
  Dbp_util.Pool.set_default_jobs 1;
  if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
  if !smoke then begin
    let ok =
      List.for_all Fun.id
        (List.concat_map
           (fun workload ->
             List.map
               (fun trace ->
                 (* Set-up is timed from the start of each workload here. *)
                 let t0 = Unix.gettimeofday () in
                 let rep = run_workload ~t0 ~smoke:true ~workload ~seed:!seed ~seconds:0. ~trace in
                 Printf.printf "%s trace=%b: %s\n%!" workload trace (Report.to_json rep);
                 Report.correct rep)
               [ false; true ])
           workloads)
    in
    print_endline (if ok then "smoke: ok" else "smoke: FAILED");
    exit (if ok then 0 else 1)
  end
  else begin
    if not (List.mem !workload workloads) || (!trace <> 0 && !trace <> 1) || !seconds < 0. then usage ();
    let rep =
      run_workload ~t0 ~smoke:false ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1)
    in
    print_endline (Report.to_json rep);
    exit (if Report.correct rep then 0 else 1)
  end
