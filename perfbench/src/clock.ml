(* Nanosecond monotonic clock. [Unix.gettimeofday] ticks in
   microseconds, too coarse for policy calls that take ~100 ns; this
   reads CLOCK_MONOTONIC through an allocation-free stub. *)
let now_ns () = Int64.to_int (Monotonic_clock.now ())

let seconds_since t0 = float_of_int (now_ns () - t0) *. 1e-9

(* Wall-clock seconds, for the one interval that starts before this
   process exists: the launcher records the epoch time just before it
   execs the benchmark binary. *)
let process_start () =
  match Sys.getenv_opt "PERFBENCH_EXEC_T0" with
  | Some s -> ( match float_of_string_opt s with Some t -> Some t | None -> None)
  | None -> None

(* Peak resident set (VmHWM) of this process, in MB (10^6 bytes). *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec scan () =
        match input_line ic with
        | line ->
            if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
              Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB"
                (fun kb -> float_of_int kb *. 1024. /. 1e6)
            else scan ()
        | exception End_of_file -> failwith "VmHWM not found in /proc/self/status"
      in
      scan ())
