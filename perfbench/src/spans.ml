(* Spans of a traced run, kept in memory and written when the run ends
   as a Chrome trace-event array — the format [dbp --trace] writes, so
   the same viewers (chrome://tracing, Perfetto) load it. Times are
   [Clock.now_ns] readings; the file shows them in microseconds from
   the first span. *)

open Dbp_util

type t = {
  names : string Vec.t;
  starts : int Vec.t;
  durs : int Vec.t;
  args : string Vec.t;  (** rendered JSON members, possibly empty *)
}

let create () =
  { names = Vec.create (); starts = Vec.create (); durs = Vec.create (); args = Vec.create () }

let add t ?(args = "") name ~start ~dur =
  Vec.push t.names name;
  Vec.push t.starts start;
  Vec.push t.durs dur;
  Vec.push t.args args

let write t path =
  let n = Vec.length t.starts in
  let base = Vec.fold_left min max_int t.starts in
  let us v = float_of_int v /. 1e3 in
  Out_channel.with_open_bin path (fun oc ->
      output_string oc "[\n";
      for i = 0 to n - 1 do
        Printf.fprintf oc
          "{\"name\":%S,\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":0,\"tid\":0,\"args\":{%s}}%s\n"
          (Vec.get t.names i)
          (us (Vec.get t.starts i - base))
          (us (Vec.get t.durs i))
          (Vec.get t.args i)
          (if i = n - 1 then "" else ",")
      done;
      output_string oc "]\n")
