(* The benchmark's inputs: the program's own cloud-trace generator at a
   fixed configuration per workload, with the seed from the command
   line. *)

open Dbp_instance
module Cloud = Dbp_workloads.Cloud_traces

let cloud ~days ~dims =
  let resource =
    if dims = 1 then Dbp_workloads.Resource_shape.scalar
    else { dims; shape = Correlated 0.8; dim_mu = [||] }
  in
  { Cloud.default with days; base_rate = 20.0; resource }

(* Tick past every departure of a trace. *)
let horizon (config : Cloud.config) = (config.days * 1440) + config.max_duration + 1

(* Pull every item of a fresh emitter, one chunk at a time, through a
   scratch arena. [f] sees each slot before it is freed. *)
let iter_chunks ~config ~seed f =
  let em = Cloud.chunks ~config ~seed () in
  let blk = Item_block.create () in
  let slots = Array.make 256 (-1) in
  let rec loop () =
    let n = Event_source.Chunk.next_chunk em blk slots in
    if n > 0 then begin
      for i = 0 to n - 1 do
        f blk slots.(i);
        Item_block.free blk slots.(i)
      done;
      loop ()
    end
  in
  loop ()

let ref_item (r : Item.t) : Perfbench_ref.Reference.item =
  {
    id = r.id;
    arrival = r.arrival;
    departure = r.departure;
    size = Array.append [| Dbp_util.Load.to_units r.size |] r.extra;
  }

(* The whole trace as reference items, for the checks that run after
   the timed work. *)
let reference_items ~config ~seed =
  let acc = ref [] in
  iter_chunks ~config ~seed (fun blk slot ->
      acc := ref_item (Item_block.item blk slot) :: !acc);
  Array.of_list (List.rev !acc)
