open Dbp_util

(* --- Sorted (residual, slot) keys: Best-Fit's successor mode ---

   Max aggregates cannot answer best-fit (the minimum adequate
   residual) in guaranteed sub-linear time: a subtree mixing too-small
   and too-large residuals passes every max-based prune while holding
   nothing in [need, best). So in successor mode the index also keeps
   the active slots' column-0 values as packed (residual, slot) keys in
   sorted order, and best-fit is a successor lookup — the first key >=
   (need, slot 0) is the minimum adequate residual, and within equal
   residuals the smallest slot, exactly the BF tie-break.

   The keys live in an unrolled sorted list: fixed-capacity chunks, each
   sorted, with a directory searched by chunk minimum. One flat sorted
   array was measured slower than a pruned DFS (every update memmoves
   O(active) keys); chunking caps the shift at 64 words while keeping
   lookups two binary searches. Chunks split when full and are dropped
   when empty; under-full chunks are tolerated, so lookups stay
   O(log active) through the directory and memory O(active bins). *)
module Keys = struct
  type t = {
    mutable chunks : int array array;  (** sorted packed keys, chunked *)
    mutable count : int array;  (** live keys in each chunk *)
    mutable mins : int array;  (** first key of each chunk, flat copy *)
    mutable n : int;  (** chunks in use *)
  }

  let create () = { chunks = [||]; count = [||]; mins = [||]; n = 0 }

  (* Residual in the high bits, slot in the low 32. Residuals reach
     Load.capacity = 1e9 < 2^30, so the largest key is
     1e9 * 2^32 + (2^32 - 1) < 2^62 — still a positive OCaml int (a
     33-bit slot field would overflow the sign bit at full capacity). *)
  let slot_bits = 32
  let key ~residual ~slot = (residual lsl slot_bits) lor slot
  let slot_of k = k land ((1 lsl slot_bits) - 1)
  let chunk_cap = 64

  (* Last chunk whose minimum is <= k, or -1 when k precedes every
     chunk. Chunk minimums are mirrored in the flat [mins] so the
     directory search stays inside one or two cache lines instead of
     chasing a chunk pointer per probe. *)
  let find t k =
    let lo = ref 0 and hi = ref t.n in
    while !lo < !hi do
      let mid = (!lo + !hi) lsr 1 in
      if Array.unsafe_get t.mins mid <= k then lo := mid + 1 else hi := mid
    done;
    !lo - 1

  (* First index in chunk [a] (live prefix [n]) holding a key >= k. *)
  let lower (a : int array) n k =
    let lo = ref 0 and hi = ref n in
    while !lo < !hi do
      let mid = (!lo + !hi) lsr 1 in
      if Array.unsafe_get a mid < k then lo := mid + 1 else hi := mid
    done;
    !lo

  (* Make room in the directory at position [c]. *)
  let open_chunk t c =
    let cap = Array.length t.count in
    if t.n = cap then begin
      let cap' = max 8 (2 * cap) in
      let grow a fill =
        let a' = Array.make cap' fill in
        Array.blit a 0 a' 0 t.n;
        a'
      in
      t.chunks <- grow t.chunks [||];
      t.count <- grow t.count 0;
      t.mins <- grow t.mins max_int
    end;
    Array.blit t.chunks c t.chunks (c + 1) (t.n - c);
    Array.blit t.count c t.count (c + 1) (t.n - c);
    Array.blit t.mins c t.mins (c + 1) (t.n - c);
    t.n <- t.n + 1

  let add t k =
    if t.n = 0 then begin
      open_chunk t 0;
      t.chunks.(0) <- Array.make chunk_cap 0;
      t.chunks.(0).(0) <- k;
      t.count.(0) <- 1;
      t.mins.(0) <- k
    end
    else begin
      let c = ref (max 0 (find t k)) in
      if t.count.(!c) = chunk_cap then begin
        (* Split in half; then aim at whichever half covers k. *)
        let half = chunk_cap / 2 in
        let b = Array.make chunk_cap 0 in
        Array.blit t.chunks.(!c) half b 0 half;
        open_chunk t (!c + 1);
        t.chunks.(!c + 1) <- b;
        t.count.(!c) <- half;
        t.count.(!c + 1) <- half;
        t.mins.(!c + 1) <- b.(0);
        if k >= b.(0) then incr c
      end;
      let a = t.chunks.(!c) and n = t.count.(!c) in
      let i = lower a n k in
      Array.blit a i a (i + 1) (n - i);
      a.(i) <- k;
      t.count.(!c) <- n + 1;
      if i = 0 then t.mins.(!c) <- k
    end

  let remove t k =
    let c = find t k in
    assert (c >= 0);
    let a = t.chunks.(c) and n = t.count.(c) in
    let i = lower a n k in
    assert (i < n && a.(i) = k);
    Array.blit a (i + 1) a i (n - i - 1);
    t.count.(c) <- n - 1;
    if n = 1 then begin
      Array.blit t.chunks (c + 1) t.chunks c (t.n - c - 1);
      Array.blit t.count (c + 1) t.count c (t.n - c - 1);
      Array.blit t.mins (c + 1) t.mins c (t.n - c - 1);
      t.n <- t.n - 1;
      t.chunks.(t.n) <- [||]
    end
    else if i = 0 then t.mins.(c) <- a.(0)

  (* Smallest key >= k, or -1 (keys are non-negative). *)
  let succ t k =
    if t.n = 0 then -1
    else begin
      let c = find t k in
      if c < 0 then t.chunks.(0).(0)
      else begin
        let a = t.chunks.(c) and n = t.count.(c) in
        let i = lower a n k in
        if i < n then a.(i) else if c + 1 < t.n then t.chunks.(c + 1).(0) else -1
      end
    end
end

type t = {
  ncols : int;
  mutable cap : int;  (** leaf count, a power of four (>= 4) *)
  mutable off : int;  (** internal node count [(cap - 1) / 3]; leaf 0's index *)
  mutable cols : int array array;  (** one 4-ary Eytzinger max tree per column *)
  mutable base : int;  (** public slot number of leaf 0 *)
  mutable n : int;  (** public slots ever pushed *)
  keys : Keys.t option;  (** successor mode: sorted column-0 keys *)
  mutable dirty : bool;  (** successor mode: internal aggregates stale *)
}

let inactive = -1

(* Structural invariants all the unsafe accesses below rely on: each
   column is a complete 4-ary max-tree in Eytzinger layout — root at
   index 0, children of node [i] at [4i+1 .. 4i+4], parent at
   [(i-1)/4]. With [cap] leaves ([cap] a power of four >= 4) the
   internal nodes occupy [0, off) where [off = (cap-1)/3], the leaves
   [off, off+cap); every internal node has all four children in bounds,
   so no per-step child guard is needed. The 4-ary shape is for the two
   per-item walks: half the levels of a binary tree, and the four
   children of a node sit in adjacent words — one cache line per level
   on the descent and the update ascent alike.

   Columns are separate arrays sharing one shape, so the scalar
   First-Fit path touches column 0 only. An active leaf holds a
   non-negative value in every column; an inactive one holds -1 in
   every column. Thresholds are non-negative, so inactive leaves never
   meet one.

   Public slot [s] lives at leaf [s - base]; slots below [base] were
   compacted away while inactive and stay retired forever. Leaves in
   [n - base, cap) were never pushed and hold [inactive], as do
   deactivated leaves — so the leaf window tracks the span between the
   oldest still-active slot and the newest, not the slots ever pushed.
   A group that opens and closes bins at a steady rate keeps a small,
   cache-resident tree for the whole run instead of growing one leaf
   per bin ever opened. *)
let create ?(initial_cap = 8) ?(columns = 1) ?(successor = false) () =
  if initial_cap < 1 then invalid_arg "Ff_index.create: initial_cap < 1";
  if columns < 1 then invalid_arg "Ff_index.create: columns < 1";
  let l = Ints.ceil_log2 (max 4 initial_cap) in
  let l = if l land 1 = 1 then l + 1 else l in
  let cap = Ints.pow2 l in
  let off = (cap - 1) / 3 in
  {
    ncols = columns;
    cap;
    off;
    cols = Array.init columns (fun _ -> Array.make (off + cap) inactive);
    base = 0;
    n = 0;
    keys = (if successor then Some (Keys.create ()) else None);
    dirty = false;
  }

(* Recompute ancestors after a leaf write, stopping as soon as a node's
   value is unchanged (its ancestors then cannot change either).
   Explicit int comparisons: [Stdlib.max] is polymorphic and costs a C
   call per node on this per-placement path. *)
let rec update_path (tree : int array) i =
  if i > 0 then begin
    let p = (i - 1) lsr 2 in
    let c = 4 * p in
    let v0 = Array.unsafe_get tree (c + 1) and v1 = Array.unsafe_get tree (c + 2) in
    let v2 = Array.unsafe_get tree (c + 3) and v3 = Array.unsafe_get tree (c + 4) in
    let v = if v0 >= v1 then v0 else v1 in
    let v = if v >= v2 then v else v2 in
    let v = if v >= v3 then v else v3 in
    if Array.unsafe_get tree p <> v then begin
      Array.unsafe_set tree p v;
      update_path tree p
    end
  end

let rebuild t =
  Array.iter
    (fun tree ->
      for i = t.off - 1 downto 0 do
        let c = 4 * i in
        let v0 = tree.(c + 1) and v1 = tree.(c + 2) in
        let v2 = tree.(c + 3) and v3 = tree.(c + 4) in
        let v = if v0 >= v1 then v0 else v1 in
        let v = if v >= v2 then v else v2 in
        let v = if v >= v3 then v else v3 in
        tree.(i) <- v
      done)
    t.cols;
  t.dirty <- false

(* In successor mode Best-Fit's queries (the sorted keys, leaf reads)
   never touch the internal aggregates, so leaf writes skip the ascent
   and just flag the internals stale; any aggregate query rebuilds them
   first. Maintaining them eagerly cost Best-Fit about 13% of its
   throughput. Without the keys the aggregates ARE the index, and every
   write maintains them. *)
let ensure_aggregates t = if t.dirty then rebuild t

(* Column [c] of leaf [i] := [v], and the aggregates above it. *)
let write t c i v =
  let tree = Array.unsafe_get t.cols c in
  Array.unsafe_set tree i v;
  match t.keys with None -> update_path tree i | Some _ -> t.dirty <- true

let grow t =
  let cap' = 4 * t.cap in
  let off' = (cap' - 1) / 3 in
  (* Copy leaves, then rebuild internal nodes bottom-up. *)
  t.cols <-
    Array.map
      (fun tree ->
        let tree' = Array.make (off' + cap') inactive in
        Array.blit tree t.off tree' off' t.cap;
        tree')
      t.cols;
  t.cap <- cap';
  t.off <- off';
  rebuild t

(* Slide the leaf window left by half a tree: legal when every leaf of
   the left half is inactive (the root's first two children span exactly
   those leaves). Public slot numbers are unchanged — only their leaf
   positions move — so every slot-order tie-break is untouched. *)
let slide t =
  let half = t.cap / 2 in
  Array.iter
    (fun tree ->
      Array.blit tree (t.off + half) tree t.off half;
      Array.fill tree (t.off + half) half inactive)
    t.cols;
  rebuild t;
  t.base <- t.base + half

let push t ~residual =
  if residual < 0 then invalid_arg "Ff_index.push: negative residual";
  if t.n - t.base = t.cap then begin
    ensure_aggregates t;
    let tree = t.cols.(0) in
    if tree.(1) = inactive && tree.(2) = inactive then slide t else grow t
  end;
  let slot = t.n in
  t.n <- t.n + 1;
  let i = t.off + (slot - t.base) in
  write t 0 i residual;
  for c = 1 to t.ncols - 1 do
    write t c i 0
  done;
  (match t.keys with Some k -> Keys.add k (Keys.key ~residual ~slot) | None -> ());
  slot

let check t slot op =
  if slot < 0 || slot >= t.n then invalid_arg ("Ff_index." ^ op ^ ": bad slot");
  if slot < t.base then
    invalid_arg ("Ff_index." ^ op ^ ": slot compacted away (was inactive)")

let check_col t c op =
  if c < 0 || c >= t.ncols then invalid_arg ("Ff_index." ^ op ^ ": bad column")

(* Setting column 0 of a deactivated slot revives it, with its other
   columns at 0 as after {!push}; the other columns of an inactive slot
   cannot be set alone. In successor mode column 0's old key leaves the
   sorted keys before its new one enters. *)
let set_at t slot c v =
  check t slot "set";
  if v < 0 then invalid_arg "Ff_index.set: negative value";
  let i = t.off + (slot - t.base) in
  let old = Array.unsafe_get (Array.unsafe_get t.cols 0) i in
  if old < 0 then begin
    if c > 0 then invalid_arg "Ff_index.set_col: inactive slot";
    for c = 1 to t.ncols - 1 do
      write t c i 0
    done
  end;
  (match t.keys with
  | Some k when c = 0 ->
      if old >= 0 then Keys.remove k (Keys.key ~residual:old ~slot);
      Keys.add k (Keys.key ~residual:v ~slot)
  | _ -> ());
  write t c i v

let set t slot residual = set_at t slot 0 residual

let set_col t slot c v =
  check_col t c "set_col";
  set_at t slot c v

let deactivate t slot =
  check t slot "deactivate";
  let i = t.off + (slot - t.base) in
  let old = Array.unsafe_get (Array.unsafe_get t.cols 0) i in
  (match t.keys with
  | Some k when old >= 0 -> Keys.remove k (Keys.key ~residual:old ~slot)
  | _ -> ());
  for c = 0 to t.ncols - 1 do
    write t c i inactive
  done

let column t slot c =
  check t slot "column";
  check_col t c "column";
  (Array.unsafe_get t.cols c).(t.off + (slot - t.base))

let residual t slot = column t slot 0
let length t = t.n
let compacted_below t = t.base

(* The -1 sentinel spelling of the query, for the per-item path: no
   option cell. If the root admits [need], the left-first descent lands
   on the leftmost adequate leaf; that leaf is necessarily a pushed,
   active slot — unpushed and deactivated leaves hold -1 < need (need is
   >= 0), so they can never terminate the descent. The last-child arm is
   unconditional: the parent's aggregate guarantees some child fits, so
   if the first three do not, the fourth does. *)
let first_fit_idx t need =
  if need < 0 then invalid_arg "Ff_index.first_fit_idx: negative need";
  ensure_aggregates t;
  let tree = Array.unsafe_get t.cols 0 and off = t.off in
  if Array.unsafe_get tree 0 < need then -1
  else begin
    let i = ref 0 in
    while !i < off do
      let c = 4 * !i in
      i :=
        (if Array.unsafe_get tree (c + 1) >= need then c + 1
         else if Array.unsafe_get tree (c + 2) >= need then c + 2
         else if Array.unsafe_get tree (c + 3) >= need then c + 3
         else c + 4)
    done;
    !i - off + t.base
  end

let first_fit t need =
  match first_fit_idx t need with -1 -> None | slot -> Some slot

(* Worst fit: the root holds the largest column-0 value, and the
   leftmost slot whose value reaches it is the leftmost slot attaining
   it — one more first-fit descent. *)
let worst_fit_idx t need =
  if need < 0 then invalid_arg "Ff_index.worst_fit_idx: negative need";
  ensure_aggregates t;
  let v = t.cols.(0).(0) in
  if v < need then -1 else first_fit_idx t v

let best_fit_idx t need =
  if need < 0 then invalid_arg "Ff_index.best_fit_idx: negative need";
  match t.keys with
  | None -> invalid_arg "Ff_index.best_fit_idx: index has no successor keys"
  | Some k ->
      (* Successor of (need, slot 0). *)
      let key = Keys.succ k (Keys.key ~residual:need ~slot:0) in
      if key < 0 then -1 else Keys.slot_of key

(* --- Threshold queries over several columns ---

   A node meets the first [k] thresholds when each of its column maxima
   reaches its threshold. Max aggregates only prune: an internal node
   can pass while none of its leaves meets every threshold at once, so
   the searches below backtrack, and only a leaf certifies the
   conjunction. The searches test column 0 inline and the other columns
   only when it passes — the per-node test is what they pay, and most
   rejected subtrees fail on column 0. They are plain recursive
   functions, with no closure per query or per node. *)

let check_need t need k op =
  if k > t.ncols || Array.length need < k then
    invalid_arg ("Ff_index." ^ op ^ ": thresholds do not match the columns");
  for c = 0 to k - 1 do
    if need.(c) < 0 then invalid_arg ("Ff_index." ^ op ^ ": negative threshold")
  done

(* Every threshold of [need], at least one. *)
let all_thresholds t need op =
  let k = Array.length need in
  if k = 0 then invalid_arg ("Ff_index." ^ op ^ ": no thresholds");
  check_need t need k op;
  k

let rec meets_from (cols : int array array) (need : int array) k i c =
  c >= k
  || Array.unsafe_get (Array.unsafe_get cols c) i >= Array.unsafe_get need c
     && meets_from cols need k i (c + 1)

(* Columns [1 .. k-1] of node [i] against their thresholds. *)
let meets_rest cols need k i = k <= 1 || meets_from cols need k i 1

(* Entered at a node that meets the thresholds; [c0]/[n0] are column 0
   and its threshold. *)
let rec leftmost t (c0 : int array) n0 need k i =
  if i >= t.off then i
  else begin
    let r = ref (-1) and j = ref ((4 * i) + 1) in
    while !r < 0 && !j <= (4 * i) + 4 do
      if Array.unsafe_get c0 !j >= n0 && meets_rest t.cols need k !j then
        r := leftmost t c0 n0 need k !j;
      incr j
    done;
    !r
  end

let first_fit_all t need =
  let k = all_thresholds t need "first_fit_all" in
  ensure_aggregates t;
  let c0 = t.cols.(0) and n0 = need.(0) in
  if c0.(0) < n0 || not (meets_rest t.cols need k 0) then -1
  else match leftmost t c0 n0 need k 0 with -1 -> -1 | leaf -> leaf - t.off + t.base

(* [best] is the best leaf so far (-1: none). A child is entered only if
   its score maximum strictly beats the best so far, so under left-first
   order the leftmost of equal scores wins. Inactive leaves hold -1 in
   the score column and never beat anything. *)
let rec best_leaf t (c0 : int array) n0 need k (score : int array) i best =
  if i >= t.off then i
  else begin
    let best = ref best in
    for j = (4 * i) + 1 to (4 * i) + 4 do
      let bv = if !best < 0 then inactive else Array.unsafe_get score !best in
      if Array.unsafe_get score j > bv && Array.unsafe_get c0 j >= n0 && meets_rest t.cols need k j
      then best := best_leaf t c0 n0 need k score j !best
    done;
    !best
  end

let best_score_idx t need =
  let k = t.ncols - 1 in
  check_need t need k "best_score_idx";
  ensure_aggregates t;
  let c0 = t.cols.(0) and n0 = if k = 0 then 0 else need.(0) and score = t.cols.(k) in
  if score.(0) < 0 || c0.(0) < n0 || not (meets_rest t.cols need k 0) then -1
  else
    match best_leaf t c0 n0 need k score 0 (-1) with
    | -1 -> -1
    | leaf -> leaf - t.off + t.base

let fits t slot need =
  check t slot "fits";
  let k = all_thresholds t need "fits" in
  let i = t.off + (slot - t.base) in
  t.cols.(0).(i) >= need.(0) && meets_rest t.cols need k i

(* Allocation-free left-to-right fold over active slots, bounded by the
   leaf window, not by slots ever pushed. *)
let fold_active t ~init ~f =
  let tree = t.cols.(0) and off = t.off and base = t.base in
  let acc = ref init in
  for leaf = 0 to t.n - base - 1 do
    let r = Array.unsafe_get tree (off + leaf) in
    if r >= 0 then acc := f !acc (base + leaf) r
  done;
  !acc

let active t = List.rev (fold_active t ~init:[] ~f:(fun acc slot _ -> slot :: acc))
