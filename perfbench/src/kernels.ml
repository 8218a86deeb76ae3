(** Kernel probes: the block kernels and the work-stealing deque timed in
    isolation through their public functions, on inputs shaped like the
    workloads.

    - [Block.merge]: two equal-level blocks, levels 0 to 7 — the DistLSM's
      merge cascade below the spill level floor(log2 256) - 1 of
      [klsm:256].
    - [Block_array.calculate_pivots]: k = 256 — the per-stripe budget
      ceil(1024 / 4) of [klsm-sharded:1024:4] — over eight blocks of levels
      14 down to 7.
    - [Block.prefix_view]: the run a deletion buffer of 8 claims.
    - [Deque]: owner push+pop pairs, and steals of a filled deque, on the
      deque type the scheduler's workers use.

    Each probe runs a fixed number of calls inside one span per batch, so
    the clock is read twice per batch rather than per call. *)

module B = Klsm_backend.Real
module Block_array = Klsm_core.Block_array.Make (B)
module Block = Block_array.Block
module Item = Block_array.Item
module Deque = Sched_w.Worker.Deque
module Xoshiro = Klsm_primitives.Xoshiro

let alive it = not (Item.is_taken it)

(** A block of [2^level] items with uniform keys, descending. *)
let random_block rng level =
  let n = 1 lsl level in
  let keys = Array.init n (fun _ -> Xoshiro.int rng (1 lsl 28)) in
  Array.sort (fun a b -> compare b a) keys;
  Block.of_sorted_array ~filter:Klsm_primitives.Bloom.empty
    (Array.map (fun k -> Item.make k 0) keys)

type probes = {
  merge_ns_per_item : float;
  pivots_ns : float;
  prefix_view_ns : float;
  deque_push_pop_ns : float;
  deque_steal_ns : float;
}

(** Run every probe once, recording one span per batch on [tr]. *)
let run ~seed tr =
  let rng = Xoshiro.create ~seed in
  let batch name ~req ~calls f =
    let t0 = Common.now_ns () in
    Trace.span tr name ~req (fun () ->
        for _ = 1 to calls do
          f ()
        done);
    Common.now_ns () - t0
  in
  (* merge: levels 0..7, 2^(13 - l) merges per level, ~2^14 items each *)
  let merge_ns = ref 0 and merge_items = ref 0 in
  for level = 0 to 7 do
    let a = random_block rng level and b = random_block rng level in
    let calls = (1 lsl (13 - level)) in
    merge_ns :=
      !merge_ns
      + batch Trace.Merge ~req:level ~calls (fun () ->
            ignore (Sys.opaque_identity (Block.merge ~alive a b)));
    merge_items := !merge_items + (calls * 2 * (1 lsl level))
  done;
  (* pivots: k = 256 over levels 14..7 *)
  let arr =
    let blocks = Array.init 8 (fun i -> random_block rng (14 - i)) in
    { Block_array.blocks; pivots = Array.make 8 0 }
  in
  let pivot_calls = 2_000 in
  let pivots_ns =
    batch Trace.Pivots ~req:256 ~calls:pivot_calls (fun () ->
        Block_array.calculate_pivots arr ~k:256)
  in
  (* prefix_view: keep 8 of a level-7 block *)
  let blk = random_block rng 7 in
  let view_calls = 200_000 in
  let view_ns =
    batch Trace.Prefix_view ~req:8 ~calls:view_calls (fun () ->
        ignore (Sys.opaque_identity (Block.prefix_view blk ~keep:8)))
  in
  (* deque: owner push/pop pairs, then steals of a filled deque *)
  let dq = Deque.create () in
  let pp_calls = 200_000 in
  let pp_ns =
    batch Trace.Deque_push_pop ~req:0 ~calls:pp_calls (fun () ->
        Deque.push dq 1;
        ignore (Sys.opaque_identity (Deque.pop dq)))
  in
  let steal_calls = 100_000 in
  for i = 1 to steal_calls do
    Deque.push dq i
  done;
  let steal_ns =
    batch Trace.Deque_steal ~req:0 ~calls:steal_calls (fun () ->
        ignore (Sys.opaque_identity (Deque.steal dq)))
  in
  let per ns calls = float_of_int ns /. float_of_int calls in
  {
    merge_ns_per_item = per !merge_ns !merge_items;
    pivots_ns = per pivots_ns pivot_calls;
    prefix_view_ns = per view_ns view_calls;
    deque_push_pop_ns = per pp_ns pp_calls;
    deque_steal_ns = per steal_ns steal_calls;
  }
