(** [contention-sim8]: 8 virtual threads on the deterministic simulator,
    hammering the sharded k-LSM with a 50/50 mix while a sequential rank
    oracle shadows every operation.

    The simulator charges cache-coherence cost per atomic access, so this
    workload measures contention at more threads than the machine has
    cores (snapshot CAS, stripe races, hint consults) in simulated time,
    and the rank error of every delete-min.  Everything is a function of
    the seed.  Allocation and GC are not charged by the simulator; the
    real-backend workloads cover those.

    As in {!Klsm_harness.Quality}, each insert reaches the oracle before
    the queue, so the oracle over-approximates the contents by at most T
    in-flight items: measured rank errors may exceed the true ones by T. *)

module B = Klsm_backend.Sim
module Registry = Klsm_harness.Registry.Make (B)
module Oracle = Klsm_harness.Oracle
module Xoshiro = Klsm_primitives.Xoshiro
module Obs = Klsm_obs.Obs
open Common

type config = {
  k : int;
  shards : int;
  threads : int;
  prefill : int;
  key_range : int;
  ops_per_thread : int;
}

let paper =
  {
    k = 1024;
    shards = 4;
    threads = 8;
    prefill = 100_000;
    key_range = 1 lsl 20;
    ops_per_thread = 25_000;
  }

let tiny = { paper with prefill = 2_000; ops_per_thread = 1_000 }

(** DESIGN §12's rank bound for the sharded k-LSM, (T + S) * ceil(k / S),
    plus the oracle's T-item skew. *)
let rank_bound cfg =
  ((cfg.threads + cfg.shards) * ((cfg.k + cfg.shards - 1) / cfg.shards))
  + cfg.threads

type rep = {
  setup_s : float;  (** wall seconds of the simulated prefill *)
  sim_s : float;  (** simulated seconds of the mix *)
  ops : int;
  delete_attempts : int;
  nones : int;
  rank_sum : int;
  rank_max : int;
  sim : B.stats;  (** simulator counters of the mix *)
  live_mb : float;  (** live heap after the mix, oracle included *)
  stats_before : Obs.snapshot;  (** queue counters before the mix *)
  stats : Obs.snapshot;  (** and after *)
}

let rep ?tracers cfg ~seed =
  let t = cfg.threads in
  B.configure ~seed ~policy:B.Fair ();
  let spec = Registry.klsm_sharded cfg.k cfg.shards in
  let oracle = Oracle.create ~universe:cfg.key_range in
  let handles = Array.make t None in
  let instance, setup_s =
    timed (fun () ->
        let instance = Registry.make ~seed ~num_threads:t spec in
        B.parallel_run ~num_threads:t (fun tid ->
            let h = instance.Registry.register tid in
            handles.(tid) <- Some h;
            let rng = Xoshiro.create ~seed:(seed + (7919 * tid)) in
            let share = (cfg.prefill / t) + if tid < cfg.prefill mod t then 1 else 0 in
            for _ = 1 to share do
              let key = Xoshiro.int rng cfg.key_range in
              Oracle.insert oracle key;
              h.Registry.insert key 0
            done);
        instance)
  in
  let stats_before = instance.Registry.stats () in
  let deletes = Array.make t 0 and nones = Array.make t 0 in
  let rank_sum = Array.make t 0 and rank_max = Array.make t 0 in
  let t0 = B.time () in
  B.parallel_run ~num_threads:t (fun tid ->
      let h = match handles.(tid) with Some h -> h | None -> assert false in
      let tr = Option.map (fun trs -> trs.(tid)) tracers in
      let span name i f =
        match tr with
        | None -> f ()
        | Some tr -> Trace.span tr name ~req:((tid lsl 48) lor i) f
      in
      let rng = Xoshiro.create ~seed:(seed + 13 + (104729 * tid)) in
      span Trace.Caller 0 (fun () ->
          for i = 1 to cfg.ops_per_thread do
            if Xoshiro.bool rng then begin
              let key = Xoshiro.int rng cfg.key_range in
              Oracle.insert oracle key;
              span Trace.Insert i (fun () -> h.Registry.insert key 0)
            end
            else
              match span Trace.Delete_min i h.Registry.try_delete_min with
              | Some (key, _) ->
                  let e = Oracle.delete oracle key in
                  deletes.(tid) <- deletes.(tid) + 1;
                  rank_sum.(tid) <- rank_sum.(tid) + e;
                  if e > rank_max.(tid) then rank_max.(tid) <- e
              | None -> nones.(tid) <- nones.(tid) + 1
          done));
  let sim_s = B.time () -. t0 in
  let sim = B.stats () in
  let live_mb = live_mb () in
  let sum a = Array.fold_left ( + ) 0 a in
  {
    setup_s;
    sim_s;
    ops = t * cfg.ops_per_thread;
    delete_attempts = sum deletes + sum nones;
    nones = sum nones;
    rank_sum = sum rank_sum;
    rank_max = Array.fold_left max 0 rank_max;
    sim;
    live_mb;
    stats_before;
    stats = instance.Registry.stats ();
  }

(** Virtual nanoseconds of the calling simulated thread, for spans. *)
let clock () = int_of_float (B.time () *. 1e9)
