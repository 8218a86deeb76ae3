(** [sched-fibers]: the closed-loop fiber scheduler of lib/sched on the
    sharded k-LSM with deletion buffers, on real domains.

    This is {!Klsm_sched.Closed_loop.run} re-assembled from its public
    parts (the same task bodies, submitter, worker context and run loop),
    so that the benchmark owns the closures the scheduler calls the queue
    through — [pop]/[pop_batch] given to [Worker.make_ctx] and
    [enqueue_batch] given to [Submitter.create] — and can span them, and so
    that a start barrier keeps domain spawn out of the timed window.  The
    post-run audit is the one [Closed_loop] performs: every allocated task
    completed exactly once, none lost, double-delivered or dead-lettered,
    and every fiber finished. *)

module B = Klsm_backend.Real
module CL = Klsm_sched.Closed_loop.Make (B)
module Registry = CL.Registry
module Worker = CL.Worker
module Submitter = CL.Submitter
module Task = CL.Task
module Metrics = Klsm_sched.Metrics
module Xoshiro = Klsm_primitives.Xoshiro
module Obs = Klsm_obs.Obs
open Common

type config = { spec : string; cl : CL.config }

let paper =
  {
    spec = "klsm-sharded:1024:4:dbuf=8";
    cl =
      {
        CL.default_config with
        num_workers = 2;
        roots_per_worker = 100_000;
        fiber_fanout = 4;
        dbuf = 8;
        batch = 16;
        capacity = 4096;
      };
  }

let tiny = { paper with cl = { paper.cl with roots_per_worker = 2_000 } }

type rep = {
  setup_s : float;
  run_s : float;
  tasks : int;
  summary : Metrics.summary;
  delay_p50_s : float;  (** submit-to-start delay, over every task *)
  delay_p99_s : float;
  delay_samples : int;
  lost : int;
  double : int;
  dead : int;
  fiber_lost : int;
  live_mb : float;  (** live heap at the end, task table included *)
  minor_words : float;
  major_words : float;
  stats : Obs.snapshot;
}

(** Spanned copies of the queue closures handed to the scheduler; the
    request id is the task id where the closure sees one. *)
let traced tr (h : Registry.handle) =
  let pop () =
    Trace.enter tr Trace.Delete_min ~req:(-1);
    let r = h.Registry.try_delete_min () in
    Trace.leave tr;
    r
  in
  let pop_batch n =
    Trace.enter tr Trace.Delete_batch ~req:(-1);
    let r = h.Registry.try_delete_min_batch n in
    Trace.leave tr;
    r
  in
  let enqueue_batch (a : (int * int) array) =
    Trace.enter tr Trace.Insert_batch
      ~req:(if Array.length a > 0 then snd a.(0) else -1);
    h.Registry.insert_batch a;
    Trace.leave tr
  in
  (pop, pop_batch, enqueue_batch)

let rep ?tracers cfg ~seed =
  let c = { cfg.cl with CL.seed } in
  let spec =
    match Registry.parse_spec cfg.spec with
    | Ok s -> s
    | Error e -> failwith e
  in
  let n = c.CL.num_workers in
  let total = CL.total_tasks c in
  let (instance, pool, metrics), setup_s =
    timed (fun () ->
        ( Registry.make ~seed ~num_threads:n spec,
          Worker.create_pool ~robust:c.CL.robust ~max_tasks:(max 1 total)
            ~num_workers:n (),
          Metrics.create ~num_workers:n ))
  in
  let sub_cfg =
    {
      Submitter.batch = c.CL.batch;
      urgency_margin = c.CL.urgency_margin;
      capacity = c.CL.capacity;
    }
  in
  let ws = Array.init n (fun _ -> fresh_window ()) in
  let b = barrier () in
  B.parallel_run ~num_threads:n (fun tid ->
      let h = instance.Registry.register tid in
      let pop, pop_batch, enqueue_batch =
        match tracers with
        | None ->
            (h.Registry.try_delete_min, h.Registry.try_delete_min_batch,
             h.Registry.insert_batch)
        | Some trs -> traced trs.(tid) h
      in
      let sub =
        Submitter.create ~cfg:sub_cfg ~inflight:pool.Worker.inflight
          ~enqueue_batch ()
      in
      let ctx =
        Worker.make_ctx ~steal_seed:(seed + (6271 * tid)) ~batch:(max 1 c.CL.dbuf)
          ~pop_batch ~pool ~tid ~sub ~pop ~metrics:metrics.(tid) ()
      in
      let rng = Xoshiro.create ~seed:(seed + (7919 * tid)) in
      let next_priority = Klsm_harness.Workload.generator c.CL.priorities rng in
      let service_rng = Xoshiro.split rng in
      let remaining = ref c.CL.roots_per_worker in
      let arrivals () =
        if !remaining <= 0 then `Done
        else begin
          decr remaining;
          let priority = next_priority () in
          let ticks = CL.service_ticks c.CL.service service_rng in
          `Submit
            (priority, CL.make_body c ~depth:c.CL.spawn_depth ~priority ~ticks)
        end
      in
      let jitter = Xoshiro.create ~seed:(seed + (104729 * tid)) in
      in_window b n ws.(tid) (fun () ->
          match tracers with
          | None -> Worker.run ~jitter ctx ~arrivals
          | Some trs ->
              Trace.span trs.(tid) Trace.Caller ~req:(tid lsl 48) (fun () ->
                  Worker.run ~jitter ctx ~arrivals));
      let w = metrics.(tid) in
      w.Metrics.flushes <- w.Metrics.flushes + sub.Submitter.flushes;
      w.Metrics.urgent_flushes <-
        w.Metrics.urgent_flushes + sub.Submitter.urgent_flushes);
  let live_mb = live_mb () in
  let table = Array.length pool.Worker.tasks in
  let allocated = min (B.get pool.Worker.next_id) table in
  let lost = ref 0 and double = ref 0 and dead = ref 0 in
  for id = 0 to allocated - 1 do
    match B.get pool.Worker.tasks.(id) with
    | None -> incr lost
    | Some task ->
        (match Task.status task with
        | Task.Completed -> ()
        | Task.Dead -> incr dead
        | _ -> incr lost);
        if Task.claim_count task > 1 then incr double
  done;
  let summary = Metrics.summarize metrics in
  let delays =
    Array.concat
      (Array.to_list (Array.map (fun w -> Metrics.to_array w.Metrics.delays) metrics))
  in
  let pct p =
    if Array.length delays = 0 then 0. else Klsm_primitives.Stats.percentile delays p
  in
  let minor_words, major_words = window_alloc ws in
  {
    setup_s;
    run_s = window_seconds ws;
    tasks = allocated;
    summary;
    delay_p50_s = pct 50.;
    delay_p99_s = pct 99.;
    delay_samples = Array.length delays;
    (* every root must have been allocated a task id *)
    lost = !lost + (total - allocated);
    double = !double;
    dead = !dead;
    fiber_lost = summary.Metrics.fibers - summary.Metrics.fibers_completed;
    live_mb;
    minor_words;
    major_words;
    stats = instance.Registry.stats ();
  }
