(** The four workloads, each turned into a {!Report.result}.

    An untraced run measures for the whole time budget and reports the
    end-to-end metrics.  A traced run spends half the budget untraced (the
    baseline for [trace.overhead_ratio], and the source of the GC and
    scheduler counts, which need no tracing) and half with benchmark spans
    around every queue call plus the queues' own counters
    ({!Klsm_obs.Obs}, enabled for those queues only), then runs the kernel
    probes and writes the spans out. *)

open Common
module Obs = Klsm_obs.Obs
module Metrics = Klsm_sched.Metrics

type size = Paper | Tiny

type ctx = {
  size : size;
  seed : int;
  seconds : float;
  trace : bool;
  span_file : string option;  (** where a traced run writes its spans *)
}

(** Seed of repetition [i]: every repetition gets its own inputs, all
    derived from the run's seed. *)
let rep_seed ctx i = ctx.seed + (1_000_003 * i)

(** Repetitions a phase runs even past its budget: the median needs a few,
    but each phase of a traced run has only half the budget. *)
let min_reps ctx = match ctx.size with Paper when not ctx.trace -> 2 | _ -> 1
let untraced_seconds ctx = if ctx.trace then ctx.seconds /. 2. else ctx.seconds

type 'r phases = {
  plain : 'r list;  (** untraced repetitions *)
  traced : 'r list;  (** traced repetitions; empty in an untraced run *)
  trs : Trace.thread array;  (** one span recorder per thread *)
  collections : int * int;  (** GC cycles (minor, major) of [plain] *)
}

(** Run [rep] untraced and, for a traced run, again with span recorders
    and queue counters on. *)
let phases ctx ~threads ~clock rep =
  let mi0, ma0 = gc_collections () in
  let plain =
    repeat ~seconds:(untraced_seconds ctx) ~min_reps:(min_reps ctx) (fun i ->
        rep ?tracers:None (rep_seed ctx i))
  in
  let mi1, ma1 = gc_collections () in
  let collections = (mi1 - mi0, ma1 - ma0) in
  if not ctx.trace then { plain; traced = []; trs = [||]; collections }
  else begin
    let trs = Array.init threads (fun tid -> Trace.create ~clock tid) in
    Obs.set_enabled true;
    let traced =
      Fun.protect
        ~finally:(fun () -> Obs.set_enabled false)
        (fun () ->
          repeat ~seconds:(ctx.seconds /. 2.) ~min_reps:(min_reps ctx)
            (fun i -> rep ?tracers:(Some trs) (rep_seed ctx (i + 1000))))
    in
    { plain; traced; trs; collections }
  end

let sum f xs = List.fold_left (fun a x -> a + f x) 0 xs
let sumf f xs = List.fold_left (fun a x -> a +. f x) 0. xs

let mean f xs = sumf f xs /. float_of_int (List.length xs)

(** Median of [f] over [xs]; [nan] for none (a traced phase that did not run). *)
let med f = function
  | [] -> nan
  | xs -> Klsm_primitives.Stats.median (Array.of_list (List.map f xs))

(** Metrics of the queue's internal layers from its counters. *)
let queue_layers c ~ops ~inserts ~deletes =
  let g = get c in
  [
    ( "klsm.local_delete_share",
      ratio_i (g "klsm.delete_local") (g "klsm.delete_local" + g "klsm.delete_shared") );
    ("klsm.take_race_per_delete", ratio_i (g "klsm.take_race") deletes);
    ("klsm.spy_per_delete", ratio_i (g "klsm.spy_attempt") deletes);
    ("shared.cas_per_op", ratio_i (g "shared.cas_attempt") ops);
    ("shared.cas_fail_ratio", ratio_i (g "shared.cas_fail") (g "shared.cas_attempt"));
    ("shared.consolidate_per_op", ratio_i (g "shared.consolidate") ops);
    ("shared.pivot_recompute_per_op", ratio_i (g "shared.pivot_recompute") ops);
    ("shared.insert_us.mean", timer_mean_us c "shared.insert");
    ("shared.find_min_us.mean", timer_mean_us c "shared.find_min");
    ("shared.batch_claim_per_delete", ratio_i (g "shared.batch_claim") deletes);
    ("dist.merge_per_insert", ratio_i (g "dist.merge") inserts);
    ("dist.spill_items_per_spill", ratio_i (g "dist.spill_items") (g "dist.spill"));
    ("dist.spy_items_per_delete", ratio_i (g "dist.spy_items") deletes);
    ("pool.hit_ratio", ratio_i (g "pool.hit") (g "pool.hit" + g "pool.miss"));
    ( "stripe.cache_hit_ratio",
      ratio_i (g "stripe.cache_hit") (g "stripe.cache_hit" + g "stripe.cache_miss") );
    ("stripe.hint_skip_per_delete", ratio_i (g "stripe.hint_skip") deletes);
    ("stripe.hint_consult_per_delete", ratio_i (g "stripe.hint_consult") deletes);
    ("stripe.cas_fail_per_op", ratio_i (g "stripe.cas_fail") ops);
    ("stripe.dbuf_hit_ratio", ratio_i (g "stripe.dbuf_hit") deletes);
    ("stripe.dbuf_flush_per_delete", ratio_i (g "stripe.dbuf_flush") deletes);
  ]

(** Span-derived metrics: latency percentiles of every queue call kind,
    the queue's share of thread time, and the layers' self times. *)
let queue_self_ns trs =
  List.fold_left
    (fun a n -> a + Trace.self_ns trs n)
    0
    [ Trace.Insert; Trace.Delete_min; Trace.Insert_batch; Trace.Delete_batch ]

(** The queue's share of thread time: queue self time over caller time. *)
let busy_share trs = ratio_i (queue_self_ns trs) (Trace.total_ns trs Trace.Caller)

let span_layers trs =
  let pct name p = Trace.percentile trs name p in
  let queue_self = queue_self_ns trs in
  [
    ("queue.insert_ns.p50", pct Trace.Insert 50.);
    ("queue.insert_ns.p99", pct Trace.Insert 99.);
    ("queue.delete_min_ns.p50", pct Trace.Delete_min 50.);
    ("queue.delete_min_ns.p99", pct Trace.Delete_min 99.);
    ("queue.insert_batch_ns.p50", pct Trace.Insert_batch 50.);
    ("queue.insert_batch_ns.p99", pct Trace.Insert_batch 99.);
    ("queue.delete_batch_ns.p50", pct Trace.Delete_batch 50.);
    ("queue.delete_batch_ns.p99", pct Trace.Delete_batch 99.);
    ("queue.busy_share", busy_share trs);
    ("self.queue_s", float_of_int queue_self *. 1e-9);
    ("self.caller_s", float_of_int (Trace.self_ns trs Trace.Caller) *. 1e-9);
  ]

(** GC activity of the untraced repetitions, per queue operation and per
    repetition. *)
let gc_layers p ~ops ~minor ~major =
  let reps = List.length p.plain and minor_c, major_c = p.collections in
  [
    ("gc.minor_words_per_op", ratio minor (float_of_int ops));
    ("gc.major_words_per_op", ratio major (float_of_int ops));
    ("gc.minor_collections", ratio_i minor_c reps);
    ("gc.major_collections", ratio_i major_c reps);
  ]

(** Self-time table of the traced run, one note line per span name. *)
let self_notes trs =
  List.filter_map
    (fun n ->
      let c = Trace.count trs n in
      if c = 0 then None
      else
        Some
          (Printf.sprintf
             "span %-22s count %9d  total %10.3f ms  self %10.3f ms  p50 %8.0f ns  p99 %8.0f ns"
             (Trace.span_name n) c
             (float_of_int (Trace.total_ns trs n) *. 1e-6)
             (float_of_int (Trace.self_ns trs n) *. 1e-6)
             (Trace.percentile trs n 50.) (Trace.percentile trs n 99.)))
    Trace.all_names

(** The traced run's common tail: span-derived metrics, the kernel probes
    (on a recorder of their own), the self-time table, and the span file. *)
let finish_trace ctx trs =
  let ktr = Trace.create ~clock:now_ns (Array.length trs) in
  let k = Kernels.run ~seed:ctx.seed ktr in
  let all = Array.append trs [| ktr |] in
  let file_notes =
    match ctx.span_file with
    | None -> []
    | Some path ->
        let written, dropped = Trace.write_tsv path all in
        [
          Printf.sprintf
            "spans: %d written to %s, %d beyond the log cap (aggregated only)"
            written path dropped;
        ]
  in
  ( span_layers trs
    @ [
        ("kernel.merge_ns_per_item", k.Kernels.merge_ns_per_item);
        ("kernel.pivots_ns", k.Kernels.pivots_ns);
        ("kernel.prefix_view_ns", k.Kernels.prefix_view_ns);
        ("kernel.deque_push_pop_ns", k.Kernels.deque_push_pop_ns);
        ("kernel.deque_steal_ns", k.Kernels.deque_steal_ns);
      ],
    self_notes all @ file_notes )

(** What [work_per_s] is counted per. *)
type clock =
  | Wall  (** wall-clock seconds *)
  | Cpu
      (** CPU seconds of the benchmark threads, divided by their number:
          the wall-clock time the work takes when every thread has a core
          to itself *)
  | Simulated  (** simulated seconds; no host speed in it *)

(** What a workload hands to {!finish}. *)
type outcome = {
  reps : int;  (** untraced repetitions *)
  live_mb : float;
      (** mean live heap at the end of the measured phase; a mean, not a
          median, because whether a large dead block is still held when
          the phase ends is a coin flip per repetition *)
  setup_s : float;  (** median set-up time of the untraced repetitions *)
  work_per_s : float;  (** headline rate of the untraced repetitions *)
  clock : clock;  (** what [work_per_s] is per second of *)
  traced_work_per_s : float;  (** the same over the traced repetitions *)
  headline : string list;  (** [metric] lines *)
  check : string;  (** what the correctness checks found *)
  correct : bool;
  attempted : int;
  failed : int;
  layers : (string * float) list;  (** workload-specific per-layer metrics *)
  explain : (string * float) list;
      (** per-layer numbers shown next to the end-to-end number they explain *)
}

let finish ctx trs o =
  let heap = heap_peak_mb () in
  (* > 1 when the host ran slower than the reference speed *)
  let slowdown = host_reference_s () /. reference_nominal_s in
  let cpu_slowdown = host_reference_cpu_s () /. reference_nominal_s in
  let e2e =
    [
      ("setup_s", o.setup_s /. slowdown);
      ( "work_per_s",
        match o.clock with
        | Wall -> o.work_per_s *. slowdown
        | Cpu -> o.work_per_s *. cpu_slowdown
        | Simulated -> o.work_per_s );
      ("heap_live_mb", o.live_mb);
    ]
  in
  let notes =
    o.headline
    @ [
        Report.line "host_ref_ms" (host_reference_s () *. 1e3)
          ~samples:(List.length !reference_samples);
        Report.line "host_ref_cpu_ms" (host_reference_cpu_s () *. 1e3)
          ~samples:(List.length !reference_cpu_samples);
        Report.line "setup_s" o.setup_s ~samples:o.reps;
        Report.line "fail_ratio" (ratio_i o.failed o.attempted) ~samples:o.attempted;
        Report.line "heap_peak_mb" heap ~samples:1;
        Report.line "heap_live_mb" o.live_mb ~samples:o.reps;
        "check: " ^ o.check;
      ]
  in
  let metrics, trace_notes =
    if not ctx.trace then (e2e, [])
    else begin
      let spans, span_notes = finish_trace ctx trs in
      ( o.layers @ spans
        @ [ ("trace.overhead_ratio", ratio o.work_per_s o.traced_work_per_s) ],
        span_notes
        @ [
            "explains: "
            ^ String.concat "  "
                (List.map (fun (n, v) -> Printf.sprintf "%s=%.4g" n v) o.explain);
          ] )
    end
  in
  {
    Report.correct = o.correct;
    attempted = o.attempted;
    failed = o.failed;
    metrics;
    notes = notes @ trace_notes;
  }

(* ---- fig3-mix ---- *)

let fig3_mix ctx =
  let cfg = match ctx.size with Paper -> Mix.paper | Tiny -> Mix.tiny in
  let teeth = Mix.teeth_trips () in
  let p =
    phases ctx ~threads:cfg.Mix.threads ~clock:now_ns (fun ?tracers seed ->
        Mix.rep ?tracers cfg ~seed)
  in
  let all = p.plain @ p.traced in
  (* Per-window costs follow the shared component's merge cycle (a window
     holding a large merge is several times slower), so the rates are all
     timed operations over all timed window time, not a median of
     windows. *)
  let ops reps = float_of_int (sum (fun (r : Mix.rep) -> r.Mix.ops) reps) in
  let total f reps = sumf (fun (r : Mix.rep) -> List.fold_left ( +. ) 0. (f r)) reps in
  let wall_s = total (fun r -> r.Mix.windows_s) and cpu_s = total (fun r -> r.Mix.windows_cpu_s) in
  let aggregate reps = ops reps /. wall_s reps in
  (* The headline: per second of thread CPU time, so that time the host
     takes a virtual CPU away from a thread is not charged, nor (after a
     short spin) the other thread's sleep while it waits for it at the
     next stop-the-world collection. *)
  let cpu_rate reps = float_of_int cfg.Mix.threads *. ops reps /. cpu_s reps in
  let ops_per_s = aggregate p.plain and ops_per_cpu_s = cpu_rate p.plain in
  let n_windows = sum (fun (r : Mix.rep) -> List.length r.Mix.windows_s) p.plain in
  let violations = List.concat_map (fun (r : Mix.rep) -> r.Mix.violations) all in
  let ops = sum (fun (r : Mix.rep) -> r.Mix.ops) p.plain in
  let gc =
    gc_layers p ~ops
      ~minor:(sumf (fun (r : Mix.rep) -> r.Mix.minor_words) p.plain)
      ~major:(sumf (fun (r : Mix.rep) -> r.Mix.major_words) p.plain)
  in
  let c = counters () in
  List.iter
    (fun (r : Mix.rep) ->
      add_snapshot c r.Mix.stats;
      add_snapshot ~sign:(-1) c r.Mix.stats_before)
    p.traced;
  let t_ops = sum (fun (r : Mix.rep) -> r.Mix.ops) p.traced in
  let t_attempts = sum (fun (r : Mix.rep) -> r.Mix.delete_attempts) p.traced in
  let t_nones = sum (fun (r : Mix.rep) -> r.Mix.nones) p.traced in
  finish ctx p.trs
    {
      reps = List.length p.plain;
      live_mb = mean (fun (r : Mix.rep) -> r.Mix.live_mb) p.plain;
      setup_s = med (fun (r : Mix.rep) -> r.Mix.setup_s) p.plain;
      work_per_s = ops_per_cpu_s;
      clock = Cpu;
      traced_work_per_s = cpu_rate p.traced;
      headline =
        [
          Report.line "ops_per_s" ops_per_s ~samples:n_windows;
          Report.line "ops_per_cpu_s" ops_per_cpu_s ~samples:n_windows;
          Report.line "cpu_busy_share"
            (cpu_s p.plain /. (float_of_int cfg.Mix.threads *. wall_s p.plain))
            ~samples:n_windows;
        ];
      check =
        Printf.sprintf "conservation after drain %s; planted-drop teeth case %s"
          (if violations = [] then "ok" else String.concat "; " violations)
          (if teeth then "tripped (ok)" else "DID NOT TRIP");
      correct = teeth && violations = [];
      attempted = sum (fun (r : Mix.rep) -> r.Mix.delete_attempts) all;
      failed = sum (fun (r : Mix.rep) -> r.Mix.nones) all;
      layers =
        queue_layers c ~ops:t_ops ~inserts:(t_ops - t_attempts)
          ~deletes:(t_attempts - t_nones)
        @ gc;
      explain =
        [
          ("ops_per_s", ops_per_s);
          ("ops_per_cpu_s", ops_per_cpu_s);
          ("gc.minor_words_per_op", List.assoc "gc.minor_words_per_op" gc) ];
    }

(* ---- sssp-sparse ---- *)

let sssp_sparse ctx =
  let cfg = match ctx.size with Paper -> Sssp_w.paper | Tiny -> Sssp_w.tiny in
  let p =
    phases ctx ~threads:cfg.Sssp_w.threads ~clock:now_ns (fun ?tracers seed ->
        Sssp_w.rep ?tracers cfg ~seed)
  in
  let all = p.plain @ p.traced in
  let sssp_s = med (fun (r : Sssp_w.rep) -> r.Sssp_w.sssp_s) p.plain in
  let sssp_cpu_s = med (fun (r : Sssp_w.rep) -> r.Sssp_w.sssp_cpu_s) p.plain in
  let extra =
    med (fun (r : Sssp_w.rep) -> float_of_int (r.Sssp_w.iterations - r.Sssp_w.settled)) p.plain
  in
  (* the headline rate: nodes settled per second of time-to-solution,
     counted in CPU time for the reason given at fig3-mix *)
  let rate =
    med (fun (r : Sssp_w.rep) -> float_of_int r.Sssp_w.settled /. r.Sssp_w.sssp_cpu_s)
  in
  let ops = sum (fun (r : Sssp_w.rep) -> r.Sssp_w.queue_ops) p.plain in
  let settles = sum (fun (r : Sssp_w.rep) -> r.Sssp_w.iterations) p.plain in
  let gc =
    gc_layers p ~ops
      ~minor:(sumf (fun (r : Sssp_w.rep) -> r.Sssp_w.minor_words) p.plain)
      ~major:(sumf (fun (r : Sssp_w.rep) -> r.Sssp_w.major_words) p.plain)
  in
  let c = counters () in
  List.iter (fun (r : Sssp_w.rep) -> add_snapshot c r.Sssp_w.stats) p.traced;
  let t_ops = sum (fun (r : Sssp_w.rep) -> r.Sssp_w.queue_ops) p.traced in
  let t_settles = sum (fun (r : Sssp_w.rep) -> r.Sssp_w.iterations) p.traced in
  let t_deletes = t_settles + sum (fun (r : Sssp_w.rep) -> r.Sssp_w.stale) p.traced in
  let mismatches = sum (fun (r : Sssp_w.rep) -> r.Sssp_w.mismatches) all in
  let leftovers = sum (fun (r : Sssp_w.rep) -> r.Sssp_w.leftovers) all in
  finish ctx p.trs
    {
      reps = List.length p.plain;
      live_mb = mean (fun (r : Sssp_w.rep) -> r.Sssp_w.live_mb) p.plain;
      setup_s = med (fun (r : Sssp_w.rep) -> r.Sssp_w.setup_s) p.plain;
      work_per_s = rate p.plain;
      clock = Cpu;
      traced_work_per_s = rate p.traced;
      headline =
        [
          Report.line "sssp_s" sssp_s ~samples:(List.length p.plain);
          Report.line "sssp_cpu_s" sssp_cpu_s ~samples:(List.length p.plain);
          Report.line "cpu_busy_share"
            (ratio
               (sumf (fun (r : Sssp_w.rep) -> r.Sssp_w.sssp_cpu_s) p.plain)
               (sumf (fun (r : Sssp_w.rep) -> r.Sssp_w.sssp_s) p.plain))
            ~samples:(List.length p.plain);
          Report.line "sssp_extra_iterations" extra ~samples:(List.length p.plain);
        ];
      check =
        Printf.sprintf
          "%d of %d node distances differ from sequential Dijkstra; %d entries left in the queue"
          mismatches (sum (fun (r : Sssp_w.rep) -> r.Sssp_w.nodes) all) leftovers;
      correct = mismatches = 0 && leftovers = 0;
      attempted = sum (fun (r : Sssp_w.rep) -> r.Sssp_w.nodes) all;
      failed = mismatches;
      layers =
        queue_layers c ~ops:t_ops ~inserts:(t_ops - t_deletes) ~deletes:t_deletes
        @ gc
        @ [
            ( "sssp.stale_per_settle",
              ratio_i (sum (fun (r : Sssp_w.rep) -> r.Sssp_w.stale) p.plain) settles );
            ( "sssp.lazy_drop_per_settle",
              ratio_i (sum (fun (r : Sssp_w.rep) -> r.Sssp_w.lazy_drops) p.plain) settles );
            ( "sssp.empty_pop_per_settle",
              ratio_i (sum (fun (r : Sssp_w.rep) -> r.Sssp_w.empty_pops) p.plain) settles );
            ( "sssp.relax_share",
              ratio_i (Trace.self_ns p.trs Trace.Caller) (Trace.total_ns p.trs Trace.Caller) );
          ];
      explain = [ ("sssp_s", sssp_s); ("queue.busy_share", busy_share p.trs) ];
    }

(* ---- sched-fibers ---- *)

let sched_fibers ctx =
  let cfg = match ctx.size with Paper -> Sched_w.paper | Tiny -> Sched_w.tiny in
  let p =
    phases ctx ~threads:cfg.Sched_w.cl.Sched_w.CL.num_workers ~clock:now_ns
      (fun ?tracers seed -> Sched_w.rep ?tracers cfg ~seed)
  in
  let all = p.plain @ p.traced in
  let rate = med (fun (r : Sched_w.rep) -> float_of_int r.Sched_w.tasks /. r.Sched_w.run_s) in
  let tasks_per_s = rate p.plain in
  let n = List.length p.plain in
  let p50 = med (fun (r : Sched_w.rep) -> r.Sched_w.delay_p50_s *. 1e3) p.plain in
  let p99 = med (fun (r : Sched_w.rep) -> r.Sched_w.delay_p99_s *. 1e3) p.plain in
  let samples = sum (fun (r : Sched_w.rep) -> r.Sched_w.delay_samples) p.plain in
  let tasks = sum (fun (r : Sched_w.rep) -> r.Sched_w.tasks) p.plain in
  let s f = sum (fun (r : Sched_w.rep) -> f r.Sched_w.summary) p.plain in
  let per_task f = ratio_i (s f) tasks in
  let gc =
    gc_layers p ~ops:(2 * tasks)
      ~minor:(sumf (fun (r : Sched_w.rep) -> r.Sched_w.minor_words) p.plain)
      ~major:(sumf (fun (r : Sched_w.rep) -> r.Sched_w.major_words) p.plain)
  in
  let c = counters () in
  List.iter (fun (r : Sched_w.rep) -> add_snapshot c r.Sched_w.stats) p.traced;
  let t_tasks = sum (fun (r : Sched_w.rep) -> r.Sched_w.tasks) p.traced in
  let bad f = sum f all in
  let lost = bad (fun r -> r.Sched_w.lost) and double = bad (fun r -> r.Sched_w.double) in
  let dead = bad (fun r -> r.Sched_w.dead) and fiber_lost = bad (fun r -> abs r.Sched_w.fiber_lost) in
  finish ctx p.trs
    {
      reps = List.length p.plain;
      live_mb = mean (fun (r : Sched_w.rep) -> r.Sched_w.live_mb) p.plain;
      setup_s = med (fun (r : Sched_w.rep) -> r.Sched_w.setup_s) p.plain;
      work_per_s = tasks_per_s;
      clock = Wall;
      traced_work_per_s = rate p.traced;
      headline =
        [
          Report.line "tasks_per_s" tasks_per_s ~samples:n;
          Report.line "task_delay_p50_ms" p50 ~samples;
          Report.line "task_delay_p99_ms" p99 ~samples;
        ];
      check =
        Printf.sprintf "audit: lost %d, double-delivered %d, dead-lettered %d, fibers lost %d"
          lost double dead fiber_lost;
      correct = lost = 0 && double = 0 && dead = 0 && fiber_lost = 0;
      attempted = sum (fun (r : Sched_w.rep) -> r.Sched_w.tasks) all;
      failed = lost + double + dead;
      layers =
        queue_layers c ~ops:(2 * t_tasks) ~inserts:t_tasks ~deletes:t_tasks
        @ gc
        @ [
            ( "sched.steal_success_ratio",
              ratio_i (s (fun m -> m.Metrics.steals)) (s (fun m -> m.Metrics.steal_attempts)) );
            ("sched.fallback_per_task", per_task (fun m -> m.Metrics.steal_fallbacks));
            ("sched.empty_pop_per_task", per_task (fun m -> m.Metrics.empty_pops));
            ("sched.flush_per_task", per_task (fun m -> m.Metrics.flushes));
            ("fiber.suspend_per_task", per_task (fun m -> m.Metrics.fiber_suspends));
          ];
      explain =
        [
          ("tasks_per_s", tasks_per_s);
          ("task_delay_p99_ms", p99);
          ("sched.empty_pop_per_task", per_task (fun m -> m.Metrics.empty_pops));
        ];
    }

(* ---- contention-sim8 ---- *)

(** Simulated repetitions per run: a fixed function of the time budget,
    so that a seed and a budget always give the same numbers. *)
let sim_reps ctx =
  match ctx.size with
  | Tiny -> 1
  | Paper -> max 1 (int_of_float (untraced_seconds ctx /. 10.))

let contention_sim8 ctx =
  let cfg = match ctx.size with Paper -> Sim_w.paper | Tiny -> Sim_w.tiny in
  let reps = sim_reps ctx in
  let run ?tracers i =
    Gc.full_major ();
    sample_host ();
    Sim_w.rep ?tracers cfg ~seed:(rep_seed ctx i)
  in
  let plain = List.init reps (fun i -> run i) in
  let trs, traced =
    if not ctx.trace then ([||], [])
    else begin
      let trs = Array.init cfg.Sim_w.threads (fun tid -> Trace.create ~clock:Sim_w.clock tid) in
      Obs.set_enabled true;
      let traced =
        Fun.protect ~finally:(fun () -> Obs.set_enabled false) (fun () ->
            List.init reps (fun i -> run ~tracers:trs i))
      in
      (trs, traced)
    end
  in
  let all = plain @ traced in
  let rate = med (fun (r : Sim_w.rep) -> float_of_int r.Sim_w.ops /. r.Sim_w.sim_s) in
  let sim_ops = rate plain in
  let deletes r = r.Sim_w.delete_attempts - r.Sim_w.nones in
  let mean_err = ratio_i (sum (fun r -> r.Sim_w.rank_sum) plain) (sum deletes plain) in
  let max_err = List.fold_left (fun a r -> max a r.Sim_w.rank_max) 0 all in
  let bound = Sim_w.rank_bound cfg in
  let ops = sum (fun r -> r.Sim_w.ops) plain in
  let sim f = sum (fun r -> f r.Sim_w.sim) plain in
  let c = counters () in
  List.iter
    (fun (r : Sim_w.rep) ->
      add_snapshot c r.Sim_w.stats;
      add_snapshot ~sign:(-1) c r.Sim_w.stats_before)
    traced;
  let t_ops = sum (fun r -> r.Sim_w.ops) traced in
  let t_attempts = sum (fun r -> r.Sim_w.delete_attempts) traced in
  let t_deletes = sum deletes traced in
  finish ctx trs
    {
      reps;
      live_mb = mean (fun (r : Sim_w.rep) -> r.Sim_w.live_mb) plain;
      setup_s = med (fun (r : Sim_w.rep) -> r.Sim_w.setup_s) plain;
      work_per_s = sim_ops;
      clock = Simulated;
      traced_work_per_s = rate traced;
      headline =
        [
          Report.line "sim_ops_per_s" sim_ops ~samples:reps;
          Report.line "rank_error_mean" mean_err ~samples:(sum deletes plain);
          Report.line "rank_error_max" (float_of_int max_err) ~samples:(sum deletes all);
        ];
      check =
        Printf.sprintf "rank_error_max %d within (T+S)*ceil(k/S) + T = %d: %b" max_err bound
          (max_err <= bound);
      correct = max_err <= bound;
      attempted = sum (fun r -> r.Sim_w.delete_attempts) all;
      failed = sum (fun r -> r.Sim_w.nones) all;
      layers =
        queue_layers c ~ops:t_ops ~inserts:(t_ops - t_attempts) ~deletes:t_deletes
        @ [
            ("sim.ticks_per_op", ratio_i (sim (fun s -> s.Sim_w.B.ticks)) ops);
            ("sim.miss_per_op", ratio_i (sim (fun s -> s.Sim_w.B.misses)) ops);
            ( "sim.cas_fail_ratio",
              ratio_i (sim (fun s -> s.Sim_w.B.cas_failures)) (sim (fun s -> s.Sim_w.B.cas)) );
          ];
      explain =
        [ ("sim_ops_per_s", sim_ops); ("sim.miss_per_op", ratio_i (sim (fun s -> s.Sim_w.B.misses)) ops) ];
    }

let all =
  [
    ("fig3-mix", fig3_mix);
    ("sssp-sparse", sssp_sparse);
    ("sched-fibers", sched_fibers);
    ("contention-sim8", contention_sim8);
  ]
