(** Metric catalogues and output.

    Three families; the first two are lists of (name, unit, direction)
    that BENCHMARK.json mirrors:
    - {!end_to_end}: printed in the final JSON line of an untraced run, for
      every workload;
    - {!per_layer}: printed in the final JSON line of a traced run, for
      every workload (0 where the workload does not exercise the layer);
    - {!headline}: the workload-specific user-facing numbers, printed as
      [metric] lines for the workloads they apply to. *)

type better = Higher | Lower

let better_name = function Higher -> "higher" | Lower -> "lower"

let end_to_end =
  [ ("setup_s", "s", Lower); ("work_per_s", "1/s", Higher); ("heap_live_mb", "MB", Lower) ]

let headline =
  [
    ("setup_s", "s", [ "fig3-mix"; "sssp-sparse"; "sched-fibers"; "contention-sim8" ]);
    ("ops_per_s", "ops/s", [ "fig3-mix" ]);
    ("ops_per_cpu_s", "ops/s", [ "fig3-mix" ]);
    ("cpu_busy_share", "ratio", [ "fig3-mix"; "sssp-sparse" ]);
    ("sim_ops_per_s", "ops/sim-s", [ "contention-sim8" ]);
    ("sssp_s", "s", [ "sssp-sparse" ]);
    ("sssp_cpu_s", "s", [ "sssp-sparse" ]);
    ("sssp_extra_iterations", "settles", [ "sssp-sparse" ]);
    ("tasks_per_s", "tasks/s", [ "sched-fibers" ]);
    ("task_delay_p50_ms", "ms", [ "sched-fibers" ]);
    ("task_delay_p99_ms", "ms", [ "sched-fibers" ]);
    ("rank_error_mean", "ranks", [ "contention-sim8" ]);
    ("rank_error_max", "ranks", [ "contention-sim8" ]);
    ("fail_ratio", "ratio", [ "fig3-mix"; "sssp-sparse"; "sched-fibers"; "contention-sim8" ]);
    ("heap_peak_mb", "MB", [ "fig3-mix"; "sssp-sparse"; "sched-fibers"; "contention-sim8" ]);
    ("heap_live_mb", "MB", [ "fig3-mix"; "sssp-sparse"; "sched-fibers"; "contention-sim8" ]);
    ("host_ref_ms", "ms", [ "fig3-mix"; "sssp-sparse"; "sched-fibers"; "contention-sim8" ]);
    ("host_ref_cpu_ms", "ms", [ "fig3-mix"; "sssp-sparse"; "sched-fibers"; "contention-sim8" ]);
  ]

let per_layer =
  [
    (* Registry handle -> Klsm / Sharded_klsm, from benchmark spans *)
    ("queue.insert_ns.p50", "ns", Lower);
    ("queue.insert_ns.p99", "ns", Lower);
    ("queue.delete_min_ns.p50", "ns", Lower);
    ("queue.delete_min_ns.p99", "ns", Lower);
    ("queue.insert_batch_ns.p50", "ns", Lower);
    ("queue.insert_batch_ns.p99", "ns", Lower);
    ("queue.delete_batch_ns.p50", "ns", Lower);
    ("queue.delete_batch_ns.p99", "ns", Lower);
    ("queue.busy_share", "ratio", Lower);
    (* self time of the layers, from benchmark spans *)
    ("self.queue_s", "s", Lower);
    ("self.caller_s", "s", Lower);
    (* Klsm *)
    ("klsm.local_delete_share", "ratio", Higher);
    ("klsm.take_race_per_delete", "1/delete", Lower);
    ("klsm.spy_per_delete", "1/delete", Lower);
    (* Shared_klsm *)
    ("shared.cas_per_op", "1/op", Lower);
    ("shared.cas_fail_ratio", "ratio", Lower);
    ("shared.consolidate_per_op", "1/op", Lower);
    ("shared.pivot_recompute_per_op", "1/op", Lower);
    ("shared.insert_us.mean", "us", Lower);
    ("shared.find_min_us.mean", "us", Lower);
    ("shared.batch_claim_per_delete", "1/delete", Lower);
    (* Dist_lsm *)
    ("dist.merge_per_insert", "1/insert", Lower);
    ("dist.spill_items_per_spill", "items/spill", Higher);
    ("dist.spy_items_per_delete", "1/delete", Lower);
    (* Block pool *)
    ("pool.hit_ratio", "ratio", Higher);
    (* Sharded_klsm *)
    ("stripe.cache_hit_ratio", "ratio", Higher);
    ("stripe.hint_skip_per_delete", "1/delete", Higher);
    ("stripe.hint_consult_per_delete", "1/delete", Lower);
    ("stripe.cas_fail_per_op", "1/op", Lower);
    ("stripe.dbuf_hit_ratio", "ratio", Higher);
    ("stripe.dbuf_flush_per_delete", "1/delete", Lower);
    (* Block / Block_array / Deque kernel probes *)
    ("kernel.merge_ns_per_item", "ns/item", Lower);
    ("kernel.pivots_ns", "ns", Lower);
    ("kernel.prefix_view_ns", "ns", Lower);
    ("kernel.deque_push_pop_ns", "ns", Lower);
    ("kernel.deque_steal_ns", "ns", Lower);
    (* Worker / Fiber / Submitter *)
    ("sched.steal_success_ratio", "ratio", Higher);
    ("sched.fallback_per_task", "1/task", Lower);
    ("sched.empty_pop_per_task", "1/task", Lower);
    ("sched.flush_per_task", "1/task", Lower);
    ("fiber.suspend_per_task", "1/task", Lower);
    (* Sssp *)
    ("sssp.stale_per_settle", "1/settle", Lower);
    ("sssp.lazy_drop_per_settle", "1/settle", Higher);
    ("sssp.empty_pop_per_settle", "1/settle", Lower);
    ("sssp.relax_share", "ratio", Higher);
    (* OCaml runtime *)
    ("gc.minor_words_per_op", "words/op", Lower);
    ("gc.major_words_per_op", "words/op", Lower);
    ("gc.minor_collections", "count", Lower);
    ("gc.major_collections", "count", Lower);
    (* Sim backend *)
    ("sim.ticks_per_op", "1/op", Lower);
    ("sim.miss_per_op", "1/op", Lower);
    ("sim.cas_fail_ratio", "ratio", Lower);
    (* tracing *)
    ("trace.overhead_ratio", "ratio", Lower);
  ]

(** What a workload run returns. *)
type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * float) list;  (** values by catalogue name *)
  notes : string list;  (** printed before the JSON line *)
}

(** A [metric] line for a headline number, with its sample count. *)
let line name value ~samples =
  let unit_ =
    match List.find_opt (fun (n, _, _) -> n = name) headline with
    | Some (_, u, _) -> u
    | None -> invalid_arg ("Report.line: " ^ name)
  in
  Printf.sprintf "metric %s = %.6g %s (n=%d)" name value unit_ samples

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.1f" v
  else Printf.sprintf "%.17g" v

(** The final line: every metric of [catalogue], looked up in [r.metrics]
    (0 when the workload did not produce it). *)
let json catalogue r =
  let metric (name, unit_, _) =
    let v = Option.value ~default:0. (List.assoc_opt name r.metrics) in
    Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number v) unit_
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    r.correct r.attempted r.failed
    (String.concat ", " (List.map metric catalogue))

(** The catalogue as JSON lines, one object per metric, for comparing
    against BENCHMARK.json. *)
let list_metrics () =
  let print family (name, unit_, better) =
    Printf.printf "{\"family\": %S, \"name\": %S, \"unit\": %S, \"better\": %S}\n"
      family name unit_ (better_name better)
  in
  List.iter (print "end_to_end") end_to_end;
  List.iter (print "per_layer") per_layer;
  List.iter
    (fun (name, unit_, workloads) ->
      Printf.printf "{\"family\": \"headline\", \"name\": %S, \"unit\": %S, \"workloads\": [%s]}\n"
        name unit_ (String.concat ", " (List.map (Printf.sprintf "%S") workloads)))
    headline
