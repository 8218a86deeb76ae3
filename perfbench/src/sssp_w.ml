(** [sssp-sparse]: parallel label-correcting SSSP (paper Figure 4) with
    the §4.5 lazy deletion, on a sparse Erdős–Rényi graph.

    Each repetition generates the graph and its sequential Dijkstra
    reference (set-up), then solves it with {!Klsm_graph.Sssp.run}.  The
    benchmark sits between [Sssp.run] and the queue: it builds the
    [queue_ops] closures, holds every thread at a start barrier inside the
    handle factory, and stamps each thread's last empty pop (the one after
    which it terminates), so the timed window excludes domain spawn and
    join.  Each thread also reads its CPU clock at the barrier and at its
    last empty pop.  Every node's distance is compared against Dijkstra. *)

module B = Klsm_backend.Real
module Registry = Klsm_harness.Registry.Make (B)
module Sssp = Klsm_graph.Sssp.Make (B)
module Obs = Klsm_obs.Obs
open Common

type config = { spec : string; threads : int; nodes : int; p : float }

let paper = { spec = "klsm:256"; threads = 2; nodes = 200_000; p = 5e-5 }
let tiny = { paper with nodes = 2_000; p = 5e-3 }

type rep = {
  setup_s : float;
  sssp_s : float;
  sssp_cpu_s : float;  (** the threads' CPU seconds in the window ÷ threads *)
  settled : int;  (** reference settle count *)
  iterations : int;
  stale : int;
  lazy_drops : int;
  empty_pops : int;
  queue_ops : int;  (** inserts + successful deletes *)
  minor_words : float;
  major_words : float;
  mismatches : int;  (** nodes whose distance differs from Dijkstra *)
  leftovers : int;  (** entries still in the queue after termination *)
  live_mb : float;  (** live heap at the end, graph and queue included *)
  nodes : int;
  stats : Obs.snapshot;
}

let rep ?tracers cfg ~seed =
  let spec =
    match Registry.parse_spec cfg.spec with
    | Ok s -> s
    | Error e -> failwith e
  in
  let (graph, reference), setup_s =
    timed (fun () ->
        let g = Klsm_graph.Gen.erdos_renyi ~seed ~n:cfg.nodes ~p:cfg.p () in
        (g, Klsm_graph.Dijkstra.run g ~source:0))
  in
  let t = cfg.threads in
  let ws = Array.init t (fun _ -> fresh_window ()) in
  let alloc0 = Array.make t (0., 0.) in
  let inserts = Array.make t 0 and deletes = Array.make t 0 in
  let empties = Array.make t 0 and drops = Array.make t 0 in
  let instance = ref None in
  let handles = Array.make t None in
  let b = barrier () in
  let stats =
    Sssp.run graph ~source:0 ~num_threads:t
      ~setup:(fun ~dist ~drop ->
        let on_lazy_delete k v =
          let tid = B.self () in
          if tid >= 0 then drops.(tid) <- drops.(tid) + 1;
          drop k v
        in
        let inst =
          Registry.make ~seed ~num_threads:t
            ~should_delete:(Sssp.should_delete_of dist)
            ~on_lazy_delete spec
        in
        instance := Some inst;
        fun tid ->
          let h = inst.Registry.register tid in
          handles.(tid) <- Some h;
          wait b t;
          alloc0.(tid) <- alloc_words ();
          let w = ws.(tid) in
          w.start_ns <- now_ns ();
          let cpu0 = thread_cpu_ns () in
          (* The last empty pop of a thread precedes its exit: stamp the
             window end and the allocation there. *)
          let empty () =
            empties.(tid) <- empties.(tid) + 1;
            w.end_ns <- now_ns ();
            w.cpu_ns <- thread_cpu_ns () - cpu0;
            let mi, ma = alloc_words () in
            let mi0, ma0 = alloc0.(tid) in
            w.minor_words <- mi -. mi0;
            w.major_words <- ma -. ma0
          in
          let insert d v =
            inserts.(tid) <- inserts.(tid) + 1;
            h.Registry.insert d v
          in
          let try_delete_min () =
            match h.Registry.try_delete_min () with
            | Some _ as r ->
                deletes.(tid) <- deletes.(tid) + 1;
                r
            | None ->
                empty ();
                None
          in
          match tracers with
          | None -> { Sssp.insert; try_delete_min }
          | Some trs ->
              let tr = trs.(tid) in
              (* The caller span (Sssp's relax loop) is open for the
                 whole thread and closed at its last empty pop, below;
                 request ids are the thread's delete-min index. *)
              Trace.enter tr Trace.Caller ~req:(tid lsl 48);
              let settle = ref 0 in
              {
                Sssp.insert =
                  (fun d v ->
                    Trace.enter tr Trace.Insert ~req:((tid lsl 48) lor !settle);
                    insert d v;
                    Trace.leave tr);
                try_delete_min =
                  (fun () ->
                    incr settle;
                    Trace.enter tr Trace.Delete_min
                      ~req:((tid lsl 48) lor !settle);
                    let r = try_delete_min () in
                    Trace.leave tr;
                    r);
              })
      ()
  in
  Option.iter
    (Array.iteri (fun tid tr -> Trace.leave_at tr ws.(tid).end_ns))
    tracers;
  (* Termination means every entry was popped or dropped lazily, so the
     queue must be empty; sweeping it also lets the queue release its
     blocks of dead entries before the live heap is measured. *)
  let leftovers, _ =
    match handles.(0) with Some h -> Mix.drain h | None -> (0, 0)
  in
  let live_mb = live_mb () in
  let dist = Sssp.distances stats in
  let mismatches = ref 0 in
  Array.iteri
    (fun i d -> if d <> reference.Klsm_graph.Dijkstra.dist.(i) then incr mismatches)
    dist;
  let minor_words, major_words = window_alloc ws in
  let sum a = Array.fold_left ( + ) 0 a in
  {
    setup_s;
    sssp_s = window_seconds ws;
    sssp_cpu_s = window_cpu_seconds ws /. float_of_int t;
    settled = reference.Klsm_graph.Dijkstra.settled;
    iterations = stats.Sssp.iterations;
    stale = stats.Sssp.stale;
    lazy_drops = sum drops;
    empty_pops = sum empties;
    queue_ops = sum inserts + sum deletes;
    minor_words;
    major_words;
    mismatches = !mismatches;
    leftovers;
    live_mb;
    nodes = Array.length dist;
    stats =
      (match !instance with
      | Some i -> i.Registry.stats ()
      | None -> Obs.empty_snapshot ~threads:t);
  }
