(** Clock, start barrier, GC accounting and result plumbing shared by the
    workloads. *)

(** Monotonic nanoseconds (clock_gettime(CLOCK_MONOTONIC)). *)
let now_ns () = Int64.to_int (Monotonic_clock.now ())

let now_s () = float_of_int (now_ns ()) *. 1e-9

(** CPU nanoseconds of the calling thread (domain), GC work included and
    time the virtual CPU was stolen by the host left out. *)
external thread_cpu_ns : unit -> int = "kbench_thread_cpu_ns" [@@noalloc]

(** [timed f] is [(f (), seconds f took)]. *)
let timed f =
  let t0 = now_ns () in
  let r = f () in
  (r, float_of_int (now_ns () - t0) *. 1e-9)

(** A start barrier for real domains: every thread calls [wait] once and
    leaves only when all [n] have arrived, so the timed window opens after
    domain spawn and per-thread set-up. *)
let barrier () = Atomic.make 0

let wait b n =
  ignore (Atomic.fetch_and_add b 1);
  while Atomic.get b < n do
    Domain.cpu_relax ()
  done

(** Per-domain allocation counters (minor words, major words).  OCaml 5
    keeps them per domain, so each benchmark thread reads its own before
    and after its share of the window. *)
let alloc_words () =
  let minor, _promoted, major = Gc.counters () in
  (minor, major)

(** Window accounting of one real thread. *)
type window = {
  mutable start_ns : int;
  mutable end_ns : int;
  mutable cpu_ns : int;  (** the thread's CPU time inside the window *)
  mutable minor_words : float;
  mutable major_words : float;
}

let fresh_window () =
  { start_ns = 0; end_ns = 0; cpu_ns = 0; minor_words = 0.; major_words = 0. }

(** Elapsed seconds from the first thread leaving the barrier to the last
    thread finishing. *)
let window_seconds (ws : window array) =
  let s = Array.fold_left (fun a w -> min a w.start_ns) max_int ws in
  let e = Array.fold_left (fun a w -> max a w.end_ns) min_int ws in
  float_of_int (e - s) *. 1e-9

(** CPU seconds the threads spent inside the window, summed over threads. *)
let window_cpu_seconds (ws : window array) =
  float_of_int (Array.fold_left (fun a w -> a + w.cpu_ns) 0 ws) *. 1e-9

let window_alloc (ws : window array) =
  Array.fold_left
    (fun (mi, ma) w -> (mi +. w.minor_words, ma +. w.major_words))
    (0., 0.) ws

(** Run [f] between the barrier and the end of the window, charging the
    thread's clock and allocation to [w]. *)
let in_window b n (w : window) f =
  wait b n;
  let mi0, ma0 = alloc_words () in
  w.start_ns <- now_ns ();
  let c0 = thread_cpu_ns () in
  let r = f () in
  w.cpu_ns <- thread_cpu_ns () - c0;
  w.end_ns <- now_ns ();
  let mi1, ma1 = alloc_words () in
  w.minor_words <- mi1 -. mi0;
  w.major_words <- ma1 -. ma0;
  r

let gc_collections () =
  let s = Gc.quick_stat () in
  (s.Gc.minor_collections, s.Gc.major_collections)

(** Megabytes reachable right now: a full major collection, then the live
    words of the major heap.  Call with every benchmark thread joined. *)
let live_mb () =
  Gc.full_major ();
  float_of_int ((Gc.stat ()).Gc.live_words * (Sys.word_size / 8)) /. 1048576.

let heap_peak_mb () =
  let s = Gc.quick_stat () in
  float_of_int (s.Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.

let ratio a b = if b = 0. then 0. else a /. b
let ratio_i a b = ratio (float_of_int a) (float_of_int b)

(** Queue-internal counters and span timers ({!Klsm_obs.Obs}) summed over
    threads and over every traced repetition. *)
type counters = {
  totals : (string, int) Hashtbl.t;
  timers : (string, int * float) Hashtbl.t;  (** count, ns *)
}

let counters () = { totals = Hashtbl.create 64; timers = Hashtbl.create 8 }

(** Add [sign] times the snapshot [s] ([sign] = -1 subtracts a snapshot
    taken before the measured phase). *)
let add_snapshot ?(sign = 1) acc (s : Klsm_obs.Obs.snapshot) =
  let sum a = sign * Array.fold_left ( + ) 0 a in
  List.iter
    (fun (name, per) ->
      let old = Option.value ~default:0 (Hashtbl.find_opt acc.totals name) in
      Hashtbl.replace acc.totals name (old + sum per))
    s.Klsm_obs.Obs.counters;
  List.iter
    (fun (name, (d : Klsm_obs.Obs.span_data)) ->
      let c, ns = Option.value ~default:(0, 0.) (Hashtbl.find_opt acc.timers name) in
      Hashtbl.replace acc.timers name
        ( c + sum d.count,
          ns +. (float_of_int sign *. Array.fold_left ( +. ) 0. d.ns) ))
    s.Klsm_obs.Obs.spans

(** The counter [name]; 0 when it never fired. *)
let get acc name = Option.value ~default:0 (Hashtbl.find_opt acc.totals name)

(** Mean duration of the span timer [name] in microseconds. *)
let timer_mean_us acc name =
  match Hashtbl.find_opt acc.timers name with
  | Some (c, ns) when c > 0 -> ns /. float_of_int c /. 1000.
  | _ -> 0.

(** Host speed.  The benchmark's wall-clock numbers move with the speed of
    the machine, which on a shared virtual machine drifts by tens of percent
    within an hour.  A fixed reference loop — dependent random reads over a
    32 MB array, with integer work in between, so that it is bound by
    memory latency and by the core like the workloads — is timed before
    every repetition; the median of those timings is the run's host speed.
    The loop is benchmark code, so no change to the program moves it. *)
let reference_words = 1 lsl 22

(* Outside the OCaml heap, so that it does not count in [live_mb]. *)
let reference_buf =
  lazy
    (let a = Bigarray.(Array1.create int c_layout reference_words) in
     let x = ref 88172645463325252 in
     for i = 0 to reference_words - 1 do
       x := !x lxor (!x lsl 13);
       x := !x lxor (!x lsr 7);
       x := !x lxor (!x lsl 17);
       a.{i} <- !x land (reference_words - 1)
     done;
     a)

let reference_loop () =
  let a = Lazy.force reference_buf in
  let t0 = now_ns () and c0 = thread_cpu_ns () in
  let j = ref 0 and acc = ref 0 in
  for i = 1 to 200_000 do
    j := a.{(!j + i) land (reference_words - 1)};
    for k = 1 to 16 do
      acc := (!acc * 31) + (k lxor !j)
    done
  done;
  ignore (Sys.opaque_identity !acc);
  let c1 = thread_cpu_ns () and t1 = now_ns () in
  (float_of_int (t1 - t0) *. 1e-9, float_of_int (c1 - c0) *. 1e-9)

(** The reference speed: the loop's typical time on the 2-vCPU virtual
    machine the benchmark was written on.  End-to-end times and rates are
    reported as if the host ran at this speed. *)
let reference_nominal_s = 0.040

let reference_samples = ref []
let reference_cpu_samples = ref []

(** Time the reference loop three times and keep the timings, in wall-clock
    and in CPU time. *)
let sample_host ?(n = 3) () =
  for _ = 1 to n do
    let wall, cpu = reference_loop () in
    reference_samples := wall :: !reference_samples;
    reference_cpu_samples := cpu :: !reference_cpu_samples
  done

(** Median reference-loop time of this run, in seconds. *)
let host_reference_s () =
  Klsm_primitives.Stats.median (Array.of_list !reference_samples)

(** The same in CPU seconds of the thread that ran the loop. *)
let host_reference_cpu_s () =
  Klsm_primitives.Stats.median (Array.of_list !reference_cpu_samples)

(** Repeat [rep] at least [min_reps] times, and then as long as one more
    repetition, as long as the last one took, still ends within [seconds].
    Each repetition starts from a fully collected heap, so garbage left
    by the previous one is not charged to it. *)
let repeat ~seconds ~min_reps rep =
  let t0 = now_s () in
  let rec go i last acc =
    let elapsed = now_s () -. t0 in
    if i >= min_reps && elapsed +. last > seconds then List.rev acc
    else begin
      Gc.full_major ();
      sample_host ();
      let r, took = timed (fun () -> rep i) in
      go (i + 1) took (r :: acc)
    end
  in
  go 0 0. []
