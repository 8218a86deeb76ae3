(** [fig3-mix]: the paper's Figure 3 workload on the real backend.

    Each repetition builds a fresh queue, prefills it with uniform keys
    (set-up), then runs timed windows in which every thread flips a coin
    per operation between an insert of a uniform key and a delete-min.
    The queue stays near its prefill size, so it never legitimately looks
    empty and every [None] from delete-min counts as a failure.  After the
    windows the queue is drained and checked for conservation: the drained
    count must equal prefill + inserts - successful deletes, and the sum of
    drained keys must equal the sum of keys put in minus the sum of keys
    taken out. *)

module B = Klsm_backend.Real
module Registry = Klsm_harness.Registry.Make (B)
module Xoshiro = Klsm_primitives.Xoshiro
module Obs = Klsm_obs.Obs
open Common

type config = {
  spec : string;
  threads : int;
  prefill : int;
  key_range : int;
  ops_per_thread : int;  (** per timed window *)
  windows : int;  (** timed windows per prefilled queue *)
}

let paper =
  {
    spec = "klsm:256";
    threads = 2;
    prefill = 1_000_000;
    key_range = 1 lsl 28;
    ops_per_thread = 250_000;
    windows = 16;
  }

let tiny =
  { paper with prefill = 2_000; ops_per_thread = 2_000; windows = 1 }

(** Per-thread tallies of one window. *)
type tally = {
  mutable inserts : int;
  mutable insert_sum : int;
  mutable deletes : int;  (** successful *)
  mutable delete_sum : int;
  mutable nones : int;
}

let fresh_tally () =
  { inserts = 0; insert_sum = 0; deletes = 0; delete_sum = 0; nones = 0 }

(** The books of one queue's life: what went in, what came out. *)
type books = {
  mutable put : int;
  mutable put_sum : int;
  mutable taken : int;
  mutable taken_sum : int;
}

(** Conservation: [drained] items with key sum [drained_sum] must be
    exactly what was put in and not taken out.  Returns the violations. *)
let conservation books ~drained ~drained_sum =
  let expect = books.put - books.taken in
  let expect_sum = books.put_sum - books.taken_sum in
  (if drained <> expect then
     [ Printf.sprintf "drained %d items, expected %d" drained expect ]
   else [])
  @
  if drained_sum <> expect_sum then
    [ Printf.sprintf "drained key sum %d, expected %d" drained_sum expect_sum ]
  else []

(** Empty the quiescent queue from thread 0 through the bulk delete path,
    stopping after 64 consecutive empty batches (the k-LSM's spy path
    reaches the other threads' local items).  Returns (items, key sum). *)
let drain (h : Registry.handle) =
  let n = ref 0 and sum = ref 0 in
  B.parallel_run ~num_threads:1 (fun _ ->
      let misses = ref 0 in
      while !misses < 64 do
        match h.Registry.try_delete_min_batch 256 with
        | [] -> incr misses
        | items ->
            List.iter
              (fun (k, _) ->
                incr n;
                sum := !sum + k)
              items;
            misses := 0
      done);
  (!n, !sum)

(** Request id of a thread's [op]-th call in window [window]. *)
let request ~tid ~window op = (tid lsl 48) lor (window lsl 40) lor op

(** A handle that spans every queue call on [tr]; the request id is the
    thread, the window and the thread's operation index. *)
let traced_handle tr ~tid ~window (h : Registry.handle) =
  let n = ref 0 in
  let req () =
    incr n;
    request ~tid ~window !n
  in
  {
    h with
    Registry.insert =
      (fun k v ->
        Trace.enter tr Trace.Insert ~req:(req ());
        h.Registry.insert k v;
        Trace.leave tr);
    try_delete_min =
      (fun () ->
        Trace.enter tr Trace.Delete_min ~req:(req ());
        let r = h.Registry.try_delete_min () in
        Trace.leave tr;
        r);
  }

(** Totals of one timed window. *)
type win = {
  seconds : float;
  cpu_seconds : float;
  ops : int;
  delete_attempts : int;
  nones : int;
  minor_words : float;
  major_words : float;
}

type rep = {
  setup_s : float;
  windows_s : float list;  (** one entry per timed window *)
  windows_cpu_s : float list;  (** the threads' CPU seconds, per timed window *)
  ops : int;
  delete_attempts : int;
  nones : int;
  minor_words : float;
  major_words : float;
  violations : string list;
  live_mb : float;  (** live heap after the timed windows *)
  stats_before : Obs.snapshot;  (** queue counters before the timed windows *)
  stats : Obs.snapshot;  (** and after *)
}

(** One repetition.  [wrap] intercepts each registered handle (the
    conservation teeth test plants a dropped insert through it);
    [tracers], when given, records a span around every queue call. *)
let rep ?(wrap = fun _tid h -> h) ?tracers cfg ~seed =
  let t = cfg.threads in
  let spec =
    match Registry.parse_spec cfg.spec with
    | Ok s -> s
    | Error e -> failwith e
  in
  let books = { put = 0; put_sum = 0; taken = 0; taken_sum = 0 } in
  let handles = Array.make t None in
  let prefill_sums = Array.make t 0 in
  let instance, setup_s =
    timed (fun () ->
        let instance = Registry.make ~seed ~num_threads:t spec in
        B.parallel_run ~num_threads:t (fun tid ->
            let h = wrap tid (instance.Registry.register tid) in
            handles.(tid) <- Some h;
            let rng = Xoshiro.create ~seed:(seed + (7919 * tid)) in
            let share = (cfg.prefill / t) + if tid < cfg.prefill mod t then 1 else 0 in
            let sum = ref 0 in
            for _ = 1 to share do
              let k = Xoshiro.int rng cfg.key_range in
              sum := !sum + k;
              h.Registry.insert k 0
            done;
            prefill_sums.(tid) <- !sum);
        instance)
  in
  books.put <- cfg.prefill;
  books.put_sum <- Array.fold_left ( + ) 0 prefill_sums;
  let handle tid = match handles.(tid) with Some h -> h | None -> assert false in
  let rngs =
    Array.init t (fun tid -> Xoshiro.create ~seed:(seed + 13 + (104729 * tid)))
  in
  let run_window w =
    let tallies = Array.init t (fun _ -> fresh_tally ()) in
    let ws = Array.init t (fun _ -> fresh_window ()) in
    let b = barrier () in
    B.parallel_run ~num_threads:t (fun tid ->
        let h =
          match tracers with
          | Some trs when w > 0 ->
              traced_handle trs.(tid) ~tid ~window:w (handle tid)
          | _ -> handle tid
        in
        let rng = rngs.(tid) in
        let ty = tallies.(tid) in
        let op () =
          if Xoshiro.bool rng then begin
            let k = Xoshiro.int rng cfg.key_range in
            ty.inserts <- ty.inserts + 1;
            ty.insert_sum <- ty.insert_sum + k;
            h.Registry.insert k 0
          end
          else
            match h.Registry.try_delete_min () with
            | Some (k, _) ->
                ty.deletes <- ty.deletes + 1;
                ty.delete_sum <- ty.delete_sum + k
            | None -> ty.nones <- ty.nones + 1
        in
        let loop () =
          for _ = 1 to cfg.ops_per_thread do
            op ()
          done
        in
        in_window b t ws.(tid) (fun () ->
            match tracers with
            | Some trs when w > 0 ->
                (* The caller span is the benchmark's own loop; the queue
                   calls inside it are spanned by the traced handle. *)
                Trace.span trs.(tid) Trace.Caller
                  ~req:(request ~tid ~window:w 0) loop
            | _ -> loop ()));
    Array.iter
      (fun ty ->
        books.put <- books.put + ty.inserts;
        books.put_sum <- books.put_sum + ty.insert_sum;
        books.taken <- books.taken + ty.deletes;
        books.taken_sum <- books.taken_sum + ty.delete_sum)
      tallies;
    let count f = Array.fold_left (fun a (ty : tally) -> a + f ty) 0 tallies in
    let minor_words, major_words = window_alloc ws in
    {
      seconds = window_seconds ws;
      cpu_seconds = window_cpu_seconds ws;
      ops = count (fun ty -> ty.inserts + ty.deletes + ty.nones);
      delete_attempts = count (fun ty -> ty.deletes + ty.nones);
      nones = count (fun ty -> ty.nones);
      minor_words;
      major_words;
    }
  in
  (* The first window after prefill runs while the prefill's garbage is
     still being collected; it counts for conservation but is not timed. *)
  ignore (run_window 0);
  let stats_before = instance.Registry.stats () in
  (* One reference-loop timing after every window, so that the host speed
     the rate is scaled by is sampled through the whole measured phase. *)
  let wins =
    List.init cfg.windows (fun w ->
        let r = run_window (w + 1) in
        sample_host ~n:1 ();
        r)
  in
  let stats = instance.Registry.stats () in
  let live_mb = live_mb () in
  let drained, drained_sum = drain (handle 0) in
  let sum f = List.fold_left (fun a w -> a + f w) 0 wins in
  let sumf f = List.fold_left (fun a w -> a +. f w) 0. wins in
  {
    setup_s;
    windows_s = List.map (fun w -> w.seconds) wins;
    windows_cpu_s = List.map (fun w -> w.cpu_seconds) wins;
    ops = sum (fun w -> w.ops);
    delete_attempts = sum (fun w -> w.delete_attempts);
    nones = sum (fun w -> w.nones);
    minor_words = sumf (fun w -> w.minor_words);
    major_words = sumf (fun w -> w.major_words);
    violations = conservation books ~drained ~drained_sum;
    live_mb;
    stats_before;
    stats;
  }

(** The teeth case: a handle that silently drops thread 0's tenth insert
    must trip the conservation check. *)
let teeth_trips () =
  let dropped = ref 0 in
  let wrap tid (h : Registry.handle) =
    if tid <> 0 then h
    else
      {
        h with
        Registry.insert =
          (fun k v ->
            incr dropped;
            if !dropped <> 10 then h.Registry.insert k v);
      }
  in
  let r = rep ~wrap tiny ~seed:1 in
  r.violations <> []
