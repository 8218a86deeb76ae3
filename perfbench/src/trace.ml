(** In-memory spans around every call the benchmark makes into a layer.

    One {!thread} recorder per benchmark thread, written only by its owner
    and read after the threads join.  A span has a name, a start, an end,
    a parent (the span open around it on the same thread) and a request
    id.  Aggregates are kept for every span — count, total time, self time
    (duration minus the time covered by its children) and a latency
    histogram — while the raw span log is bounded: spans past
    [log_capacity] are counted as dropped and only reach the aggregates.
    Recording allocates nothing after the recorder is created. *)

type name =
  | Caller  (** per-thread root: the layer that calls the queue *)
  | Insert
  | Delete_min
  | Insert_batch
  | Delete_batch
  | Merge
  | Pivots
  | Prefix_view
  | Deque_push_pop
  | Deque_steal

let all_names =
  [
    Caller;
    Insert;
    Delete_min;
    Insert_batch;
    Delete_batch;
    Merge;
    Pivots;
    Prefix_view;
    Deque_push_pop;
    Deque_steal;
  ]

let index = function
  | Caller -> 0
  | Insert -> 1
  | Delete_min -> 2
  | Insert_batch -> 3
  | Delete_batch -> 4
  | Merge -> 5
  | Pivots -> 6
  | Prefix_view -> 7
  | Deque_push_pop -> 8
  | Deque_steal -> 9

let num_names = List.length all_names

let span_name = function
  | Caller -> "caller"
  | Insert -> "queue.insert"
  | Delete_min -> "queue.delete_min"
  | Insert_batch -> "queue.insert_batch"
  | Delete_batch -> "queue.delete_batch"
  | Merge -> "kernel.merge"
  | Pivots -> "kernel.pivots"
  | Prefix_view -> "kernel.prefix_view"
  | Deque_push_pop -> "kernel.deque_push_pop"
  | Deque_steal -> "kernel.deque_steal"

let name_of_index = Array.of_list all_names

(* Log-linear histogram: values below 16 get exact buckets, larger ones
   16 sub-buckets per power of two (about 6% resolution). *)
let sub = 16
let buckets = 64 * sub

let bucket v =
  if v < sub then max v 0
  else
    let e = ref 0 and x = ref v in
    while !x >= 2 * sub do
      x := !x lsr 1;
      incr e
    done;
    ((!e + 1) * sub) + (!x - sub)

let bucket_mid b =
  if b < sub then float_of_int b
  else
    let e = (b / sub) - 1 and m = b mod sub in
    let lo = (sub + m) lsl e in
    float_of_int lo +. (float_of_int ((1 lsl e) - 1) /. 2.)

let log_capacity = 1 lsl 16
let max_depth = 8

type thread = {
  tid : int;
  clock : unit -> int;  (** nanoseconds *)
  (* open-span stack *)
  st_name : int array;
  st_start : int array;
  st_child : int array;
  st_slot : int array;
  mutable depth : int;
  (* aggregates, indexed by span name *)
  count : int array;
  total : int array;
  self : int array;
  hist : int array array;
  (* raw log: name, start, end, parent slot, request id *)
  log : int array;
  mutable logged : int;
  mutable dropped : int;
}

let create ~clock tid =
  {
    tid;
    clock;
    st_name = Array.make max_depth 0;
    st_start = Array.make max_depth 0;
    st_child = Array.make max_depth 0;
    st_slot = Array.make max_depth (-1);
    depth = 0;
    count = Array.make num_names 0;
    total = Array.make num_names 0;
    self = Array.make num_names 0;
    hist = Array.init num_names (fun _ -> Array.make buckets 0);
    log = Array.make (5 * log_capacity) 0;
    logged = 0;
    dropped = 0;
  }

let enter t name ~req =
  let d = t.depth in
  if d >= max_depth then invalid_arg "Trace.enter: spans nested too deep";
  let n = index name in
  let now = t.clock () in
  t.st_name.(d) <- n;
  t.st_start.(d) <- now;
  t.st_child.(d) <- 0;
  if t.logged < log_capacity then begin
    let s = t.logged in
    t.logged <- s + 1;
    let o = 5 * s in
    t.log.(o) <- n;
    t.log.(o + 1) <- now;
    t.log.(o + 3) <- (if d = 0 then -1 else t.st_slot.(d - 1));
    t.log.(o + 4) <- req;
    t.st_slot.(d) <- s
  end
  else begin
    t.dropped <- t.dropped + 1;
    t.st_slot.(d) <- -1
  end;
  t.depth <- d + 1

(** Close the innermost open span at time [now]. *)
let leave_at t now =
  let d = t.depth - 1 in
  t.depth <- d;
  let n = t.st_name.(d) in
  let dur = now - t.st_start.(d) in
  t.count.(n) <- t.count.(n) + 1;
  t.total.(n) <- t.total.(n) + dur;
  t.self.(n) <- t.self.(n) + dur - t.st_child.(d);
  let h = t.hist.(n) in
  let b = bucket dur in
  h.(b) <- h.(b) + 1;
  if d > 0 then t.st_child.(d - 1) <- t.st_child.(d - 1) + dur;
  let s = t.st_slot.(d) in
  if s >= 0 then t.log.((5 * s) + 2) <- now

let leave t = leave_at t (t.clock ())

(** [span t name ~req f] runs [f ()] inside a span. *)
let span t name ~req f =
  enter t name ~req;
  match f () with
  | r ->
      leave t;
      r
  | exception e ->
      leave t;
      raise e

(* ---- summaries over a set of recorders ---- *)

let sum_over ts f = Array.fold_left (fun acc t -> acc + f t) 0 ts
let count ts name = sum_over ts (fun t -> t.count.(index name))
let total_ns ts name = sum_over ts (fun t -> t.total.(index name))
let self_ns ts name = sum_over ts (fun t -> t.self.(index name))

(** [percentile ts name p] over every span of [name], in ns; 0 when none. *)
let percentile ts name p =
  let n = index name in
  let merged = Array.make buckets 0 in
  Array.iter
    (fun t -> Array.iteri (fun i c -> merged.(i) <- merged.(i) + c) t.hist.(n))
    ts;
  let total = Array.fold_left ( + ) 0 merged in
  if total = 0 then 0.
  else begin
    let target = Float.to_int (Float.ceil (p /. 100. *. float_of_int total)) in
    let target = max 1 target in
    let acc = ref 0 and b = ref 0 in
    while !acc + merged.(!b) < target do
      acc := !acc + merged.(!b);
      incr b
    done;
    bucket_mid !b
  end

(** Write the raw spans as tab-separated lines
    [tid slot name start_ns end_ns parent request], where [parent] is the
    slot of the enclosing span within the same thread (-1 at a root).
    Returns (spans written, spans dropped). *)
let write_tsv path ts =
  let oc = open_out path in
  output_string oc "tid\tslot\tname\tstart_ns\tend_ns\tparent\treq\n";
  Array.iter
    (fun t ->
      for s = 0 to t.logged - 1 do
        let o = 5 * s in
        Printf.fprintf oc "%d\t%d\t%s\t%d\t%d\t%d\t%d\n" t.tid s
          (span_name name_of_index.(t.log.(o)))
          t.log.(o + 1)
          t.log.(o + 2)
          t.log.(o + 3)
          t.log.(o + 4)
      done)
    ts;
  close_out oc;
  (sum_over ts (fun t -> t.logged), sum_over ts (fun t -> t.dropped))
