(** Deterministic discrete-event concurrency simulator (see {!Backend_intf}).

    Virtual threads are effect-handler fibers multiplexed on the calling
    domain.  Every atomic access is a potential preemption point, so the
    fibers execute a genuine interleaving of the data-structure code: the
    same CAS failures, logical-deletion races and snapshot invalidations
    occur as on real hardware.  Two scheduling policies are provided:

    - [Fair] (default): discrete-event execution.  Each access advances the
      executing thread's virtual clock by a cache-coherence cost from
      {!Cost_model}, and the runnable fiber with the smallest clock always
      executes next.  Simulated makespan then models parallel wall time on a
      machine with [num_threads] cores, which is how the paper's 80-core
      throughput figures are reproduced on this 1-core container.
    - [Random_preempt p]: yield with probability [p] before every access and
      pick a uniformly random runnable fiber — a schedule fuzzer in the
      spirit of dscheck, used by the stress tests with many seeds.

    The simulator is single-domain; do not call its operations from several
    domains at once.  Atomic cells created or used outside {!parallel_run}
    degrade to plain (cost-free) accesses, which is convenient for setup and
    teardown code. *)

type policy = Fair | Random_preempt of float

type stats = {
  mutable reads : int;
  mutable writes : int;
  mutable cas : int;
  mutable cas_failures : int;
  mutable faa : int;
  mutable hits : int;
  mutable misses : int;
  mutable ticks : int;
  mutable switches : int;
}

let fresh_stats () =
  {
    reads = 0;
    writes = 0;
    cas = 0;
    cas_failures = 0;
    faa = 0;
    hits = 0;
    misses = 0;
    ticks = 0;
    switches = 0;
  }

type fiber_state =
  | Not_started
  | Suspended of (unit, unit) Effect.Deep.continuation
  | Running
  | Finished

type sim = {
  n : int;
  clocks : float array;
  states : fiber_state array;
  mutable current : int;
  mutable live : int;
  rng : Klsm_primitives.Xoshiro.t;
  cost : Cost_model.t;
  policy : policy;
  (* Min-heap over (virtual clock, tid) of runnable fibers ([Fair]). *)
  hp_key : float array;
  hp_tid : int array;
  mutable hp_size : int;
  (* Vector of runnable tids ([Random_preempt]). *)
  run_vec : int array;
  mutable run_len : int;
  st : stats;
  base_time : float;
  mutable failure : (int * exn) option;
  forced_cas : bool array;
      (* Per-thread "next CAS fails spuriously" flag, armed by the fault
         hook ({!arm_cas_failure}) and consumed by [compare_and_set]. *)
}

(* The simulator is single-domain, so one global context suffices.  [None]
   means "not inside parallel_run": atomic ops degrade to plain accesses. *)
let state : sim option ref = ref None
let global_time = ref 0.0
let last_stats = ref (fresh_stats ())
let last_makespan = ref 0.0
let default_seed = ref 0xC0FFEE
let default_cost = ref Cost_model.default
let default_policy = ref Fair

let configure ?seed ?cost ?policy () =
  Option.iter (fun s -> default_seed := s) seed;
  Option.iter (fun c -> default_cost := c) cost;
  Option.iter (fun p -> default_policy := p) policy

let stats () = !last_stats
let makespan () = !last_makespan

(* ---- optional event trace (debugging aid) ----

   A ring buffer of the most recent simulator events: which fiber performed
   which kind of access at which virtual time.  Costless when disabled. *)

type trace_kind =
  | T_read
  | T_write
  | T_cas_ok
  | T_cas_fail
  | T_faa
  | T_tick
  | T_switch

type trace_event = { tr_tid : int; tr_kind : trace_kind; tr_at : float }

let trace_tids = ref [||]
let trace_kinds = ref [||]
let trace_ats = ref [||]
let trace_len = ref 0  (* capacity; 0 = disabled *)
let trace_next = ref 0
let trace_count = ref 0

(** [set_trace n] keeps the last [n] events ([0] disables tracing). *)
let set_trace n =
  if n < 0 then invalid_arg "Sim.set_trace";
  trace_len := n;
  trace_next := 0;
  trace_count := 0;
  trace_tids := Array.make (max n 1) 0;
  trace_kinds := Array.make (max n 1) T_read;
  trace_ats := Array.make (max n 1) 0.0

let kind_name = function
  | T_read -> "read"
  | T_write -> "write"
  | T_cas_ok -> "cas"
  | T_cas_fail -> "cas-fail"
  | T_faa -> "faa"
  | T_tick -> "tick"
  | T_switch -> "switch"

(** Most recent events, oldest first. *)
let dump_trace () =
  let n = min !trace_count !trace_len in
  List.init n (fun i ->
      let idx = (!trace_next - n + i + !trace_len) mod !trace_len in
      {
        tr_tid = !trace_tids.(idx);
        tr_kind = !trace_kinds.(idx);
        tr_at = !trace_ats.(idx);
      })

exception Aborted

(* ---- fault injection (Backend_intf.fault_point; lib/chaos) ----

   The simulator exposes raw mechanisms only; policy (which site, which
   hit, which thread) lives in the plan interpreter of [Klsm_chaos.Chaos],
   installed through [set_fault_hook].  The hook runs on the faulting
   fiber itself, so it may charge virtual time ([relax_n]), arm a forced
   CAS failure, or kill the fiber ([kill_current]). *)

exception Killed
(** Raised by {!kill_current}: the fiber unwinds and is retired {e without}
    failing the run — the simulated thread simply dies mid-protocol, which
    is the whole point of crash injection. *)

let fault_hook : (string -> unit) option ref = ref None

(** Install ([Some f]) or remove ([None]) the handler consulted by every
    {!fault_point} hit inside [parallel_run]. *)
let set_fault_hook h = fault_hook := h

(** Executing thread's id inside [parallel_run]; [-1] outside. *)
let current_tid () = match !state with Some s -> s.current | None -> -1

(** [Backend_intf.S.self]: the dynamic thread identity.  All virtual
    threads share one domain here, which is exactly why the interface
    offers this instead of letting clients reach for [Domain.DLS]. *)
let self = current_tid

(** Make the calling thread's next [compare_and_set] fail as if another
    thread had won the race (charged and recorded as an ordinary CAS
    failure).  Only meaningful inside [parallel_run]. *)
let arm_cas_failure () =
  match !state with
  | Some s -> s.forced_cas.(s.current) <- true
  | None -> ()

(** Kill the calling fiber (see {!Killed}).  The run continues with the
    remaining fibers. *)
let kill_current () = raise Killed

let fault_point site =
  match !fault_hook with
  | None -> ()
  | Some f -> if !state <> None then f site

type _ Effect.t += Yield : unit Effect.t

(* ---- runnable-set operations ---- *)

let heap_push s key tid =
  let i = ref s.hp_size in
  s.hp_size <- s.hp_size + 1;
  s.hp_key.(!i) <- key;
  s.hp_tid.(!i) <- tid;
  let continue_up = ref true in
  while !continue_up && !i > 0 do
    let parent = (!i - 1) / 2 in
    if s.hp_key.(parent) > s.hp_key.(!i) then begin
      let k = s.hp_key.(parent) and t = s.hp_tid.(parent) in
      s.hp_key.(parent) <- s.hp_key.(!i);
      s.hp_tid.(parent) <- s.hp_tid.(!i);
      s.hp_key.(!i) <- k;
      s.hp_tid.(!i) <- t;
      i := parent
    end
    else continue_up := false
  done

let heap_pop s =
  if s.hp_size = 0 then -1
  else begin
    let top = s.hp_tid.(0) in
    s.hp_size <- s.hp_size - 1;
    if s.hp_size > 0 then begin
      s.hp_key.(0) <- s.hp_key.(s.hp_size);
      s.hp_tid.(0) <- s.hp_tid.(s.hp_size);
      let i = ref 0 in
      let continue_down = ref true in
      while !continue_down do
        let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
        let smallest = ref !i in
        if l < s.hp_size && s.hp_key.(l) < s.hp_key.(!smallest) then
          smallest := l;
        if r < s.hp_size && s.hp_key.(r) < s.hp_key.(!smallest) then
          smallest := r;
        if !smallest = !i then continue_down := false
        else begin
          let k = s.hp_key.(!i) and t = s.hp_tid.(!i) in
          s.hp_key.(!i) <- s.hp_key.(!smallest);
          s.hp_tid.(!i) <- s.hp_tid.(!smallest);
          s.hp_key.(!smallest) <- k;
          s.hp_tid.(!smallest) <- t;
          i := !smallest
        end
      done
    end;
    top
  end

let enqueue s tid =
  match s.policy with
  | Fair -> heap_push s s.clocks.(tid) tid
  | Random_preempt _ ->
      s.run_vec.(s.run_len) <- tid;
      s.run_len <- s.run_len + 1

let pick s =
  match s.policy with
  | Fair -> heap_pop s
  | Random_preempt _ ->
      if s.run_len = 0 then -1
      else begin
        let i = Klsm_primitives.Xoshiro.int s.rng s.run_len in
        let tid = s.run_vec.(i) in
        s.run_len <- s.run_len - 1;
        s.run_vec.(i) <- s.run_vec.(s.run_len);
        tid
      end

(* ---- cost accounting ---- *)

(* Cost-model values are in simulated nanoseconds; clocks are kept in
   seconds so that [time] has the same unit as the real backend.  Every
   charge carries seeded multiplicative noise (see {!Cost_model.jitter}) to
   break deterministic lockstep cycles. *)
let noise s c =
  c *. (1.0 +. (s.cost.jitter *. (Klsm_primitives.Xoshiro.float s.rng -. 0.5)))

let charge s c =
  s.clocks.(s.current) <- s.clocks.(s.current) +. (noise s c *. 1e-9)


let record s kind =
  if !trace_len > 0 then begin
    !trace_tids.(!trace_next) <- s.current;
    !trace_kinds.(!trace_next) <- kind;
    !trace_ats.(!trace_next) <- s.clocks.(s.current);
    trace_next := (!trace_next + 1) mod !trace_len;
    incr trace_count
  end

let maybe_yield s =
  match s.policy with
  | Fair ->
      if s.hp_size > 0 && s.hp_key.(0) < s.clocks.(s.current) then begin
        s.st.switches <- s.st.switches + 1;
        Effect.perform Yield
      end
  | Random_preempt p ->
      if s.run_len > 0 && Klsm_primitives.Xoshiro.float s.rng < p then begin
        s.st.switches <- s.st.switches + 1;
        Effect.perform Yield
      end

(* ---- atomic cells with per-line coherence metadata ----

   [writer] is the tid holding the line in exclusive/modified state (-1 for
   none); [readers] is a bitmask of tids (mod 62 — collisions above 62
   threads make the model slightly optimistic, which is harmless) that have
   read the line since the last write. *)

type 'a atomic = {
  mutable v : 'a;
  mutable writer : int;
  mutable readers : int;
  mutable busy_until : float;
      (* Cache-line ownership serialization: exclusive (write/RMW) accesses
         to one line cannot overlap in time on real coherence fabrics — the
         line bounces from core to core.  Each miss-ing exclusive access
         starts no earlier than [busy_until] and extends it, which is what
         makes hot spots (a lock word, the shared k-LSM pointer, a skiplist
         head) serialize instead of scaling. *)
}

let mask tid = 1 lsl (tid mod 62)

let make v = { v; writer = -1; readers = 0; busy_until = 0.0 }

(* Charge an exclusive (ownership-transferring) access: the access occupies
   the line for [c] ns starting no earlier than the line's previous release.
   Hits (already-owned lines) don't transfer ownership and skip this. *)
let charge_exclusive s a c =
  let start = Float.max s.clocks.(s.current) a.busy_until in
  let fin = start +. (noise s c *. 1e-9) in
  s.clocks.(s.current) <- fin;
  a.busy_until <- fin


let own s a =
  a.writer <- s.current;
  a.readers <- mask s.current

(* Shared (read) access: hits are free-ish; a miss must wait for the
   current exclusive holder to release the line ([busy_until]) and then pay
   the transfer, but concurrent readers do not serialize each other. *)
let read_access s a =
  let me = s.current in
  if a.writer = me || a.readers land mask me <> 0 then begin
    s.st.hits <- s.st.hits + 1;
    charge s s.cost.cache_hit
  end
  else begin
    s.st.misses <- s.st.misses + 1;
    let start = Float.max s.clocks.(me) a.busy_until in
    s.clocks.(me) <- start +. (noise s s.cost.cache_miss *. 1e-9)
  end;
  a.readers <- a.readers lor mask me

(* Exclusive (write/RMW) access: a miss transfers line ownership, which
   serializes on [busy_until] — the essence of why hot atomics do not
   scale. *)
let exclusive_access s a extra =
  let me = s.current in
  if a.writer = me && a.readers land lnot (mask me) = 0 then begin
    s.st.hits <- s.st.hits + 1;
    charge s (s.cost.cache_hit +. extra)
  end
  else begin
    s.st.misses <- s.st.misses + 1;
    charge_exclusive s a (s.cost.cache_miss +. extra)
  end;
  own s a

let get a =
  match !state with
  | None -> a.v
  | Some s ->
      maybe_yield s;
      s.st.reads <- s.st.reads + 1;
      read_access s a;
      record s T_read;
      a.v

let set a v =
  match !state with
  | None -> a.v <- v
  | Some s ->
      maybe_yield s;
      s.st.writes <- s.st.writes + 1;
      exclusive_access s a 0.0;
      record s T_write;
      a.v <- v

let compare_and_set a old nu =
  match !state with
  | None ->
      if a.v == old then begin
        a.v <- nu;
        true
      end
      else false
  | Some s ->
      maybe_yield s;
      s.st.cas <- s.st.cas + 1;
      if s.forced_cas.(s.current) then begin
        (* Injected spurious failure (see {!arm_cas_failure}): pay the same
           price a genuinely lost race would. *)
        s.forced_cas.(s.current) <- false;
        s.st.cas_failures <- s.st.cas_failures + 1;
        exclusive_access s a (s.cost.rmw_extra +. s.cost.cas_fail_extra);
        record s T_cas_fail;
        false
      end
      else if a.v == old then begin
        exclusive_access s a s.cost.rmw_extra;
        record s T_cas_ok;
        a.v <- nu;
        true
      end
      else begin
        (* A failed CAS still performs the read-for-ownership transfer. *)
        s.st.cas_failures <- s.st.cas_failures + 1;
        exclusive_access s a (s.cost.rmw_extra +. s.cost.cas_fail_extra);
        record s T_cas_fail;
        false
      end

let exchange a v =
  match !state with
  | None ->
      let old = a.v in
      a.v <- v;
      old
  | Some s ->
      maybe_yield s;
      s.st.cas <- s.st.cas + 1;
      exclusive_access s a s.cost.rmw_extra;
      let old = a.v in
      a.v <- v;
      old

let fetch_and_add a d =
  match !state with
  | None ->
      let old = a.v in
      a.v <- old + d;
      old
  | Some s ->
      maybe_yield s;
      s.st.faa <- s.st.faa + 1;
      exclusive_access s a s.cost.rmw_extra;
      record s T_faa;
      let old = a.v in
      a.v <- old + d;
      old

(* The flag is an ordinary charged cell in its own block: the simulated
   heap and the access sequence stay those of a record plus an atomic. *)
type 'v flagged = { key : int; value : 'v; flag : bool atomic }

let flagged key value = { key; value; flag = make false }
let flagged_key c = c.key
let flagged_value c = c.value
let get_flag c = get c.flag
let cas_flag c seen v = compare_and_set c.flag seen v

let tick n =
  match !state with
  | None -> ()
  | Some s ->
      s.st.ticks <- s.st.ticks + n;
      charge s (float_of_int n *. s.cost.work_unit);
      record s T_tick;
      maybe_yield s

let cpu_relax () =
  match !state with
  | None -> ()
  | Some s ->
      charge s s.cost.relax;
      maybe_yield s

let relax_n n =
  match !state with
  | None -> ()
  | Some s ->
      charge s (float_of_int n *. s.cost.relax);
      maybe_yield s

let yield () =
  match !state with
  | None -> ()
  | Some s ->
      let runnable =
        match s.policy with Fair -> s.hp_size > 0 | _ -> s.run_len > 0
      in
      if runnable then begin
        s.st.switches <- s.st.switches + 1;
        Effect.perform Yield
      end

(* ---- scheduler ---- *)

let run_fiber s tid thunk =
  Effect.Deep.match_with thunk ()
    {
      retc =
        (fun () ->
          s.states.(tid) <- Finished;
          s.live <- s.live - 1);
      exnc =
        (fun e ->
          s.states.(tid) <- Finished;
          s.live <- s.live - 1;
          (* [Killed] is an injected crash, not a bug: the fiber dies
             silently and the run carries on without it. *)
          if s.failure = None && e <> Aborted && e <> Killed then
            s.failure <- Some (tid, e));
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Yield ->
              Some
                (fun (k : (a, unit) Effect.Deep.continuation) ->
                  s.states.(tid) <- Suspended k;
                  enqueue s tid)
          | _ -> None);
    }

exception Thread_failure of int * exn

let name = "sim"

let parallel_run ~num_threads body =
  if num_threads < 1 then invalid_arg "Sim.parallel_run: num_threads < 1";
  if !state <> None then failwith "Sim.parallel_run: nested runs unsupported";
  let s =
    {
      n = num_threads;
      clocks = Array.make num_threads 0.0;
      states = Array.make num_threads Not_started;
      current = 0;
      live = num_threads;
      rng = Klsm_primitives.Xoshiro.create ~seed:!default_seed;
      cost = !default_cost;
      policy = !default_policy;
      hp_key = Array.make num_threads 0.0;
      hp_tid = Array.make num_threads 0;
      hp_size = 0;
      run_vec = Array.make num_threads 0;
      run_len = 0;
      st = fresh_stats ();
      base_time = !global_time;
      failure = None;
      forced_cas = Array.make num_threads false;
    }
  in
  for tid = 0 to num_threads - 1 do
    enqueue s tid
  done;
  state := Some s;
  let rec loop () =
    if s.failure = None then begin
      match pick s with
      | -1 -> ()
      | tid -> (
          s.current <- tid;
          (match s.states.(tid) with
          | Not_started ->
              s.states.(tid) <- Running;
              run_fiber s tid (fun () -> body tid)
          | Suspended k ->
              s.states.(tid) <- Running;
              Effect.Deep.continue k ()
          | Running | Finished -> assert false);
          loop ())
    end
  in
  loop ();
  (* On failure, unwind every still-suspended fiber so their resources die. *)
  Array.iteri
    (fun tid st ->
      match st with
      | Suspended k -> (
          s.current <- tid;
          try Effect.Deep.discontinue k Aborted with _ -> ())
      | Not_started | Running | Finished -> ())
    s.states;
  state := None;
  let makespan = Array.fold_left Float.max 0.0 s.clocks in
  global_time := s.base_time +. makespan;
  last_stats := s.st;
  last_makespan := makespan;
  match s.failure with
  | Some (tid, e) -> raise (Thread_failure (tid, e))
  | None -> ()

let time () =
  match !state with
  | Some s -> s.base_time +. s.clocks.(s.current)
  | None -> !global_time
