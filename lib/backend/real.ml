(** Deployment backend: [Stdlib.Atomic] + [Domain]. See {!Backend_intf}. *)

let name = "real"

type 'a atomic = 'a Atomic.t

let make = Atomic.make
let get = Atomic.get
let set = Atomic.set
let compare_and_set = Atomic.compare_and_set
let exchange = Atomic.exchange
let fetch_and_add = Atomic.fetch_and_add

(* The flag is field 0 of the record and is only ever accessed through
   [Atomic] primitives, by the one cast below: OCaml 5.1 has no atomic
   record fields, and the [Atomic] primitives address field 0 of their
   argument whatever its size (the same representation fact
   [Padded.copy_as_padded] relies on).  [mutable] keeps the compiler from
   treating the block as immutable.  On OCaml >= 5.4 this becomes an
   [[@atomic]] field. *)
type 'v flagged = { mutable flag : bool; key : int; value : 'v }

let flag_cell (c : 'v flagged) : bool Atomic.t = Obj.magic c
let flagged key value = { flag = false; key; value }
let flagged_key c = c.key
let flagged_value c = c.value
let get_flag c = Atomic.get (flag_cell c)
let cas_flag c seen v = Atomic.compare_and_set (flag_cell c) seen v
let tick _ = ()
let cpu_relax = Domain.cpu_relax

let relax_n n =
  for _ = 1 to n do
    Domain.cpu_relax ()
  done

(* A genuine scheduling yield: on machines with fewer cores than domains
   (this container has one), spinning with cpu_relax alone starves the
   domain that holds the work for a whole OS timeslice.  A sub-millisecond
   sleep releases the core. *)
let yield () = Unix.sleepf 1e-4

(* Fault injection is a simulator facility; deployment code pays nothing. *)
let fault_point _ = ()

exception Thread_failure of int * exn

(* One worker per domain, so domain-local storage is the right carrier for
   the dynamic thread index (unlike on Sim, where every virtual thread
   shares one domain and [self] must come from the scheduler). *)
let self_key : int Domain.DLS.key = Domain.DLS.new_key (fun () -> -1)
let self () = Domain.DLS.get self_key

let parallel_run ~num_threads body =
  if num_threads < 1 then invalid_arg "parallel_run: num_threads < 1";
  let wrap tid () =
    let saved = Domain.DLS.get self_key in
    Domain.DLS.set self_key tid;
    let r = try Ok (body tid) with e -> Error (tid, e) in
    Domain.DLS.set self_key saved;
    r
  in
  if num_threads = 1 then
    match wrap 0 () with Ok () -> () | Error (tid, e) -> raise (Thread_failure (tid, e))
  else begin
    (* Thread 0 runs on the calling domain so that [parallel_run] composes
       with callers that already hold per-run state on the current stack. *)
    let domains =
      Array.init (num_threads - 1) (fun i -> Domain.spawn (wrap (i + 1)))
    in
    let r0 = wrap 0 () in
    let results = Array.map Domain.join domains in
    let reraise = function
      | Ok () -> ()
      | Error (tid, e) -> raise (Thread_failure (tid, e))
    in
    reraise r0;
    Array.iter reraise results
  end

let time () = Unix.gettimeofday ()
