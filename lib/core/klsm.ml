(** The k-LSM relaxed priority queue — the paper's headline data structure
    (§4.3, Listing 5): one distributed LSM per thread for batching and
    local work, plus a single shared k-LSM for global (relaxed) ordering,
    plus a victim array for spying.

    Guarantees (paper §5): [insert] and [try_delete_min] are lock-free and
    linearizable with structural rho-relaxation, rho = T*k — a delete-min
    never skips more than [T*k] keys — while items inserted and deleted by
    the same thread obey exact priority-queue semantics (local ordering).

    [k] is runtime-configurable through {!set_k}.  The optional
    [should_delete] predicate implements §4.5's lazy deletion: condemned
    items are filtered out whenever blocks are copied, merged or shrunk —
    the mechanism the SSSP benchmark uses in place of decrease-key. *)

module Make (B : Klsm_backend.Backend_intf.S) = struct
  module Item = Item.Make (B)
  module Block = Block.Make (B)
  module Block_array = Block_array.Make (B)
  module Shared_klsm = Shared_klsm.Make (B)
  module Dist_lsm = Dist_lsm.Make (B)
  module Xoshiro = Klsm_primitives.Xoshiro
  module Tabular_hash = Klsm_primitives.Tabular_hash
  module Obs = Klsm_obs.Obs

  let name = "k-lsm"

  (* Observability of the Listing 5 composition layer (lib/obs;
     docs/METRICS.md): claim races and the two fallback paths of
     delete-min. *)
  let c_take_race = Obs.counter "klsm.take_race"
  let c_delete_local = Obs.counter "klsm.delete_local"
  let c_delete_shared = Obs.counter "klsm.delete_shared"
  let c_delete_empty = Obs.counter "klsm.delete_empty"
  let c_spy_attempt = Obs.counter "klsm.spy_attempt"
  let c_spy_success = Obs.counter "klsm.spy_success"

  (** A durability hook (lib/store): applied to every block headed for the
      shared component; may replace it with a cold, store-backed twin
      ([Spill.policy]).  [alive] lets the policy skip condemned items;
      [tid] routes its journal appends to the calling thread's log. *)
  type 'v spill_policy =
    alive:('v Item.t -> bool) -> tid:int -> 'v Block.t -> 'v Block.t

  type 'v t = {
    shared : 'v Shared_klsm.t;
    dists : 'v Dist_lsm.t option B.atomic array;  (** victims, §4.3 *)
    num_threads : int;
    seed : int;
    hasher : Tabular_hash.t;
    alive : 'v Item.t -> bool;
    spill_max_level : int option;
        (** ablation override of the §4.3 spill threshold *)
    spill_policy : 'v spill_policy option;
    obs : Obs.sheet;  (** per-thread internal event counters (lib/obs) *)
  }

  type 'v handle = {
    t : 'v t;
    tid : int;
    dist : 'v Dist_lsm.t;
    shared_h : 'v Shared_klsm.handle;
    share : 'v Block.t -> unit;
        (** publish a block into the shared component through the
            durability policy pre-applied to this thread; every path a
            block takes into [t.shared] funnels here.  Built once at
            registration, so it doubles as the DistLSM spill callback
            without a closure per insert. *)
    rng : Xoshiro.t;
    obs : Obs.handle;
    pool : 'v Block.Pool.t;
        (** this thread's block pool, shared by [dist] and [shared_h] so
            blocks retired on either path feed both (§4.4 reuse) *)
  }

  let create_with ?(seed = 1) ?(k = 256) ?should_delete ?on_lazy_delete
      ?spill_max_level ?spill_policy ?(local_ordering = true) ~num_threads () =
    if num_threads < 1 then invalid_arg "Klsm.create: num_threads < 1";
    let hasher = Tabular_hash.create ~seed:(seed lxor 0x5eed) in
    let alive =
      match should_delete with
      | None -> fun it -> not (Item.is_taken it)
      | Some p ->
          (* A condemned item is claimed through its [taken] flag before the
             hook runs, so [on_lazy_delete] fires exactly once per item even
             though liveness is re-checked on every copy/merge/peek (and the
             item may appear in several blocks via spying). *)
          let hook =
            match on_lazy_delete with Some f -> f | None -> fun _ _ -> ()
          in
          fun it ->
            if Item.is_taken it then false
            else if p (Item.key it) (Item.value it) then begin
              if Item.take it then hook (Item.key it) (Item.value it);
              false
            end
            else true
    in
    {
      shared = Shared_klsm.create ~k ~local_ordering ~hasher ~alive ();
      dists = Array.init num_threads (fun _ -> B.make None);
      num_threads;
      seed;
      hasher;
      alive;
      spill_max_level;
      spill_policy;
      obs = Obs.create_sheet ~now:B.time ~num_threads ();
    }

  let create ?seed ~num_threads () = create_with ?seed ~num_threads ()

  let get_k t = Shared_klsm.get_k t.shared
  let set_k t k = Shared_klsm.set_k t.shared k

  (** Internal-counter snapshot (see {!Pq_intf.S.stats}). *)
  let stats (t : _ t) = Obs.snapshot t.obs

  let register t tid =
    if tid < 0 || tid >= t.num_threads then invalid_arg "Klsm.register: tid";
    let rng = Xoshiro.create ~seed:(t.seed + (1000003 * (tid + 1))) in
    let obs = Obs.handle t.obs ~tid in
    let pool = Block.Pool.create ~obs () in
    let dist =
      Dist_lsm.create ~obs ~pool ~tid ~hasher:t.hasher ~alive:t.alive ()
    in
    B.set t.dists.(tid) (Some dist);
    let shared_h =
      Shared_klsm.register ~obs ~pool t.shared ~tid ~rng:(Xoshiro.split rng)
    in
    {
      t;
      tid;
      dist;
      shared_h;
      share =
        (match t.spill_policy with
        | None -> Shared_klsm.insert shared_h
        | Some p ->
            fun block ->
              Shared_klsm.insert shared_h (p ~alive:t.alive ~tid block));
      rng;
      obs;
      pool;
    }

  (** Insert a block directly into the shared component (recovery path:
      [Spill.recover] links rebuilt cold blocks through this). *)
  let adopt_block h block = h.share block

  (** Insert a key (§4.3): a fresh item goes into the thread-local LSM; if
      the merge cascade produces a block too large to stay local (level
      beyond [floor(log2 k) - 1]), that block is bulk-inserted into the
      shared k-LSM — batching that makes shared updates ~k times rarer. *)
  let insert h key value =
    if key < 0 then invalid_arg "Klsm.insert: negative key";
    let item = Item.make key value in
    let max_level =
      match h.t.spill_max_level with
      | Some l -> l
      | None -> Dist_lsm.max_level_for_k (Shared_klsm.get_k h.t.shared)
    in
    Dist_lsm.insert h.dist item ~max_level ~spill:h.share

  (** Bulk insertion: a whole batch becomes one sorted block inserted into
      the shared component with a single CAS — the LSM's natural strength
      (§4.1 reduces shared updates by batching; this exposes the mechanism
      to applications that produce keys in bursts, e.g. node expansions).
      Linearizes once for the entire batch. *)
  let insert_batch h pairs =
    match Array.length pairs with
    | 0 -> ()
    | 1 ->
        let key, value = pairs.(0) in
        insert h key value
    | _ ->
        Array.iter
          (fun (key, _) ->
            if key < 0 then invalid_arg "Klsm.insert_batch: negative key")
          pairs;
        let block =
          Block.of_pairs ~pool:h.pool
            ~filter:(Klsm_primitives.Bloom.singleton ~hasher:h.t.hasher h.tid)
            pairs
        in
        h.share block

  (* Spy on one random other thread (Listing 5's fallback when both
     components look empty). *)
  let spy_once h =
    if h.t.num_threads <= 1 then false
    else begin
      let victim_tid =
        let r = Xoshiro.int h.rng (h.t.num_threads - 1) in
        if r >= h.tid then r + 1 else r
      in
      match B.get h.t.dists.(victim_tid) with
      | None -> false
      | Some victim -> Dist_lsm.spy h.dist ~victim
    end

  (* One round of Listing 5's race: the thread-local minimum against the
     shared k-LSM's relaxed minimum, then the test-and-set; a lost race
     retries.  [None] = both components look empty. *)
  let rec take_loop h =
    let local = Dist_lsm.find_min h.dist in
    let shared = Shared_klsm.find_min h.shared_h in
    (* [from_shared] records which component supplied the winning
       candidate — the split the paper's §4.3 design argument is about
       (most deletes should be served locally). *)
    match (local, shared) with
    | None, None -> None
    | None, Some sh -> take h sh ~from_shared:true
    | Some it, Some sh when Item.key sh < Item.key it ->
        take h sh ~from_shared:true
    | Some it, _ -> take h it ~from_shared:false

  and take h item ~from_shared =
    if Item.take item then begin
      Obs.incr h.obs (if from_shared then c_delete_shared else c_delete_local);
      Some (Item.key item, Item.value item)
    end
    else begin
      Obs.incr h.obs c_take_race;
      take_loop h
    end

  (** Listing 5's [delete_min]: race the thread-local minimum against the
      shared k-LSM's relaxed minimum, attempt the test-and-set, retry on
      lost races, and spy on other threads' local LSMs before reporting
      empty.  Lock-free: every retry implies another thread succeeded. *)
  let rec try_delete_min h =
    match take_loop h with
    | Some _ as kv -> kv
    | None ->
        (* §4.2 requires spy to start from an empty local LSM; ours may
           still hold logically deleted items, so clean it first. *)
        Dist_lsm.consolidate h.dist;
        Obs.incr h.obs c_spy_attempt;
        if spy_once h then begin
          Obs.incr h.obs c_spy_success;
          try_delete_min h
        end
        else begin
          Obs.incr h.obs c_delete_empty;
          None
        end

  (** Batched delete-min (DESIGN.md §17): when the shared component holds
      the minimum, claim a whole run of it with one CAS
      ({!Shared_klsm.try_pop_batch}) capped at the local minimum so every
      returned key is one [try_delete_min] could have returned at its
      position; local wins are taken one at a time (they are already
      CAS-free).  Returns up to [n] items ascending; short batches mean the
      queue looked empty mid-run (same contract as a spurious [None]). *)
  let try_delete_min_batch h n =
    if n <= 0 then []
    else begin
      let out = ref [] (* descending *) and got = ref 0 in
      let rec go () =
        if !got < n then begin
          let local = Dist_lsm.find_min h.dist in
          let shared = Shared_klsm.find_min h.shared_h in
          (* Local at least ties — same arbitration as the single-pop race
             (ties go local). *)
          let take_local it =
            if Item.take it then begin
              Obs.incr h.obs c_delete_local;
              out := (Item.key it, Item.value it) :: !out;
              incr got
            end
            else Obs.incr h.obs c_take_race;
            go ()
          in
          match (local, shared) with
          | Some it, None -> take_local it
          | Some it, Some s when Item.key it <= Item.key s -> take_local it
          | _, Some s -> (
              let limit =
                match local with Some it -> Item.key it | None -> max_int
              in
              match
                Shared_klsm.try_pop_batch h.shared_h ~limit (n - !got)
              with
              | [] ->
                  (* Contended or stale view: fall back to a single take. *)
                  if Item.take s then begin
                    Obs.incr h.obs c_delete_shared;
                    out := (Item.key s, Item.value s) :: !out;
                    incr got
                  end
                  else Obs.incr h.obs c_take_race;
                  go ()
              | kvs ->
                  List.iter
                    (fun kv ->
                      Obs.incr h.obs c_delete_shared;
                      out := kv :: !out;
                      incr got)
                    kvs;
                  go ())
          | None, None ->
              (* Both empty: one spy round, then report the short batch. *)
              Dist_lsm.consolidate h.dist;
              Obs.incr h.obs c_spy_attempt;
              if spy_once h then begin
                Obs.incr h.obs c_spy_success;
                go ()
              end
              else Obs.incr h.obs c_delete_empty
        end
      in
      go ();
      List.rev !out
    end

  (** Relaxed peek (the paper's try_find_min interface extension, §4):
      returns a key/value among the rho+1 smallest without deleting it.
      The item may be deleted concurrently right after (or even just
      before) the return — peeking is inherently advisory on a concurrent
      queue. *)
  let try_find_min h =
    let local = Dist_lsm.find_min h.dist in
    let shared = Shared_klsm.find_min h.shared_h in
    let candidate =
      match (local, shared) with
      | None, sh -> sh
      | Some it, Some sh when Item.key sh < Item.key it -> Some sh
      | Some _, _ -> local
    in
    Option.map (fun it -> (Item.key it, Item.value it)) candidate

  (** Meld (paper §4.5): move every item of [src] into the queue behind
      [h], at block granularity — merging "lies at the heart of the LSM
      idea".  As in the paper, this is NOT linearizable: the caller must
      have exclusive access to [src] for the duration (concurrent
      operations on the destination are fine).  Adopted blocks get the
      conservative all-threads Bloom filter, since [src]'s filters were
      built with a different hash function. *)
  let meld h ~src =
    let adopt block =
      if not (Block.is_empty block) then begin
        let b = Block.copy ~alive:h.t.alive block (Block.level block) in
        b.Block.filter <- Klsm_primitives.Bloom.full;
        let b = Block.shrink ~alive:h.t.alive b in
        if not (Block.is_empty b) then h.share b
      end
    in
    List.iter adopt (Shared_klsm.steal_all src.shared);
    Array.iter
      (fun slot ->
        match B.get slot with
        | Some d -> List.iter adopt (Dist_lsm.steal_all d)
        | None -> ())
      src.dists

  (** Force a cleanup of the thread-local component; exposed because the
      lazy-deletion predicate can strand condemned items until the next
      natural merge. *)
  let consolidate_local h = Dist_lsm.consolidate h.dist

  (** Number of items currently held (counting not-yet-cleaned deleted
      items); the paper allows this to be off by rho. *)
  let approximate_size t =
    let acc = ref (Shared_klsm.approximate_size t.shared) in
    Array.iter
      (fun slot ->
        match B.get slot with
        | Some d -> acc := !acc + Dist_lsm.total_filled d
        | None -> ())
      t.dists;
    !acc

  (* Internal accessors for white-box tests. *)
  let internal_shared t = t.shared
  let internal_dist h = h.dist
end

(** The deployment instantiation on OCaml domains. *)
module Default = Make (Klsm_backend.Real)

(* Static conformance: the combined queue implements the common interface. *)
module _ : Pq_intf.S = Default
