(** The standalone distributed LSM priority queue — "DLSM" in Figure 3:
    the k-LSM without its shared component, i.e. purely thread-local LSMs
    plus spying (§4.2).  It provides local ordering semantics only (no
    global rho bound), in exchange for embarrassingly-parallel scaling. *)

module Make (B : Klsm_backend.Backend_intf.S) = struct
  module Item = Item.Make (B)
  module Dist_lsm = Dist_lsm.Make (B)
  module Xoshiro = Klsm_primitives.Xoshiro
  module Tabular_hash = Klsm_primitives.Tabular_hash
  module Obs = Klsm_obs.Obs

  let name = "dlsm"

  (* Observability (lib/obs; docs/METRICS.md).  The component-level events
     (merges, spies) are counted inside {!Dist_lsm}; these cover the
     composition layer. *)
  let c_take_race = Obs.counter "dlsm.take_race"
  let c_spy_attempt = Obs.counter "dlsm.spy_attempt"
  let c_spy_success = Obs.counter "dlsm.spy_success"
  let c_delete_empty = Obs.counter "dlsm.delete_empty"

  type 'v t = {
    dists : 'v Dist_lsm.t option B.atomic array;
    num_threads : int;
    seed : int;
    hasher : Tabular_hash.t;
    alive : 'v Item.t -> bool;
    obs : Obs.sheet;
  }

  type 'v handle = {
    t : 'v t;
    tid : int;
    dist : 'v Dist_lsm.t;
    rng : Xoshiro.t;
    obs : Obs.handle;
  }

  let create_with ?(seed = 1) ?should_delete ?on_lazy_delete ~num_threads () =
    if num_threads < 1 then invalid_arg "Dlsm.create: num_threads < 1";
    let alive =
      match should_delete with
      | None -> fun it -> not (Item.is_taken it)
      | Some p ->
          (* Exactly-once drop notification via the [taken] CAS; see the
             same construction in {!Klsm.create_with}. *)
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
      dists = Array.init num_threads (fun _ -> B.make None);
      num_threads;
      seed;
      hasher = Tabular_hash.create ~seed:(seed lxor 0x5eed);
      alive;
      obs = Obs.create_sheet ~now:B.time ~num_threads ();
    }

  let create ?seed ~num_threads () = create_with ?seed ~num_threads ()

  (** Internal-counter snapshot (see {!Pq_intf.S.stats}). *)
  let stats (t : _ t) = Obs.snapshot t.obs

  let register t tid =
    if tid < 0 || tid >= t.num_threads then invalid_arg "Dlsm.register: tid";
    let rng = Xoshiro.create ~seed:(t.seed + (1000003 * (tid + 1))) in
    let obs = Obs.handle t.obs ~tid in
    let dist = Dist_lsm.create ~obs ~tid ~hasher:t.hasher ~alive:t.alive () in
    B.set t.dists.(tid) (Some dist);
    { t; tid; dist; rng; obs }

  let insert h key value =
    if key < 0 then invalid_arg "Dlsm.insert: negative key";
    (* Nothing ever spills: blocks may grow to any level. *)
    Dist_lsm.insert h.dist (Item.make key value) ~max_level:max_int
      ~spill:(fun _ -> assert false)

  (* Batched insert (Pq_intf): the thread-local LSM already amortizes
     merges across consecutive inserts, so the fallback loop is the bulk
     path. *)
  let insert_batch h pairs =
    Array.iter (fun (key, value) -> insert h key value) pairs

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

  let rec take_loop h =
    match Dist_lsm.find_min h.dist with
    | None -> None
    | Some item ->
        if Item.take item then Some (Item.key item, Item.value item)
        else begin
          Obs.incr h.obs c_take_race;
          take_loop h
        end

  let rec try_delete_min h =
    match take_loop h with
    | Some _ as kv -> kv
    | None ->
        (* Spy must start from an empty local LSM (§4.2): clean out
           logically deleted leftovers first. *)
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

  (* Batched delete (Pq_intf): the distributed LSM has no shared component
     to claim a run from; plain loop. *)
  let try_delete_min_batch h n =
    let rec go acc got =
      if got >= n then List.rev acc
      else
        match try_delete_min h with
        | Some kv -> go (kv :: acc) (got + 1)
        | None -> List.rev acc
    in
    go [] 0

  let approximate_size t =
    let acc = ref 0 in
    Array.iter
      (fun slot ->
        match B.get slot with
        | Some d -> acc := !acc + Dist_lsm.total_filled d
        | None -> ())
      t.dists;
    !acc
end

module Default = Make (Klsm_backend.Real)
module _ : Pq_intf.S = Default
