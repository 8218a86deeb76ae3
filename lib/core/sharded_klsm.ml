(** The contention-striped k-LSM: the combined queue of {!Klsm} with its
    single shared component split into [S] independent {!Shared_klsm}
    stripes (DESIGN.md §12), hardened with the MultiQueue-style contention
    engineering of DESIGN.md §15.

    The paper's shared k-LSM serializes every spill and consolidation
    through one atomic [shared] pointer (§4.1, Listing 3); at high thread
    counts that CAS convoy — not thread-local work — caps throughput
    (Gruber/Träff/Wimmer, arXiv:1603.05047).  This module removes the
    convoy the way MultiQueue-style designs do (arXiv:1509.07053), but
    inside the k-LSM's bounded-relaxation contract:

    - the global budget [k] is partitioned as [ceil(k / S)] per stripe, so
      each stripe is an ordinary shared k-LSM with a smaller relaxation;
    - every thread has a {e home} stripe its spills go to (preserving the
      per-stripe publication ordering Listing 4 relies on);
    - [find_min] races the thread-local DistLSM minimum against a
      {e primary} stripe and — only when a stripe's
      {!Shared_klsm.min_hint} says it might hold something smaller — the
      remaining stripes (scanned from a rotating offset so ties don't
      starve), which is what keeps the rank bound
      rho <= (T + S) * ceil(k / S) provable rather than probabilistic
      (derivation in DESIGN.md §12); when every hint sits at or above the
      local candidate the race is skipped outright — S atomic loads serve
      the common local-delete path;
    - a per-thread {e candidate cache} reuses the last raced winner until
      its deletion flag is seen set or some stripe publishes state that
      could beat it — amortizing the cross-stripe race across consecutive
      delete-mins exactly as Listing 3's [observed] field amortizes
      snapshot refreshes;
    - failed snapshot CASes feed a per-stripe decorrelated-jitter
      {!Klsm_primitives.Backoff}, and a burst of consecutive failures on
      the home stripe triggers {e migration} to the next stripe.

    The §15 contention knobs, all off by default (the defaults reproduce
    the PR 5 behaviour bit-for-bit on the simulator):

    - {e stickiness} ([~sticky:W], W >= 1): after a delete-min is served
      from a stripe, the next W races consult that stripe {e first}
      instead of the home stripe.  The hint-gated scan over the other
      stripes is unchanged, so the rank bound is untouched — the win is
      that the primary consult targets the stripe most likely to still
      hold the minimum, whose fresh result then hint-skips the rest.  A
      failed publish CAS halves the remaining window (contention means the
      sticky stripe is being fought over);
    - {e insertion buffering} ([~buf:B], B >= 1): inserts gather in a
      per-handle buffer of at most B items and enter the thread-local LSM
      in a burst — flushed when the buffer fills, when a delete-min or
      find-min needs a buffered key (the buffered minimum undercuts the
      local LSM minimum), or when the oldest buffered item has waited
      {!buffer_age_bound} of its owner's operations.  Buffered items are
      charged against the {e local} relaxation budget: the LSM spill
      threshold drops to ceil(k/S) - B, so local LSM + buffer together
      never exceed the ceil(k/S) per-thread term of the rank bound;
    - {e adaptive striping} ([~adapt:(lo, hi)], powers of two): the stripe
      array is allocated at [hi], but spills target only the first
      {e active} stripes.  The active count starts at [~shards] and is
      doubled/halved between [lo] and [hi] by a CAS when a handle's
      observed publish-CAS failure rate over a {!adapt_window}-publish
      window crosses the grow/shrink watermarks.  Deactivated stripes
      drain naturally: the find-min race always covers all [hi] stripes,
      so no migration ever moves items — a resize only redirects future
      spills, with re-homing routed through the same [migrate_pending]
      latch as contention migration (acted on after the in-flight publish
      completes).  The rank bound is the (T + hi) * ceil(k / hi) of the
      full array;
    - every stripe's contended atomics are cache-line padded
      ({!Klsm_primitives.Padded}; [~padded:true] to {!Shared_klsm.create}).

    With [S = 1] and the knobs off the structure degenerates to the
    paper's k-LSM (one stripe, no second chance, no migration). *)

module Make (B : Klsm_backend.Backend_intf.S) = struct
  module Item = Item.Make (B)
  module Block = Block.Make (B)
  module Block_array = Block_array.Make (B)
  module Shared_klsm = Shared_klsm.Make (B)
  module Dist_lsm = Dist_lsm.Make (B)
  module Backoff = Klsm_primitives.Backoff
  module Xoshiro = Klsm_primitives.Xoshiro
  module Tabular_hash = Klsm_primitives.Tabular_hash
  module Obs = Klsm_obs.Obs

  let name = "klsm-sharded"

  (* Observability (lib/obs; docs/METRICS.md).  The composition layer
     reuses the klsm.* names of {!Klsm} (same Listing 5 roles); the
     stripe.* family is specific to the sharded design. *)
  let c_take_race = Obs.counter "klsm.take_race"
  let c_delete_local = Obs.counter "klsm.delete_local"
  let c_delete_shared = Obs.counter "klsm.delete_shared"
  let c_delete_empty = Obs.counter "klsm.delete_empty"
  let c_spy_attempt = Obs.counter "klsm.spy_attempt"
  let c_spy_success = Obs.counter "klsm.spy_success"
  let c_stripe_cas_fail = Obs.counter "stripe.cas_fail"
  let c_migrate = Obs.counter "stripe.migrate"
  let c_cache_hit = Obs.counter "stripe.cache_hit"
  let c_cache_miss = Obs.counter "stripe.cache_miss"
  let c_hint_consult = Obs.counter "stripe.hint_consult"
  let c_hint_skip = Obs.counter "stripe.hint_skip"
  let c_sticky_hit = Obs.counter "stripe.sticky_hit"
  let c_buffer_flush = Obs.counter "stripe.buffer_flush"
  let c_resize = Obs.counter "stripe.resize"
  let c_dbuf_hit = Obs.counter "stripe.dbuf_hit"
  let c_dbuf_flush = Obs.counter "stripe.dbuf_flush"

  (** Per-stripe relaxation: the global budget split evenly, rounded up so
      S stripes never under-spend the contract ([S * ceil(k/S) >= k]). *)
  let stripe_k ~k ~shards = (k + shards - 1) / shards

  (** Consecutive home-stripe CAS failures that trigger migration.  Failures
      within one publish attempt burst are the signature of a convoy; 8 of
      them in a row mean at least 8 other threads hammered the same stripe
      while we starved. *)
  let migrate_threshold = 8

  (** Age bound of the insertion buffer, in operations of the owning
      handle: an item buffered while its owner performs this many further
      operations is force-flushed on the next one, bounding how long it
      stays invisible to spies and other threads' races.  (The rank bound
      never depends on this — buffered items are pre-charged against the
      local budget — it is a quality/liveness hygiene bound.) *)
  let buffer_age_bound = 64

  (** Publish outcomes a handle accumulates before consulting the adaptive
      resize watermarks (below).  Small enough to react within one chaos
      storm, large enough that a single lost race cannot flap the stripe
      count. *)
  let adapt_window = 32

  (* Adaptive watermarks, as fail/attempt rate over one window: grow the
     active stripe set at >= 1/2 (every other publish loses its CAS —
     a convoy), shrink at <= 1/8 (contention is paid for by extra hint
     consults with nothing to show for it). *)
  let adapt_grow_watermark fails seen = 2 * fails >= seen
  let adapt_shrink_watermark fails seen = 8 * fails <= seen

  let is_pow2 n = n > 0 && n land (n - 1) = 0

  (** Durability hook; same shape as {!Klsm.Make.spill_policy} (the types
      are equal through the applicative functor). *)
  type 'v spill_policy =
    alive:('v Item.t -> bool) -> tid:int -> 'v Block.t -> 'v Block.t

  type 'v t = {
    stripes : 'v Shared_klsm.t array;
    dists : 'v Dist_lsm.t option B.atomic array;  (** victims, §4.3 *)
    num_threads : int;
    num_stripes : int;  (** allocated stripes ([adapt]'s upper target) *)
    k : int B.atomic;  (** global relaxation budget *)
    seed : int;
    hasher : Tabular_hash.t;
    alive : 'v Item.t -> bool;
    spill_max_level : int option;
        (** ablation override of the §4.3 spill threshold *)
    spill_policy : 'v spill_policy option;
        (** durability hook (lib/store); see {!Klsm.Make.spill_policy} *)
    sticky_window : int;  (** stickiness window W; 0 = off *)
    buf_cap : int;  (** insertion-buffer capacity B; 0 = off *)
    dbuf_cap : int;
        (** deletion batch size B (DESIGN.md §17): shared deletes claim up
            to B items with one publish CAS, serving B - 1 follow-ups from
            the owner's deletion buffer; 0 = off *)
    adapt : (int * int) option;
        (** adaptive active-stripe-count targets (lo, hi); [None] = fixed *)
    active : int B.atomic;
        (** spill-target stripe count, in [lo, hi]; only consulted when
            [adapt] is set (padded — it is CASed under contention) *)
    obs : Obs.sheet;
  }

  type 'v handle = {
    t : 'v t;
    tid : int;
    dist : 'v Dist_lsm.t;
    spill_tx : 'v Block.t -> 'v Block.t;
        (** the spill policy pre-applied to this thread *)
    spill : 'v Block.t -> unit;
        (** {!spill_to_home} on this handle, built once at registration:
            the DistLSM spill callback, without a closure per insert *)
    stripe_hs : 'v Shared_klsm.handle array;  (** one handle per stripe *)
    mutable home : int;  (** current home stripe (spill target) *)
    mutable rr : int;  (** second-chance rotation counter *)
    mutable fail_streak : int;
        (** consecutive snapshot-CAS failures on the home stripe *)
    mutable migrate_pending : bool;
        (** latched when [fail_streak] crossed {!migrate_threshold} or the
            active stripe count moved under this handle's home; acted on
            after the in-flight publish completes (a publish retries on
            its stripe until it wins — migration applies to the next
            spill) *)
    backoffs : Backoff.t array;
        (** per-stripe decorrelated-jitter backoff, driven by the
            {!Shared_klsm} CAS hooks *)
    mutable cached : 'v Item.t option;  (** delete-min candidate cache *)
    mutable cached_key : int;
    mutable cached_stripe : int;
        (** stripe that produced the cached candidate; [-1] = none (feeds
            the stickiness window on a successful shared delete) *)
    cached_ptrs : 'v Block_array.t option array;
        (** per-stripe published-array tokens observed when the cache was
            filled; physical inequality + a hint below [cached_key] is the
            only thing that can invalidate a still-alive cached candidate *)
    mutable sticky_stripe : int;
        (** stripe that served the last shared delete-min *)
    mutable sticky_left : int;
        (** races left in the stickiness window; halved on CAS failure *)
    mutable buf : (int * 'v) list;  (** insertion buffer, newest first *)
    mutable buf_len : int;
    mutable buf_min : int;
        (** lower bound on the buffered keys ([max_int] = empty); kept
            conservative (never raised mid-flush), so a flush check that
            consults it can only over-flush, never hide an item *)
    mutable buf_age : int;
        (** owner operations since the oldest buffered item arrived *)
    mutable dbuf : (int * 'v) list;
        (** deletion buffer, ascending: items claimed-deleted from a stripe
            in a batch, not yet returned to the owner.  Invisible to every
            other thread — charged as the T * (B - 1) term of the widened
            rank bound (DESIGN.md §17) *)
    mutable dbuf_len : int;
    mutable dbuf_age : int;
        (** owner operations since the buffer last emptied; at
            {!buffer_age_bound} the remainder is flushed back into the
            thread-local LSM (liveness: a handle that stops deleting must
            not sit on claimed items) *)
    mutable dbuf_pending : (int * 'v) list;
        (** tentative batch claim, recorded {e before} the publish CAS and
            cleared when the claim resolves; read only by the chaos drive's
            crash accounting (a thread killed inside the publish holds the
            claim here whether or not its CAS landed) *)
    mutable pub_seen : int;  (** publish CASes in the current adapt window *)
    mutable pub_fail : int;  (** failed ones *)
    rng : Xoshiro.t;
    obs : Obs.handle;
    pool : 'v Block.Pool.t;
  }

  let create_with ?(seed = 1) ?(k = 256) ?(shards = 4) ?(sticky = 0)
      ?(buf = 0) ?(dbuf = 0) ?adapt ?should_delete ?on_lazy_delete
      ?spill_max_level ?spill_policy ?(local_ordering = true) ~num_threads () =
    if num_threads < 1 then
      invalid_arg "Sharded_klsm.create: num_threads < 1";
    if shards < 1 then invalid_arg "Sharded_klsm.create: shards < 1";
    if shards > k then
      invalid_arg "Sharded_klsm.create: shards > k (a stripe needs a budget)";
    if sticky < 0 then invalid_arg "Sharded_klsm.create: sticky < 0";
    (* Adaptive mode allocates the array at the upper target; doubling /
       halving between power-of-two rungs keeps every reachable active
       count a divisor-friendly power of two, so tid mod active spreads
       homes evenly at each rung. *)
    let num_stripes =
      match adapt with
      | None -> shards
      | Some (lo, hi) ->
          if not (is_pow2 lo && is_pow2 hi) then
            invalid_arg
              "Sharded_klsm.create: adaptive stripe targets must be powers \
               of two";
          if lo > hi then
            invalid_arg "Sharded_klsm.create: adapt lo > hi";
          if not (is_pow2 shards) then
            invalid_arg
              "Sharded_klsm.create: with ~adapt the initial shard count \
               must be a power of two";
          if shards < lo || shards > hi then
            invalid_arg
              "Sharded_klsm.create: initial shard count outside [lo, hi]";
          if hi > k then
            invalid_arg
              "Sharded_klsm.create: adapt upper target > k (a stripe needs \
               a budget)";
          hi
    in
    let kp = stripe_k ~k ~shards:num_stripes in
    if buf < 0 || buf > kp then
      invalid_arg
        (Printf.sprintf
           "Sharded_klsm.create: insertion buffer %d exceeds the per-stripe \
            budget ceil(k/S) = %d (buffered items are charged against the \
            local relaxation budget)"
           buf kp);
    if dbuf < 0 || dbuf > kp then
      invalid_arg
        (Printf.sprintf
           "Sharded_klsm.create: deletion batch %d exceeds the per-stripe \
            budget ceil(k/S) = %d (a batch claim must fit inside one \
            stripe's relaxation)"
           dbuf kp);
    if buf + dbuf > kp then
      invalid_arg
        (Printf.sprintf
           "Sharded_klsm.create: insertion buffer %d + deletion batch %d \
            overdraw the per-stripe budget ceil(k/S) = %d"
           buf dbuf kp);
    let hasher = Tabular_hash.create ~seed:(seed lxor 0x5eed) in
    let alive =
      match should_delete with
      | None -> fun it -> not (Item.is_taken it)
      | Some p ->
          (* Identical to {!Klsm.create_with}: the [taken] flag claims a
             condemned item before the hook runs, so [on_lazy_delete] fires
             exactly once per item. *)
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
      stripes =
        Array.init num_stripes (fun _ ->
            Shared_klsm.create ~k:kp ~local_ordering ~maintain_hint:true
              ~padded:true ~hasher ~alive ());
      dists = Array.init num_threads (fun _ -> B.make None);
      num_threads;
      num_stripes;
      k = B.make k;
      seed;
      hasher;
      alive;
      spill_max_level;
      spill_policy;
      sticky_window = sticky;
      buf_cap = buf;
      dbuf_cap = dbuf;
      adapt;
      active = Klsm_primitives.Padded.copy_as_padded (B.make shards);
      obs = Obs.create_sheet ~now:B.time ~num_threads ();
    }

  let create ?seed ~num_threads () = create_with ?seed ~num_threads ()

  let get_k t = B.get t.k
  let num_stripes t = t.num_stripes

  (** Stripes that current spills target ([num_stripes] when not adaptive;
      the race and the rank bound always cover the full array). *)
  let active_stripes t =
    match t.adapt with None -> t.num_stripes | Some _ -> B.get t.active

  (** Reconfigure the global budget; re-partitioned across the stripes, it
      takes effect on each stripe's next pivot recomputation. *)
  let set_k t k =
    if k < t.num_stripes then invalid_arg "Sharded_klsm.set_k: k < shards";
    let kp = stripe_k ~k ~shards:t.num_stripes in
    if t.buf_cap + t.dbuf_cap > kp then
      invalid_arg
        "Sharded_klsm.set_k: new per-stripe budget below the configured \
         insertion-buffer + deletion-batch capacities";
    B.set t.k k;
    Array.iter (fun s -> Shared_klsm.set_k s kp) t.stripes

  (** Internal-counter snapshot (see {!Pq_intf.S.stats}). *)
  let stats (t : _ t) = Obs.snapshot t.obs

  (* One adaptive-resize accounting step, run from the publish-CAS hooks.
     Window full -> compare the observed failure rate against the
     watermarks and CAS the active count one power-of-two rung.  A lost
     resize CAS just means another handle resized first; both re-observe
     from fresh windows. *)
  let adapt_account h ~failed =
    match h.t.adapt with
    | None -> ()
    | Some (lo, hi) ->
        h.pub_seen <- h.pub_seen + 1;
        if failed then h.pub_fail <- h.pub_fail + 1;
        if h.pub_seen >= adapt_window then begin
          let fails = h.pub_fail and seen = h.pub_seen in
          h.pub_seen <- 0;
          h.pub_fail <- 0;
          let cur = B.get h.t.active in
          let target =
            if adapt_grow_watermark fails seen && cur * 2 <= hi then cur * 2
            else if adapt_shrink_watermark fails seen && cur / 2 >= lo then
              cur / 2
            else cur
          in
          if target <> cur then begin
            B.fault_point "sharded.resize";
            if B.compare_and_set h.t.active cur target then begin
              Obs.incr h.obs c_resize;
              (* Re-home through the same latch as contention migration:
                 the move happens after the in-flight publish lands. *)
              h.migrate_pending <- true
            end
          end
        end

  (* Spill a block to the home stripe; act on a pending migration after the
     publish completed (a {!Shared_klsm.insert} retries on its stripe until
     it wins, so the decision applies to the next spill).  A shrink that
     left this handle's home above the active range is picked up here too:
     the stale home is still raced by every reader (nothing is ever lost in
     a deactivated stripe), so the publish proceeds and the re-home applies
     to the next spill, exactly like contention migration. *)
  let spill_to_home h block =
    let block = h.spill_tx block in
    if h.t.adapt <> None && h.home >= active_stripes h.t then
      h.migrate_pending <- true;
    B.fault_point "sharded.spill.publish";
    Shared_klsm.insert h.stripe_hs.(h.home) block;
    if h.migrate_pending && h.t.num_stripes > 1 then begin
      B.fault_point "sharded.migrate";
      h.migrate_pending <- false;
      h.fail_streak <- 0;
      h.home <- (h.home + 1) mod max 1 (active_stripes h.t);
      Obs.incr h.obs c_migrate
    end
    else h.migrate_pending <- false

  let register t tid =
    if tid < 0 || tid >= t.num_threads then
      invalid_arg "Sharded_klsm.register: tid";
    let rng = Xoshiro.create ~seed:(t.seed + (1000003 * (tid + 1))) in
    let obs = Obs.handle t.obs ~tid in
    let pool = Block.Pool.create ~obs () in
    let dist =
      Dist_lsm.create ~obs ~pool ~tid ~hasher:t.hasher ~alive:t.alive ()
    in
    B.set t.dists.(tid) (Some dist);
    let stripe_hs =
      Array.map
        (fun s -> Shared_klsm.register ~obs ~pool s ~tid ~rng:(Xoshiro.split rng))
        t.stripes
    in
    let home = tid mod active_stripes t in
    let rec h =
      {
        t;
        tid;
        dist;
        spill_tx =
          (match t.spill_policy with
          | None -> Fun.id
          | Some p -> fun block -> p ~alive:t.alive ~tid block);
        spill = (fun block -> spill_to_home h block);
        stripe_hs;
        home;
        rr = 0;
        fail_streak = 0;
        migrate_pending = false;
        backoffs =
          Array.init t.num_stripes (fun _ ->
              Backoff.create ~jitter:(Xoshiro.split rng) ());
        cached = None;
        cached_key = max_int;
        cached_stripe = -1;
        cached_ptrs = Array.make t.num_stripes None;
        sticky_stripe = home;
        sticky_left = 0;
        buf = [];
        buf_len = 0;
        buf_min = max_int;
        buf_age = 0;
        dbuf = [];
        dbuf_len = 0;
        dbuf_age = 0;
        dbuf_pending = [];
        pub_seen = 0;
        pub_fail = 0;
        rng;
        obs;
        pool;
      }
    in
    (* Contention hooks: every failed snapshot CAS on stripe [i] backs the
       thread off (decorrelated jitter, so losers of the same race stop
       retrying in lockstep); failures on the current home stripe also feed
       the migration detector, decay the stickiness window (the sticky
       stripe is being fought over), and — with ~adapt — feed the resize
       watermarks. *)
    Array.iteri
      (fun i sh ->
        sh.Shared_klsm.on_cas_fail <-
          (fun () ->
            Obs.incr obs c_stripe_cas_fail;
            if i = h.home then begin
              h.fail_streak <- h.fail_streak + 1;
              if h.fail_streak >= migrate_threshold then
                h.migrate_pending <- true
            end;
            if h.sticky_left > 0 then h.sticky_left <- h.sticky_left / 2;
            adapt_account h ~failed:true;
            Backoff.once h.backoffs.(i) ~relax:B.relax_n);
        sh.Shared_klsm.on_cas_success <-
          (fun () ->
            if i = h.home then h.fail_streak <- 0;
            adapt_account h ~failed:false;
            Backoff.reset h.backoffs.(i)))
      stripe_hs;
    h

  (* §4.3 [insert] with the partitioned spill rule: local blocks spill at
     the level bound of the {e per-stripe} budget ceil(k/S), so each
     thread-local LSM holds at most ceil(k/S) items — the per-term bound
     the rho <= (T + S) * ceil(k/S) derivation charges for other threads'
     local components (DESIGN.md §12).  With insertion buffering the
     threshold shrinks by the buffer capacity (DESIGN.md §15): LSM +
     buffer together stay within the same ceil(k/S) term. *)
  let insert_now h key value =
    let item = Item.make key value in
    let max_level =
      match h.t.spill_max_level with
      | Some l -> l
      | None ->
          let kp = stripe_k ~k:(B.get h.t.k) ~shards:h.t.num_stripes in
          Dist_lsm.max_level_for_k (max 0 (kp - h.t.buf_cap))
    in
    Dist_lsm.insert h.dist item ~max_level ~spill:h.spill

  (** Flush the insertion buffer into the thread-local LSM (no-op when
      empty).  Items leave the buffer one by one {e after} entering the
      LSM, so a crash mid-flush leaves every not-yet-inserted item still
      visible in [h.buf] (the chaos drive reads it to account for a
      crashed thread's buffered items); [buf_min] stays conservatively low
      until the buffer empties. *)
  let flush_buffer h =
    if h.buf_len > 0 then begin
      B.fault_point "sharded.buffer.flush";
      Obs.incr h.obs c_buffer_flush;
      let rec drain () =
        match h.buf with
        | [] ->
            h.buf_min <- max_int;
            h.buf_age <- 0
        | (key, value) :: rest ->
            insert_now h key value;
            h.buf <- rest;
            h.buf_len <- h.buf_len - 1;
            drain ()
      in
      drain ()
    end

  (** Return claimed-but-unserved deletion-buffer items to the queue: each
      is reinserted into the thread-local LSM as a fresh item (the claimed
      originals were consumed from their stripe and are invisible to every
      other thread, so reinsertion is the only way back to visibility).
      Triggered by the owner's age bound — a handle that stops deleting
      must not sit on claimed items — and by the chaos drive on surviving
      threads.  Items leave the buffer one by one {e after} reinsertion,
      mirroring {!flush_buffer}'s crash discipline: a crash mid-flush
      leaves the not-yet-reinserted tail visible in [h.dbuf] for the
      conservation accounting (an item caught on both sides is delivered
      at most once — the buffered copy never leaves a dead handle). *)
  let flush_dbuf h =
    if h.dbuf_len > 0 then begin
      B.fault_point "sharded.dbuf.flush";
      Obs.incr h.obs c_dbuf_flush;
      let rec drain () =
        match h.dbuf with
        | [] -> h.dbuf_age <- 0
        | (key, value) :: rest ->
            insert_now h key value;
            h.dbuf <- rest;
            h.dbuf_len <- h.dbuf_len - 1;
            drain ()
      in
      drain ()
    end

  (* One owner operation elapsed while deletion-buffer items wait; flush
     the remainder once the age bound is crossed. *)
  let dbuf_tick h =
    if h.dbuf_len > 0 then begin
      h.dbuf_age <- h.dbuf_age + 1;
      if h.dbuf_age >= buffer_age_bound then flush_dbuf h
    end

  (** §4.3 [insert], through the per-handle insertion buffer when one is
      configured (DESIGN.md §15): the common case is a buffer push; the
      LSM merge cascade and any stripe publish happen only on flush. *)
  let insert h key value =
    if key < 0 then invalid_arg "Sharded_klsm.insert: negative key";
    dbuf_tick h;
    if h.t.buf_cap = 0 then insert_now h key value
    else begin
      if h.buf_len > 0 then begin
        h.buf_age <- h.buf_age + 1;
        if h.buf_age >= buffer_age_bound then flush_buffer h
      end;
      h.buf <- (key, value) :: h.buf;
      h.buf_len <- h.buf_len + 1;
      if key < h.buf_min then h.buf_min <- key;
      if h.buf_len >= h.t.buf_cap then flush_buffer h
    end

  (* The delete-min/find-min side of buffering: serve from the exact local
     LSM unless a buffered key undercuts it, in which case flush first.
     This is what keeps find_min exact for the owner (no buffered item is
     ever invisible {e below} the served candidate) and single-thread
     semantics exact overall. *)
  let local_min_flushing h =
    let local = Dist_lsm.find_min h.dist in
    if
      h.buf_len > 0
      &&
      match local with
      | None -> true
      | Some it -> h.buf_min < Item.key it
    then begin
      flush_buffer h;
      Dist_lsm.find_min h.dist
    end
    else local

  (** Bulk insertion (one sorted block, one stripe publish); see
      {!Klsm.insert_batch}.  Bypasses the insertion buffer — the batch is
      already the amortized path. *)
  let insert_batch h pairs =
    match Array.length pairs with
    | 0 -> ()
    | 1 ->
        let key, value = pairs.(0) in
        insert h key value
    | _ ->
        Array.iter
          (fun (key, _) ->
            if key < 0 then
              invalid_arg "Sharded_klsm.insert_batch: negative key")
          pairs;
        let block =
          Block.of_pairs ~pool:h.pool
            ~filter:(Klsm_primitives.Bloom.singleton ~hasher:h.t.hasher h.tid)
            pairs
        in
        spill_to_home h block

  (* ---- the striped find_min race ---- *)

  (* Is the cached candidate still a valid answer?  It must be alive, and
     every stripe must either be physically unchanged since the cache was
     filled (its pointer token matches; logical deletions do not move the
     pointer and only shrink the smaller-than set) or hint that it holds
     nothing below the cached key.  S atomic loads replace two-plus full
     snapshot consults. *)
  let cache_valid h =
    match h.cached with
    | None -> false
    | Some it ->
        h.t.alive it
        &&
        let s = h.t.num_stripes in
        let ok = ref true in
        let j = ref 0 in
        while !ok && !j < s do
          let stripe = h.t.stripes.(!j) in
          if
            Shared_klsm.peek_shared stripe != h.cached_ptrs.(!j)
            && Shared_klsm.min_hint stripe < h.cached_key
          then ok := false;
          incr j
        done;
        !ok

  (* Consult stripe [i]: its relaxed minimum replaces the running best of a
     race (kept directly in the candidate-cache fields) if it undercuts
     it. *)
  let consult h i =
    match Shared_klsm.find_min h.stripe_hs.(i) with
    | None -> ()
    | Some it as found ->
        let key = Item.key it in
        if Option.is_none h.cached || key < h.cached_key then begin
          h.cached <- found;
          h.cached_key <- key;
          h.cached_stripe <- i
        end

  (* The full race: a primary stripe (the sticky stripe while the
     stickiness window is open, the home stripe otherwise), then every
     other stripe whose min hint undercuts the best so far (scanned from a
     rotating offset).  Every stripe is thus either consulted (candidate
     within its ceil(k/S) relaxation) or certified by its hint to hold
     nothing smaller — the case split the DESIGN §12 rank bound sums over,
     regardless of which stripe went first.  The race refills the
     candidate cache as it goes. *)
  let race h =
    let s = h.t.num_stripes in
    (* Observation tokens first: a publish landing between the token read
       and the consult can only make the cache conservatively stale. *)
    for j = 0 to s - 1 do
      h.cached_ptrs.(j) <- Shared_klsm.peek_shared h.t.stripes.(j)
    done;
    h.cached <- None;
    h.cached_key <- max_int;
    h.cached_stripe <- -1;
    let primary =
      if h.t.sticky_window > 0 && h.sticky_left > 0 then begin
        h.sticky_left <- h.sticky_left - 1;
        Obs.incr h.obs c_sticky_hit;
        h.sticky_stripe
      end
      else h.home
    in
    consult h primary;
    if s > 1 then begin
      (* Rotating scan offset: when several stripes undercut the current
         best they are consulted in a different order each race, so no
         single stripe permanently wins the ties. *)
      h.rr <- h.rr + 1;
      let start = h.rr mod s in
      for d = 0 to s - 1 do
        let j = (start + d) mod s in
        if j <> primary && Shared_klsm.min_hint h.t.stripes.(j) < h.cached_key
        then begin
          Obs.incr h.obs c_hint_consult;
          consult h j
        end
      done
    end;
    h.cached

  (** Relaxed minimum of the striped shared component (cache first, race on
      a miss).  The returned item may be taken concurrently; the combined
      delete-min loop handles that. *)
  let stripes_find_min h =
    if cache_valid h then begin
      Obs.incr h.obs c_cache_hit;
      h.cached
    end
    else begin
      Obs.incr h.obs c_cache_miss;
      race h
    end

  (* Do the hints certify that no stripe holds anything below [key]?  When
     they do, a local candidate at [key] needs no stripe consult at all —
     S atomic loads replace snapshot copies on the common
     serve-locally path (the split §4.3's design argument is about). *)
  let stripes_certified_above h key =
    let s = h.t.num_stripes in
    let ok = ref true in
    let j = ref 0 in
    while !ok && !j < s do
      if Shared_klsm.min_hint h.t.stripes.(!j) < key then ok := false;
      incr j
    done;
    !ok

  (* Spy on one random other thread (Listing 5's fallback). *)
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

  (* Batched shared delete (DESIGN.md §17): claim up to B = [dbuf_cap]
     items from the stripe that won the race with ONE publish CAS
     ({!Shared_klsm.try_pop_batch}), capped at the local minimum — the
     run must not reach past what the owner itself holds.  No cross-stripe
     cap is applied at claim time: stripe hints lower-bound the smallest
     {e alive} key through logically deleted items, so they are
     systematically stale-low and would veto nearly every claim; instead
     the serve rule in {!try_delete_min} re-certifies the buffered head
     against the {e live} hints at every serve, which is strictly stronger
     than a claim-time check (hints move; the serve-time one is the one
     that matters for the rank bound).  The head is returned now; the rest
     lands in the owner's deletion buffer.  [dbuf_pending] records the
     tentative run before the CAS, for the chaos drive's crash accounting.
     [None] = claim lost or nothing under the cap; the caller falls back
     to the single take. *)
  let claim_batch h ~local_key =
    let stripe_i = h.cached_stripe in
    let run =
      Shared_klsm.try_pop_batch
        ~stage:(fun pending -> h.dbuf_pending <- pending)
        ~limit:local_key h.stripe_hs.(stripe_i) h.t.dbuf_cap
    in
    h.dbuf_pending <- [];
    match run with
    | [] -> None
    | (key, value) :: rest ->
        h.dbuf <- rest;
        h.dbuf_len <- List.length rest;
        h.dbuf_age <- 0;
        Obs.incr h.obs c_delete_shared;
        if h.t.sticky_window > 0 then begin
          h.sticky_stripe <- stripe_i;
          h.sticky_left <- h.t.sticky_window
        end;
        (* The winning publish restructured the stripe; drop the candidate
           cache rather than let it point at a just-claimed item. *)
        h.cached <- None;
        Some (key, value)

  (* One round of the race: local minimum, deletion-buffer head and the
     striped shared minimum, then the serve or the test-and-set; a lost
     race retries.  [None] = everything looks empty. *)
  let rec take_loop h =
    let local = local_min_flushing h in
    let local_key =
      match local with Some it -> Item.key it | None -> max_int
    in
    let dhead = match h.dbuf with [] -> max_int | (key, _) :: _ -> key in
    let best_known = min local_key dhead in
    let shared =
      if best_known < max_int && stripes_certified_above h best_known
      then begin
        Obs.incr h.obs c_hint_skip;
        None
      end
      else stripes_find_min h
    in
    let shared_key =
      match shared with Some it -> Item.key it | None -> max_int
    in
    if dhead < max_int && dhead <= local_key && dhead <= shared_key then begin
      (* Deletion-buffer hit: the claimed head is still the best known
         candidate (ties go to the buffer — its item is already deleted,
         so serving it costs nothing). *)
      match h.dbuf with
      | kv :: rest ->
          h.dbuf <- rest;
          h.dbuf_len <- h.dbuf_len - 1;
          if h.dbuf_len = 0 then h.dbuf_age <- 0;
          Obs.incr h.obs c_dbuf_hit;
          Obs.incr h.obs c_delete_shared;
          Some kv
      | [] -> assert false
    end
    else
      match (local, shared) with
      | None, None -> None
      | None, Some sh -> take h sh ~from_shared:true ~local_key
      | Some it, Some sh when Item.key sh < Item.key it ->
          take h sh ~from_shared:true ~local_key
      | Some it, _ -> take h it ~from_shared:false ~local_key

  and take h item ~from_shared ~local_key =
    match
      if
        from_shared && h.t.dbuf_cap > 0 && h.dbuf_len = 0
        && h.cached_stripe >= 0
      then claim_batch h ~local_key
      else None
    with
    | Some _ as kv -> kv
    | None ->
        if Item.take item then begin
          if from_shared then begin
            Obs.incr h.obs c_delete_shared;
            if h.t.sticky_window > 0 && h.cached_stripe >= 0 then begin
              h.sticky_stripe <- h.cached_stripe;
              h.sticky_left <- h.t.sticky_window
            end
          end
          else Obs.incr h.obs c_delete_local;
          Some (Item.key item, Item.value item)
        end
        else begin
          Obs.incr h.obs c_take_race;
          take_loop h
        end

  let rec delete_loop h =
    match take_loop h with
    | Some _ as kv -> kv
    | None ->
        Dist_lsm.consolidate h.dist;
        Obs.incr h.obs c_spy_attempt;
        if spy_once h then begin
          Obs.incr h.obs c_spy_success;
          delete_loop h
        end
        else begin
          Obs.incr h.obs c_delete_empty;
          None
        end

  (** Listing 5's [delete_min] over the striped shared component: race the
      thread-local minimum against {!stripes_find_min}, test-and-set, retry
      lost races, spy before reporting empty.  A successful shared delete
      opens (or refreshes) the stickiness window on the serving stripe.

      With deletion batching on ([~dbuf:B]), the deletion buffer is
      consulted first: its head was globally minimal under the rank bound
      when claimed, and is served — with zero CASes and zero stripe
      consults beyond the hint loads — whenever neither the local minimum
      nor any stripe hint undercuts it.  A shared win with an empty buffer
      claims a fresh run via {!claim_batch}. *)
  let try_delete_min h =
    dbuf_tick h;
    delete_loop h

  (** Relaxed peek; advisory on a concurrent queue (see
      {!Klsm.try_find_min}).  Flushes the insertion buffer when a buffered
      key undercuts the local minimum, so no buffered item hides below the
      answer; a deletion-buffer head competes like any candidate (it is
      part of the owner's view, so hiding it would break owner
      exactness). *)
  let try_find_min h =
    let local = local_min_flushing h in
    let local_key =
      match local with Some it -> Item.key it | None -> max_int
    in
    let dhead = match h.dbuf with [] -> max_int | (key, _) :: _ -> key in
    let best_known = min local_key dhead in
    let shared =
      if best_known < max_int && stripes_certified_above h best_known
      then begin
        Obs.incr h.obs c_hint_skip;
        None
      end
      else stripes_find_min h
    in
    let shared_key =
      match shared with Some it -> Item.key it | None -> max_int
    in
    if dhead < max_int && dhead <= local_key && dhead <= shared_key then
      match h.dbuf with kv :: _ -> Some kv | [] -> assert false
    else
      let candidate =
        match (local, shared) with
        | None, sh -> sh
        | Some it, Some sh when Item.key sh < Item.key it -> Some sh
        | Some _, _ -> local
      in
      Option.map (fun it -> (Item.key it, Item.value it)) candidate

  (** Batched delete-min: a plain {!try_delete_min} loop — with deletion
      batching on, the first iteration claims a run and the rest of the
      batch drains the buffer, so the whole call still costs one publish
      CAS per up-to-B items (see {!Pq_intf.S.try_delete_min_batch}). *)
  let try_delete_min_batch h n =
    let rec go acc got =
      if got >= n then List.rev acc
      else
        match try_delete_min h with
        | Some kv -> go (kv :: acc) (got + 1)
        | None -> List.rev acc
    in
    go [] 0

  (** Meld (§4.5, non-linearizable; see {!Klsm.meld}): adopt every block of
      [src] into the queue behind [h], through [h]'s home stripe.  Like the
      rest of meld's exclusive-access contract, insertion buffers live in
      {e handles}, not in [src]: callers must {!flush_buffer} the source's
      handles first or those items stay behind. *)
  let meld h ~src =
    let adopt block =
      if not (Block.is_empty block) then begin
        let b = Block.copy ~alive:h.t.alive block (Block.level block) in
        b.Block.filter <- Klsm_primitives.Bloom.full;
        let b = Block.shrink ~alive:h.t.alive b in
        if not (Block.is_empty b) then spill_to_home h b
      end
    in
    Array.iter
      (fun stripe -> List.iter adopt (Shared_klsm.steal_all stripe))
      src.stripes;
    Array.iter
      (fun slot ->
        match B.get slot with
        | Some d -> List.iter adopt (Dist_lsm.steal_all d)
        | None -> ())
      src.dists

  (** Force a cleanup of the thread-local component (lazy deletion can
      strand condemned items). *)
  let consolidate_local h = Dist_lsm.consolidate h.dist

  (** Items currently held, counting not-yet-cleaned deleted ones.  Items
      sitting in per-handle insertion buffers are not visible from [t];
      the count may under-report by at most T * B. *)
  let approximate_size t =
    let acc = ref 0 in
    Array.iter
      (fun stripe -> acc := !acc + Shared_klsm.approximate_size stripe)
      t.stripes;
    Array.iter
      (fun slot ->
        match B.get slot with
        | Some d -> acc := !acc + Dist_lsm.total_filled d
        | None -> ())
      t.dists;
    !acc

  (** Insert a block directly into the home stripe (recovery path:
      [Spill.recover] links rebuilt cold blocks through this; the policy
      passes already-spilled blocks through untouched). *)
  let adopt_block h block = spill_to_home h block

  (* Internal accessors for white-box tests and the chaos drive. *)
  let internal_stripes t = t.stripes
  let internal_stripe_handles h = h.stripe_hs
  let internal_dist h = h.dist
  let internal_buffered h = h.buf
  let internal_dbuf h = h.dbuf
  let internal_dbuf_pending h = h.dbuf_pending
  let internal_sticky_left h = h.sticky_left
  let internal_sticky_stripe h = h.sticky_stripe
  let internal_active t = active_stripes t
end

(** The deployment instantiation on OCaml domains. *)
module Default = Make (Klsm_backend.Real)

(* Static conformance: the sharded queue implements the common interface. *)
module _ : Pq_intf.S = Default
