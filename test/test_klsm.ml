(* Tests for the combined k-LSM queue (paper Listing 5) and the standalone
   DLSM wrapper: exact single-thread semantics, relaxation bounds, spying
   across handles, runtime k, lazy deletion, and input validation. *)

open Helpers
module B = Klsm_backend.Real
module Sim = Klsm_backend.Sim
module Klsm = Klsm_core.Klsm.Default
module Dlsm = Klsm_core.Dlsm.Default

(* Drain with retry: try_delete_min may fail spuriously. *)
let drain_all try_delete_min =
  let rec go acc misses =
    if misses > 200 then List.rev acc
    else begin
      match try_delete_min () with
      | Some (k, _) -> go (k :: acc) 0
      | None -> go acc (misses + 1)
    end
  in
  go [] 0

(* ---------------- single-thread exactness (local ordering) ---------------- *)

let prop_klsm_single_thread_exact =
  qtest "k-LSM single thread = exact PQ (any k)" ~count:100
    QCheck2.Gen.(pair ops_gen (int_bound 300))
    (fun (ops, k) ->
      let q = Klsm.create_with ~k ~num_threads:1 () in
      let h = Klsm.register q 0 in
      matches_oracle
        ~insert:(fun key -> Klsm.insert h key ())
        ~delete_min:(fun () ->
          Option.map fst (Klsm.try_delete_min h))
        ops)

let prop_dlsm_single_thread_exact =
  qtest "DLSM single thread = exact PQ" ~count:100 ops_gen (fun ops ->
      let q = Dlsm.create_with ~num_threads:1 () in
      let h = Dlsm.register q 0 in
      matches_oracle
        ~insert:(fun key -> Dlsm.insert h key ())
        ~delete_min:(fun () -> Option.map fst (Dlsm.try_delete_min h))
        ops)

(* ---------------- conservation across handles ---------------- *)

let prop_multi_handle_conservation =
  (* Two handles driven deterministically from one thread: all inserted
     keys come out exactly once (spying paths included). *)
  qtest "two-handle conservation" ~count:50
    QCheck2.Gen.(list_size (int_range 1 300) (int_bound 5_000))
    (fun keys ->
      let q = Klsm.create_with ~k:16 ~num_threads:2 () in
      let h0 = Klsm.register q 0 and h1 = Klsm.register q 1 in
      List.iteri
        (fun i k -> Klsm.insert (if i land 1 = 0 then h0 else h1) k ())
        keys;
      (* h0 drains everything, spying on h1's local LSM. *)
      let got = drain_all (fun () -> Klsm.try_delete_min h0) in
      List.sort compare got = List.sort compare keys)

let test_spy_enables_cross_thread_delete () =
  let q = Klsm.create_with ~k:1024 ~num_threads:2 () in
  let h0 = Klsm.register q 0 and h1 = Klsm.register q 1 in
  (* All items live in h1's local LSM (k large: nothing spills). *)
  for i = 1 to 100 do
    Klsm.insert h1 i ()
  done;
  let got = drain_all (fun () -> Klsm.try_delete_min h0) in
  check_int "h0 got them all by spying" 100 (List.length got)

(* ---------------- relaxation bound (rho = T*k) ---------------- *)

let test_relaxation_bound_single_thread () =
  (* T = 1: every delete-min must return a key of rank <= deletions + k
     among the initial set (deletion-only phase). *)
  let k = 8 in
  let q = Klsm.create_with ~k ~num_threads:1 () in
  let h = Klsm.register q 0 in
  let n = 200 in
  (* Distinct keys 0..n-1 in shuffled order. *)
  let keys = Array.init n Fun.id in
  Klsm_primitives.Xoshiro.shuffle (Klsm_primitives.Xoshiro.create ~seed:4) keys;
  Array.iter (fun key -> Klsm.insert h key ()) keys;
  let deleted = ref 0 in
  let rec go () =
    match Klsm.try_delete_min h with
    | Some (key, ()) ->
        (* rank of key among remaining = key - (#smaller deleted); since we
           delete near-minimal keys, a loose but sound bound: *)
        check_bool "within rho window" true (key <= !deleted + k + 1);
        incr deleted;
        go ()
    | None -> ()
  in
  go ();
  check_int "drained" n !deleted

(* ---------------- runtime k ---------------- *)

let test_set_k () =
  let q = Klsm.create_with ~k:0 ~num_threads:1 () in
  let h = Klsm.register q 0 in
  for i = 1 to 50 do
    Klsm.insert h i ()
  done;
  Klsm.set_k q 1024;
  check_int "get_k" 1024 (Klsm.get_k q);
  for i = 51 to 100 do
    Klsm.insert h i ()
  done;
  let got = drain_all (fun () -> Klsm.try_delete_min h) in
  check_int "conserved across k change" 100 (List.length got)

(* ---------------- lazy deletion (§4.5) ---------------- *)

let test_lazy_deletion_filters () =
  let condemned = Hashtbl.create 16 in
  let dropped = ref [] in
  let q =
    Klsm.create_with ~k:4 ~num_threads:1
      ~should_delete:(fun key _ -> Hashtbl.mem condemned key)
      ~on_lazy_delete:(fun key _ -> dropped := key :: !dropped)
      ()
  in
  let h = Klsm.register q 0 in
  for i = 1 to 32 do
    Klsm.insert h i ()
  done;
  (* Condemn the odd keys, then force consolidation via more traffic. *)
  for i = 1 to 32 do
    if i mod 2 = 1 then Hashtbl.replace condemned i true
  done;
  let got = drain_all (fun () -> Klsm.try_delete_min h) in
  (* No condemned key is ever returned. *)
  List.iter
    (fun k -> check_bool "only even keys returned" true (k mod 2 = 0))
    got;
  check_int "16 survivors" 16 (List.length got);
  (* Every condemned key was dropped exactly once (16 odd keys). *)
  let d = List.sort compare !dropped in
  check_list_int "each dropped once" (List.init 16 (fun i -> (2 * i) + 1)) d

let test_lazy_deletion_exactly_once_hook () =
  (* Heavy merging must not double-fire the hook. *)
  let fired = Hashtbl.create 16 in
  let dupes = ref 0 in
  let q =
    Klsm.create_with ~k:8 ~num_threads:1
      ~should_delete:(fun key _ -> key mod 3 = 0)
      ~on_lazy_delete:(fun key _ ->
        if Hashtbl.mem fired key then incr dupes else Hashtbl.replace fired key ())
      ()
  in
  let h = Klsm.register q 0 in
  for i = 1 to 300 do
    Klsm.insert h i ()
  done;
  ignore (drain_all (fun () -> Klsm.try_delete_min h));
  check_int "no duplicate hook firings" 0 !dupes

(* ---------------- sizes & validation ---------------- *)

let test_approximate_size () =
  let q = Klsm.create_with ~k:16 ~num_threads:1 () in
  let h = Klsm.register q 0 in
  for i = 1 to 100 do
    Klsm.insert h i ()
  done;
  check_bool "size >= alive count" true (Klsm.approximate_size q >= 100)

let test_validation () =
  Alcotest.check_raises "threads" (Invalid_argument "Klsm.create: num_threads < 1")
    (fun () -> ignore (Klsm.create_with ~num_threads:0 ()));
  let q = Klsm.create_with ~num_threads:1 () in
  Alcotest.check_raises "tid range" (Invalid_argument "Klsm.register: tid")
    (fun () -> ignore (Klsm.register q 1));
  let h = Klsm.register q 0 in
  Alcotest.check_raises "negative key" (Invalid_argument "Klsm.insert: negative key")
    (fun () -> Klsm.insert h (-1) ())

let test_empty_queue () =
  let q = Klsm.create_with ~num_threads:4 () in
  let h = Klsm.register q 0 in
  check_bool "empty" true (Klsm.try_delete_min h = None);
  check_int "size" 0 (Klsm.approximate_size q)

let test_duplicate_keys () =
  let q = Klsm.create_with ~k:4 ~num_threads:1 () in
  let h = Klsm.register q 0 in
  for _ = 1 to 50 do
    Klsm.insert h 7 ()
  done;
  let got = drain_all (fun () -> Klsm.try_delete_min h) in
  check_int "all 50 duplicates" 50 (List.length got);
  List.iter (fun k -> check_int "key 7" 7 k) got

let test_consolidate_local_exposed () =
  let q =
    Klsm.create_with ~k:1024 ~num_threads:1
      ~should_delete:(fun key _ -> key > 10)
      ()
  in
  let h = Klsm.register q 0 in
  for i = 1 to 100 do
    Klsm.insert h i ()
  done;
  Klsm.consolidate_local h;
  (* Condemned items were filtered out of the local LSM. *)
  check_bool "shrunk" true (Klsm.approximate_size q <= 10)

(* ---------------- allocation budget ---------------- *)

(* Minor-heap words per call, averaged over [n] calls. *)
let words_per n f =
  let w0 = Gc.minor_words () in
  for _ = 1 to n do
    f ()
  done;
  (Gc.minor_words () -. w0) /. float_of_int n

(* The delete-min hot path allocates nothing but its result in steady
   state: both find-min halves box only the returned option (2 words),
   and a 50/50 mix op stays within the budget of its item, its result and
   the blocks it publishes.  One domain, two handles, prefilled and warmed
   up; keys and coin flips are drawn up front. *)
let test_allocation_budget () =
  let q = Klsm.create_with ~seed:5 ~k:256 ~num_threads:2 () in
  let h0 = Klsm.register q 0 and h1 = Klsm.register q 1 in
  let rng = Xoshiro.create ~seed:77 in
  let n = 40_000 in
  let keys = Array.init n (fun _ -> Xoshiro.int rng (1 lsl 28)) in
  let coins = Array.init n (fun _ -> Xoshiro.bool rng) in
  for i = 0 to 19_999 do
    Klsm.insert (if i land 1 = 0 then h0 else h1) keys.(i) ()
  done;
  let next = ref 0 in
  let mix () =
    let j = !next mod n in
    incr next;
    if coins.(j) then Klsm.insert h0 keys.(j) ()
    else ignore (Klsm.try_delete_min h0)
  in
  for _ = 1 to 5_000 do
    mix ()
  done;
  let dist = Klsm.internal_dist h0 in
  let dist_words =
    words_per 1_000 (fun () -> ignore (Klsm.Dist_lsm.find_min dist))
  in
  let shared_words =
    words_per 1_000 (fun () ->
        ignore (Klsm.Shared_klsm.find_min h0.Klsm.shared_h))
  in
  let mix_words = words_per 20_000 mix in
  let report what w bound =
    check_bool (Printf.sprintf "%s: %.1f words <= %.0f" what w bound) true
      (w <= bound)
  in
  report "Dist_lsm.find_min" dist_words 2.;
  report "Shared_klsm.find_min" shared_words 4.;
  report "mix op" mix_words 60.

(* ---------------- golden Sim schedules ---------------- *)

(* A fixed-seed Sim run is a pure function of the code's sequence of
   ticks and atomic accesses.  These pin the popped-key sequence and the
   virtual makespan of two runs, so a change that reorders a [B.tick],
   [B.get], [B.set] or CAS on the queue paths (or perturbs an RNG stream)
   shows up here, not only as a drifted benchmark number.  Changing the
   expected values is legitimate only for a change that means to alter
   the schedule, and says so.

   Last re-recorded when the merge cascade stopped writing [filled] once
   per appended item (block builders now count locally and write it once)
   and pooled merges stopped reading the flags of their [Private]
   intermediates (DESIGN.md §11, "One-touch merges").  Both drop Sim
   accesses by design; the pop counts did not move. *)
let golden_run spec ~threads ~seed =
  Sim.configure ~seed ~policy:(Sim.Random_preempt 0.25) ();
  let module R = Klsm_harness.Registry.Make (Sim) in
  let spec =
    match R.parse_spec spec with Ok s -> s | Error e -> failwith e
  in
  let inst = R.make ~seed ~num_threads:threads spec in
  let got = Array.make threads [] in
  Sim.parallel_run ~num_threads:threads (fun tid ->
      let h = inst.R.register tid in
      let rng = Xoshiro.create ~seed:(seed + (31 * tid)) in
      for _ = 1 to 600 do
        h.R.insert (Xoshiro.int rng 100_000) tid
      done;
      for _ = 1 to 1200 do
        if Xoshiro.bool rng then h.R.insert (Xoshiro.int rng 100_000) tid
        else
          match h.R.try_delete_min () with
          | Some (k, _) -> got.(tid) <- k :: got.(tid)
          | None -> ()
      done;
      let misses = ref 0 in
      while !misses < 32 do
        match h.R.try_delete_min () with
        | Some (k, _) ->
            got.(tid) <- k :: got.(tid);
            misses := 0
        | None -> incr misses
      done);
  let per_thread =
    Array.to_list
      (Array.map
         (fun l -> String.concat "," (List.rev_map string_of_int l))
         got)
  in
  ( Array.fold_left (fun acc l -> acc + List.length l) 0 got,
    Digest.to_hex (Digest.string (String.concat "|" per_thread)),
    Printf.sprintf "%h" (Sim.makespan ()) )

let test_golden spec ~threads ~pops ~digest ~makespan () =
  let n, d, m = golden_run spec ~threads ~seed:2024 in
  check_int "pops" pops n;
  check_string "popped-key digest" digest d;
  check_string "virtual makespan" makespan m

let () =
  Alcotest.run "klsm"
    [
      ( "exactness",
        [ prop_klsm_single_thread_exact; prop_dlsm_single_thread_exact ] );
      ( "multi-handle",
        [
          prop_multi_handle_conservation;
          Alcotest.test_case "spy cross-thread" `Quick test_spy_enables_cross_thread_delete;
        ] );
      ( "relaxation",
        [ Alcotest.test_case "rho window" `Quick test_relaxation_bound_single_thread ] );
      ("runtime-k", [ Alcotest.test_case "set_k" `Quick test_set_k ]);
      ( "lazy-deletion",
        [
          Alcotest.test_case "filters condemned" `Quick test_lazy_deletion_filters;
          Alcotest.test_case "hook exactly once" `Quick test_lazy_deletion_exactly_once_hook;
        ] );
      ( "edges",
        [
          Alcotest.test_case "approximate size" `Quick test_approximate_size;
          Alcotest.test_case "validation" `Quick test_validation;
          Alcotest.test_case "empty" `Quick test_empty_queue;
          Alcotest.test_case "duplicates" `Quick test_duplicate_keys;
          Alcotest.test_case "consolidate_local" `Quick test_consolidate_local_exposed;
        ] );
      ( "allocation",
        [
          Alcotest.test_case "steady-state budget" `Quick
            test_allocation_budget;
        ] );
      ( "golden-sim",
        [
          Alcotest.test_case "klsm:256 T=4" `Quick
            (test_golden "klsm:256" ~threads:4 ~pops:4768
               ~digest:"2d55aed48a956b3a8c3c07082df3f6f0"
               ~makespan:"0x1.11e9a11b29ce5p-10");
          Alcotest.test_case "klsm-sharded:1024:4 T=8" `Quick
            (test_golden "klsm-sharded:1024:4" ~threads:8 ~pops:9657
               ~digest:"fabdeb628b194bcf432e22d855cef0b0"
               ~makespan:"0x1.8b824c337c2b2p-10");
        ] );
    ]
