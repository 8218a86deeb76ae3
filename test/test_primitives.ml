(* Unit and property tests for klsm_primitives: the seeded RNG, tabulation
   hashing, Bloom filters, backoff, bit utilities and statistics. *)

open Helpers
module Xoshiro = Klsm_primitives.Xoshiro
module Tabular_hash = Klsm_primitives.Tabular_hash
module Bloom = Klsm_primitives.Bloom
module Backoff = Klsm_primitives.Backoff
module Bits = Klsm_primitives.Bits
module Stats = Klsm_primitives.Stats

(* ---------------- Xoshiro ---------------- *)

let test_rng_deterministic () =
  let a = Xoshiro.create ~seed:42 and b = Xoshiro.create ~seed:42 in
  for _ = 1 to 1000 do
    check_bool "same stream" true (Xoshiro.next a = Xoshiro.next b)
  done

let test_rng_seed_sensitivity () =
  let a = Xoshiro.create ~seed:1 and b = Xoshiro.create ~seed:2 in
  let different = ref false in
  for _ = 1 to 10 do
    if Xoshiro.next a <> Xoshiro.next b then different := true
  done;
  check_bool "streams differ" true !different

let test_rng_split_decorrelates () =
  let a = Xoshiro.create ~seed:7 in
  let b = Xoshiro.split a in
  let equal = ref 0 in
  for _ = 1 to 100 do
    if Xoshiro.next a = Xoshiro.next b then incr equal
  done;
  check_bool "split streams differ" true (!equal < 5)

let test_rng_copy () =
  let a = Xoshiro.create ~seed:9 in
  ignore (Xoshiro.next a);
  let b = Xoshiro.copy a in
  check_bool "copy replays" true (Xoshiro.next a = Xoshiro.next b)

let prop_int_bounds =
  qtest "Xoshiro.int stays in bounds"
    QCheck2.Gen.(pair (int_range 1 1_000_000) int)
    (fun (bound, seed) ->
      let rng = Xoshiro.create ~seed in
      let ok = ref true in
      for _ = 1 to 100 do
        let v = Xoshiro.int rng bound in
        if v < 0 || v >= bound then ok := false
      done;
      !ok)

let prop_int_in_bounds =
  qtest "Xoshiro.int_in inclusive bounds"
    QCheck2.Gen.(triple (int_range (-1000) 1000) (int_bound 2000) int)
    (fun (lo, span, seed) ->
      let hi = lo + span in
      let rng = Xoshiro.create ~seed in
      let v = Xoshiro.int_in rng ~lo ~hi in
      v >= lo && v <= hi)

let test_int_rejects_bad_bound () =
  Alcotest.check_raises "bound 0" (Invalid_argument "Xoshiro.int: bound must be positive")
    (fun () -> ignore (Xoshiro.int (Xoshiro.create ~seed:1) 0))

let test_float_unit_interval () =
  let rng = Xoshiro.create ~seed:3 in
  for _ = 1 to 1000 do
    let f = Xoshiro.float rng in
    check_bool "in [0,1)" true (f >= 0. && f < 1.)
  done

let test_int_uniformity () =
  (* Chi-squared-ish sanity: 10 buckets, 10000 draws; each bucket within
     3x-ish of the expectation. *)
  let rng = Xoshiro.create ~seed:11 in
  let buckets = Array.make 10 0 in
  for _ = 1 to 10_000 do
    let v = Xoshiro.int rng 10 in
    buckets.(v) <- buckets.(v) + 1
  done;
  Array.iter
    (fun c -> check_bool "bucket sane" true (c > 700 && c < 1300))
    buckets

let test_geometric_mean () =
  let rng = Xoshiro.create ~seed:13 in
  let sum = ref 0 in
  for _ = 1 to 10_000 do
    sum := !sum + Xoshiro.geometric rng ~p:0.5
  done;
  (* Mean of Geom(0.5) failures-before-success is 1. *)
  let mean = float_of_int !sum /. 10_000. in
  check_bool "geometric mean ~1" true (mean > 0.9 && mean < 1.1)

let test_shuffle_permutes () =
  let rng = Xoshiro.create ~seed:17 in
  let a = Array.init 50 Fun.id in
  Xoshiro.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  check_bool "same multiset" true (sorted = Array.init 50 Fun.id);
  check_bool "actually moved" true (a <> Array.init 50 Fun.id)

(* Known answers for seed 42.  The stream must never change: every seeded
   benchmark, Sim schedule and golden test downstream is a function of it,
   so a representation change of the state has to reproduce these
   exactly.  Draws are made in order, one helper call at a time. *)
let test_rng_known_answers () =
  let r = Xoshiro.create ~seed:42 in
  let draws n f =
    let rec go i acc =
      if i = n then List.rev acc else go (i + 1) (f () :: acc)
    in
    go 0 []
  in
  Alcotest.(check (list int64))
    "next"
    [
      1546998764402558742L;
      6990951692964543102L;
      -5902157311460992607L;
      -1389169964527427423L;
    ]
    (draws 4 (fun () -> Xoshiro.next r));
  check_list_int "int, power-of-two bound" [ 921; 142; 876; 33 ]
    (draws 4 (fun () -> Xoshiro.int r 1024));
  check_list_int "int, other bound" [ 239; 271; 412; 473 ]
    (draws 4 (fun () -> Xoshiro.int r 1000));
  check_list_int "int, bound 3" [ 2; 2; 0; 2 ]
    (draws 4 (fun () -> Xoshiro.int r 3));
  Alcotest.(check (list (float 0.0)))
    "float"
    [ 0x1.3bc82b3db539dp-1; 0x1.b3e966a9d8708p-1; 0x1.6a42be87da863p-1 ]
    (draws 3 (fun () -> Xoshiro.float r));
  Alcotest.(check (list bool))
    "bool"
    [ false; true; true; true; true; false; false; false ]
    (draws 8 (fun () -> Xoshiro.bool r));
  check_list_int "bits30" [ 847313216; 681886995 ]
    (draws 2 (fun () -> Xoshiro.bits30 r));
  let s = Xoshiro.split r in
  Alcotest.(check (list int64))
    "split child"
    [ 7175719167728100748L; 2744294198334365333L ]
    (draws 2 (fun () -> Xoshiro.next s));
  Alcotest.(check int64) "after split" 7641949415949548541L (Xoshiro.next r);
  let c = Xoshiro.copy r in
  Alcotest.(check int64) "copy" (-6959378832267662534L) (Xoshiro.next c);
  Alcotest.(check int64) "copied from" (-6959378832267662534L) (Xoshiro.next r)

(* ---------------- Tabulation hashing ---------------- *)

let test_hash_deterministic () =
  let h1 = Tabular_hash.create ~seed:5 and h2 = Tabular_hash.create ~seed:5 in
  for key = 0 to 100 do
    check_bool "same function" true
      (Tabular_hash.hash h1 key = Tabular_hash.hash h2 key)
  done

let test_hash_seed_changes_function () =
  let h1 = Tabular_hash.create ~seed:5 and h2 = Tabular_hash.create ~seed:6 in
  let diff = ref 0 in
  for key = 0 to 100 do
    if Tabular_hash.hash h1 key <> Tabular_hash.hash h2 key then incr diff
  done;
  check_bool "functions differ" true (!diff > 90)

let prop_hash_non_negative =
  qtest "hash is non-negative" QCheck2.Gen.int (fun key ->
      Tabular_hash.hash (Tabular_hash.create ~seed:1) key >= 0)

let test_hash_pair_spread () =
  (* The two components should not be trivially equal. *)
  let h = Tabular_hash.create ~seed:8 in
  let equal = ref 0 in
  for key = 0 to 999 do
    let a, b = Tabular_hash.hash_pair h key in
    if a land 63 = b land 63 then incr equal
  done;
  check_bool "components independent-ish" true (!equal < 100)

(* ---------------- Bloom ---------------- *)

let hasher = Tabular_hash.create ~seed:99

let prop_bloom_no_false_negative =
  qtest "no false negatives"
    QCheck2.Gen.(list_size (int_bound 50) (int_bound 200))
    (fun tids ->
      let f =
        List.fold_left
          (fun acc tid -> Bloom.union acc (Bloom.singleton ~hasher tid))
          Bloom.empty tids
      in
      List.for_all
        (fun tid -> Bloom.covers f (Bloom.singleton ~hasher tid))
        tids)

let test_bloom_empty () =
  check_bool "empty contains nothing" false
    (Bloom.covers Bloom.empty (Bloom.singleton ~hasher 3));
  check_bool "is_empty" true (Bloom.is_empty Bloom.empty)

let test_bloom_false_positive_rate () =
  (* One inserted tid; most others should not match. *)
  let f = Bloom.singleton ~hasher 0 in
  let fp = ref 0 in
  for tid = 1 to 1000 do
    if Bloom.covers f (Bloom.singleton ~hasher tid) then incr fp
  done;
  check_bool "fp rate small" true (!fp < 50)

let test_bloom_population () =
  check_int "empty pop" 0 (Bloom.population Bloom.empty);
  let p = Bloom.population (Bloom.singleton ~hasher 7) in
  check_bool "singleton pop 1 or 2" true (p = 1 || p = 2)

let prop_bloom_union_monotone =
  qtest "union preserves membership"
    QCheck2.Gen.(pair (int_bound 100) (int_bound 100))
    (fun (a, b) ->
      let fa = Bloom.singleton ~hasher a and fb = Bloom.singleton ~hasher b in
      let u = Bloom.union fa fb in
      Bloom.covers u (Bloom.singleton ~hasher a)
      && Bloom.covers u (Bloom.singleton ~hasher b))

(* ---------------- Backoff ---------------- *)

let test_backoff_growth () =
  let b = Backoff.create ~min:1 ~max:8 () in
  let relax _ = () in
  check_int "start" 1 (Backoff.current b);
  Backoff.once b ~relax;
  check_int "doubled" 2 (Backoff.current b);
  Backoff.once b ~relax;
  Backoff.once b ~relax;
  Backoff.once b ~relax;
  check_int "capped" 8 (Backoff.current b);
  Backoff.reset b;
  check_int "reset" 1 (Backoff.current b)

let test_backoff_counts_relaxes () =
  let b = Backoff.create ~min:4 ~max:4 () in
  let n = ref 0 in
  Backoff.once b ~relax:(fun steps -> n := !n + steps);
  check_int "4 relaxes" 4 !n

let test_backoff_validation () =
  Alcotest.check_raises "bad min" (Invalid_argument "Backoff.create")
    (fun () -> ignore (Backoff.create ~min:0 ()))

(* Decorrelated jitter (AWS-style): next = min + U[0, 3*cur - min), clamped
   to [min, max].  Bounds must hold along any trajectory, the same seed
   must replay the same trajectory, and a jitter-free instance must keep
   the exact legacy doubling behaviour (Sim determinism depends on it). *)
let test_backoff_jitter_bounds () =
  let rng = Xoshiro.create ~seed:99 in
  let b = Backoff.create ~min:2 ~max:64 ~jitter:rng () in
  for _ = 1 to 200 do
    let spins = ref 0 in
    Backoff.once b ~relax:(fun n -> spins := n);
    check_bool "relaxed within [min,max]" true (!spins >= 2 && !spins <= 64);
    check_bool "state within [min,max]" true
      (Backoff.current b >= 2 && Backoff.current b <= 64)
  done

let test_backoff_jitter_deterministic () =
  let trajectory seed =
    let b =
      Backoff.create ~min:1 ~max:512 ~jitter:(Xoshiro.create ~seed) ()
    in
    List.init 50 (fun _ ->
        let n = ref 0 in
        Backoff.once b ~relax:(fun s -> n := !n + s);
        !n)
  in
  check_list_int "same seed, same delays" (trajectory 5) (trajectory 5);
  check_bool "different seed diverges" true (trajectory 5 <> trajectory 6)

let test_backoff_no_jitter_unchanged () =
  (* Without ~jitter the schedule is the deterministic doubling ramp. *)
  let b = Backoff.create ~min:1 ~max:16 () in
  let seen =
    List.init 6 (fun _ ->
        let n = ref 0 in
        Backoff.once b ~relax:(fun s -> n := !n + s);
        !n)
  in
  check_list_int "pure doubling" [ 1; 2; 4; 8; 16; 16 ] seen

(* ---------------- Bits ---------------- *)

let prop_ceil_log2 =
  qtest "ceil_log2 spec" QCheck2.Gen.(int_range 1 (1 lsl 40)) (fun n ->
      let l = Bits.ceil_log2 n in
      (1 lsl l) >= n && (l = 0 || 1 lsl (l - 1) < n))

let prop_floor_log2 =
  qtest "floor_log2 spec" QCheck2.Gen.(int_range 1 (1 lsl 40)) (fun n ->
      let l = Bits.floor_log2 n in
      (1 lsl l) <= n && n < 1 lsl (l + 1))

let test_powers () =
  check_bool "pow2 1" true (Bits.is_power_of_two 1);
  check_bool "pow2 64" true (Bits.is_power_of_two 64);
  check_bool "not pow2 63" false (Bits.is_power_of_two 63);
  check_int "next pow 1" 1 (Bits.next_power_of_two 1);
  check_int "next pow 5" 8 (Bits.next_power_of_two 5);
  check_int "next pow 8" 8 (Bits.next_power_of_two 8)

(* ---------------- Stats ---------------- *)

let test_stats_known () =
  let s = Stats.summarize [| 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. |] in
  check_bool "mean" true (abs_float (s.Stats.mean -. 5.) < 1e-9);
  check_bool "stddev" true (abs_float (s.Stats.stddev -. 2.13809) < 1e-3);
  check_bool "min/max" true (s.Stats.min = 2. && s.Stats.max = 9.)

let test_stats_single () =
  let s = Stats.summarize [| 3.14 |] in
  check_bool "single" true (s.Stats.stddev = 0. && s.Stats.ci95 = 0.)

let test_stats_percentile () =
  let xs = Array.init 101 float_of_int in
  check_bool "p50" true (Stats.percentile xs 50. = 50.);
  check_bool "p0" true (Stats.percentile xs 0. = 0.);
  check_bool "p100" true (Stats.percentile xs 100. = 100.);
  check_bool "median" true (Stats.median [| 1.; 2.; 3.; 4. |] = 2.5)

let test_stats_t_table () =
  check_bool "df1" true (abs_float (Stats.t_critical_95 1 -. 12.706) < 1e-9);
  check_bool "df30" true (abs_float (Stats.t_critical_95 30 -. 2.042) < 1e-9);
  check_bool "asymptotic" true (Stats.t_critical_95 1000 = 1.96)

let prop_stats_mean_bounds =
  qtest "mean within min/max"
    QCheck2.Gen.(list_size (int_range 1 50) (float_bound_inclusive 1000.))
    (fun xs ->
      let a = Array.of_list xs in
      let s = Stats.summarize a in
      s.Stats.mean >= s.Stats.min -. 1e-9 && s.Stats.mean <= s.Stats.max +. 1e-9)

let () =
  Alcotest.run "primitives"
    [
      ( "xoshiro",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_rng_seed_sensitivity;
          Alcotest.test_case "split decorrelates" `Quick test_rng_split_decorrelates;
          Alcotest.test_case "copy replays" `Quick test_rng_copy;
          prop_int_bounds;
          prop_int_in_bounds;
          Alcotest.test_case "bad bound" `Quick test_int_rejects_bad_bound;
          Alcotest.test_case "float in [0,1)" `Quick test_float_unit_interval;
          Alcotest.test_case "uniformity" `Quick test_int_uniformity;
          Alcotest.test_case "geometric mean" `Quick test_geometric_mean;
          Alcotest.test_case "shuffle permutes" `Quick test_shuffle_permutes;
          Alcotest.test_case "known answers" `Quick test_rng_known_answers;
        ] );
      ( "tabular-hash",
        [
          Alcotest.test_case "deterministic" `Quick test_hash_deterministic;
          Alcotest.test_case "seed changes function" `Quick test_hash_seed_changes_function;
          prop_hash_non_negative;
          Alcotest.test_case "pair spread" `Quick test_hash_pair_spread;
        ] );
      ( "bloom",
        [
          prop_bloom_no_false_negative;
          Alcotest.test_case "empty" `Quick test_bloom_empty;
          Alcotest.test_case "fp rate" `Quick test_bloom_false_positive_rate;
          Alcotest.test_case "population" `Quick test_bloom_population;
          prop_bloom_union_monotone;
        ] );
      ( "backoff",
        [
          Alcotest.test_case "growth and reset" `Quick test_backoff_growth;
          Alcotest.test_case "counts relaxes" `Quick test_backoff_counts_relaxes;
          Alcotest.test_case "validation" `Quick test_backoff_validation;
          Alcotest.test_case "jitter bounds" `Quick test_backoff_jitter_bounds;
          Alcotest.test_case "jitter deterministic" `Quick
            test_backoff_jitter_deterministic;
          Alcotest.test_case "no-jitter path unchanged" `Quick
            test_backoff_no_jitter_unchanged;
        ] );
      ("bits", [ prop_ceil_log2; prop_floor_log2; Alcotest.test_case "powers" `Quick test_powers ]);
      ( "stats",
        [
          Alcotest.test_case "known values" `Quick test_stats_known;
          Alcotest.test_case "single sample" `Quick test_stats_single;
          Alcotest.test_case "percentiles" `Quick test_stats_percentile;
          Alcotest.test_case "t table" `Quick test_stats_t_table;
          prop_stats_mean_bounds;
        ] );
    ]
