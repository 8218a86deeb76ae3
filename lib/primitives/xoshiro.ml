(* The state is four 64-bit words in a 32-byte [Bytes]: reads and writes
   through [get/set_int64_ne] stay unboxed, where mutable [int64] record
   fields would box on every store.  A draw therefore allocates nothing
   unless it returns a boxed value ([next], [float]). *)
type t = Bytes.t

(* [Bytes.get_int64_ne]/[set_int64_ne], named as primitives so every
   access compiles inline whatever the cross-module inlining decides. *)
external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64"

let get t i = get64 t (8 * i)
let set t i v = set64 t (8 * i) v

(* splitmix64: expands a 64-bit seed into a stream of well-mixed words.
   Recommended by Blackman & Vigna for seeding xoshiro. *)
let splitmix64_next state =
  let open Int64 in
  state := add !state 0x9E3779B97F4A7C15L;
  let z = !state in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let of_words s0 s1 s2 s3 =
  let t = Bytes.create 32 in
  set t 0 s0;
  set t 1 s1;
  set t 2 s2;
  set t 3 s3;
  t

let of_seed seed =
  let st = ref (Int64.of_int seed) in
  let s0 = splitmix64_next st in
  let s1 = splitmix64_next st in
  let s2 = splitmix64_next st in
  let s3 = splitmix64_next st in
  of_words s0 s1 s2 s3

let create ~seed =
  let t = of_seed seed in
  (* All-zero state is invalid for xoshiro; splitmix64 cannot produce four
     zero words from any seed, but guard anyway. *)
  if Bytes.for_all (fun c -> c = '\000') t then of_words 1L 2L 3L 4L else t

let rotl x k =
  Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

(* One xoshiro256** step.  Inlined into every consumer so the output never
   leaves registers. *)
let[@inline] step t =
  let open Int64 in
  let s0 = get t 0 and s1 = get t 1 and s2 = get t 2 and s3 = get t 3 in
  let result = mul (rotl (mul s1 5L) 7) 9L in
  let tmp = shift_left s1 17 in
  let s2 = logxor s2 s0 in
  let s3 = logxor s3 s1 in
  set t 1 (logxor s1 s2);
  set t 0 (logxor s0 s3);
  set t 2 (logxor s2 tmp);
  set t 3 (rotl s3 45);
  result

let next t = step t

(* Non-negative 62-bit int from the top bits of the raw output: the int
   draw every bounded draw reduces. *)
let bits62 t = Int64.to_int (Int64.shift_right_logical (step t) 2)

let split t = of_seed (Int64.to_int (step t))
let copy t = Bytes.copy t
let bits30 t = Int64.to_int (Int64.shift_right_logical (step t) 34)

let int t bound =
  if bound <= 0 then invalid_arg "Xoshiro.int: bound must be positive";
  if bound land (bound - 1) = 0 then bits62 t land (bound - 1)
  else begin
    (* Rejection sampling over the largest multiple of [bound] below 2^62. *)
    let max62 = (1 lsl 62) - 1 in
    let limit = max62 - (((max62 mod bound) + 1) mod bound) in
    let r = ref (bits62 t) in
    while !r > limit do
      r := bits62 t
    done;
    !r mod bound
  end

let int_in t ~lo ~hi =
  if hi < lo then invalid_arg "Xoshiro.int_in: empty range";
  lo + int t (hi - lo + 1)

let float t =
  Int64.to_float (Int64.shift_right_logical (step t) 11) *. 0x1.0p-53

let bool t = Int64.logand (step t) 1L <> 0L

let geometric t ~p =
  if not (p > 0. && p <= 1.) then invalid_arg "Xoshiro.geometric: p in (0,1]";
  let rec count acc = if float t < p then acc else count (acc + 1) in
  count 0

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done
