type t = int

let empty = 0
let full = -1  (* all 63 bits set: "may contain any thread" *)

(* OCaml ints carry 63 bits, so the filter uses bit positions 0..62 (shifts
   beyond 62 are unspecified).  One bit fewer than the paper's 64 is an
   epsilon on the false-positive rate. *)
let singleton ~hasher tid =
  let h1, h2 = Tabular_hash.hash_pair hasher tid in
  (1 lsl (h1 mod 63)) lor (1 lsl (h2 mod 63))

let union a b = a lor b

let covers t mine = t land mine = mine

let is_empty t = t = 0

let population t =
  let rec go acc t = if t = 0 then acc else go (acc + 1) (t land (t - 1)) in
  go 0 t
