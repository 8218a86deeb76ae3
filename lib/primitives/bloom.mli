(** 64-bit Bloom filters over thread identifiers.

    The shared k-LSM attaches one of these to every block to remember which
    threads contributed items to it (Section 4.1, "Local ordering
    semantics").  A thread performing [find_min] must consider the minimum of
    every block that may contain its own items, so false positives only cost
    an extra comparison while false negatives would break local ordering —
    hence a Bloom filter is exactly the right trade.

    Filters are plain immutable integers ([t = int]): blocks are only ever
    written by their owning thread before publication, so no atomicity is
    needed (the paper makes the same observation). *)

type t = private int
(** 63 bits (an OCaml int); bit [i] set means "some thread hashing to [i]
    contributed".  The paper uses 64 bits; OCaml ints give us 63, an epsilon
    difference in the false-positive rate. *)

val empty : t
(** The filter of a block with no contributors. *)

val full : t
(** The conservative filter that may contain every thread — used when a
    block's provenance is unknown (e.g. blocks adopted by {!Klsm.meld}),
    costing extra scans but never a lost local-ordering guarantee. *)

val singleton : hasher:Tabular_hash.t -> int -> t
(** [singleton ~hasher tid] marks thread [tid] via two tabulation hashes. *)

val union : t -> t -> t
(** Filter of a merged block: bitwise or. *)

val covers : t -> t -> bool
(** [covers t (singleton ~hasher tid)] is [false] only if thread [tid]
    definitely contributed nothing to [t] (no false negatives).  A plain
    bit test: hot loops compute a thread's {!singleton} once and test
    every block's filter against it. *)

val is_empty : t -> bool

val population : t -> int
(** Number of set bits; used by tests and diagnostics. *)
