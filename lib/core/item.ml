(** Items: a key, a payload, and the logical-deletion flag (paper §4,
    "Shared components").

    Keys are native ints (the paper benchmarks integer keys).  Many pointers
    to the same [t] may coexist — blocks only ever hold pointers — and
    deletion is an atomic test-and-set on the flag, after which every block
    still referencing the item treats it as garbage to be filtered out on
    the next copy or shrink.  The representation is the backend's
    {!Klsm_backend.Backend_intf.S.flagged}: on Real, key, value and flag
    share one heap block, so a liveness test is one cache miss. *)

module Make (B : Klsm_backend.Backend_intf.S) = struct
  type 'v t = 'v B.flagged

  (** [make key value] is a live item. *)
  let make : int -> 'v -> 'v t = B.flagged

  let key : 'v t -> int = B.flagged_key
  let value : 'v t -> 'v = B.flagged_value

  (** Has the item been logically deleted? *)
  let is_taken : 'v t -> bool = B.get_flag

  (** [vacant n] is an array of [n] slots that hold an immediate, never an
      item; callers fill the slots they will read.  [Array.init n f] and
      [Array.map] would seed the array with their first item instead, and
      in OCaml 5.1 [Array.make n v] with [n > 256] ([Max_young_wosize]) and
      [v] still in the minor heap runs a full minor collection first —
      stopping every domain. *)
  let vacant n : 'v t array = Array.make n (Obj.magic 0)

  (** Attempt to logically delete; [true] iff this caller won the item.
      This is the linearization point of a successful delete-min. *)
  let take it = (not (B.get_flag it)) && B.cas_flag it false true
end
