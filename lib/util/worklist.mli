(** Reusable dedup worklists over dense integer ids.

    The FIE's rule cascade repeatedly collects "affected" term / condition /
    counter ids, deduplicates them, and walks them in order. Doing that with
    [List.sort_uniq] and [List.mem] allocates a fresh worklist per round; a
    [Worklist.t] is allocated once per runtime (sized to the table
    dimension), deduplicates with a bitset, preserves insertion order, and
    clears sparsely in O(members). *)

type t

val create : int -> t
(** [create capacity] makes an empty worklist expecting ids in
    [0, capacity). Larger ids still work (the bitset grows). *)

val add : t -> int -> bool
(** [add t id] appends [id] unless already present; returns whether it was
    newly added. @raise Invalid_argument on a negative id. *)

val mem : t -> int -> bool
val clear : t -> unit
(** Sparse reset: O(current members), not O(capacity). *)

val is_empty : t -> bool
val length : t -> int

val get : t -> int -> int
(** [get t i] is the [i]-th member in insertion (or, after {!sort},
    ascending) order; the cascade walks its worklists this way, without
    a closure. @raise Invalid_argument unless [0 <= i < length t]. *)

val sort : t -> unit
(** Sort the members ascending, in place (insertion sort — members arrive
    nearly sorted). *)

val to_list : t -> int list
