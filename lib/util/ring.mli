(** Growable FIFO rings.

    The per-frame FIFOs below the FIE (a link direction's transmit queue
    and the frames on its wire, a switch port's forwarding queue, a bus
    endpoint's transmit queue, the trace tap) keep their frames here
    rather than in a [Queue.t] or in per-frame closures: once a ring has
    grown to the depth its traffic needs, adding and taking allocate
    nothing. *)

type 'a t

val create : dummy:'a -> 'a t
(** An empty ring. [dummy] fills empty slots; it is never returned. *)

val length : 'a t -> int
val is_empty : 'a t -> bool

val add : 'a t -> 'a -> unit
(** Append at the tail, doubling the buffer when full. *)

val peek : 'a t -> 'a
(** The head, left in place. @raise Invalid_argument if empty. *)

val take : 'a t -> 'a
(** Remove and return the head. @raise Invalid_argument if empty. *)

val iter : 'a t -> ('a -> unit) -> unit
(** Visit every element, head to tail. *)

val clear : 'a t -> unit
(** Remove every element, keeping the grown buffer. *)
