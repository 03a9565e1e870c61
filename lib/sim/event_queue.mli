(** A priority queue of timestamped events with stable FIFO tie-breaking.

    Events scheduled for the same instant fire in insertion order, which
    keeps simulations deterministic — the engine's cascade (packet arrival →
    counter update → control message) frequently schedules several events at
    the same nanosecond. *)

type 'a t

type 'a handle
(** Identifies a scheduled event for cancellation. *)

val create : unit -> 'a t
val is_empty : 'a t -> bool
val length : 'a t -> int
(** Number of queued events. Cancelled events are gone, not counted. *)

val push : 'a t -> time:Simtime.t -> 'a -> 'a handle
val cancel : 'a t -> 'a handle -> unit
(** Removes the event from the queue in O(log n). Cancelling an
    already-fired or already-cancelled event, or one queued elsewhere, is a
    no-op. *)

val earliest_time : 'a t -> Simtime.t
(** Time of the earliest event, which stays queued.
    @raise Invalid_argument if the queue is empty. *)

val take : 'a t -> 'a
(** Removes the earliest event (the one {!earliest_time} describes) and
    returns its payload. Neither call allocates.
    @raise Invalid_argument if the queue is empty. *)
