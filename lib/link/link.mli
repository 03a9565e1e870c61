(** Point-to-point full-duplex Ethernet links, and the wire physics every
    medium shares.

    A link has two endpoints and gives each direction an independent
    channel. Frames handed to [send] are serialized at the configured
    bandwidth, experience propagation delay, and may be lost or corrupted.
    The shared half-duplex segment is {!Bus}, which takes the same
    [config] and draws the same impairments. *)

type config = {
  bandwidth_bps : float;  (** e.g. 100e6 for the paper's 100 Mbps testbed *)
  propagation : Vw_sim.Simtime.t;
  loss_rate : float;  (** probability a frame is silently lost *)
  corrupt_rate : float;  (** probability one payload byte is flipped *)
  max_queue : int;  (** per-endpoint transmit queue bound (frames) *)
}

val default_config : config
(** 100 Mbps, 5 µs propagation, lossless, queue of 64. *)

val tx_time : config -> int -> Vw_sim.Simtime.t
(** Serialization time of a frame of the given length in bytes. *)

val lost : config -> Vw_util.Prng.t -> Media_stats.t -> bool
(** The loss draw for one frame copy; counts [dropped_loss] when it hits. *)

val corrupt : config -> Vw_util.Prng.t -> Media_stats.t -> bytes -> bytes
(** For a copy that survived {!lost}: the corruption draw, then the byte
    position, then the xor value. Returns the frame itself, or a copy with
    one byte flipped (counting [corrupted]). *)

type t
type endpoint

val create : Vw_sim.Engine.t -> config -> t
val endpoint_a : t -> endpoint
val endpoint_b : t -> endpoint
val stats : t -> Media_stats.t
val config : t -> config

val send : endpoint -> bytes -> unit
(** Queue a frame for transmission from this endpoint. *)

val set_receive : endpoint -> (bytes -> unit) -> unit
(** Install the frame-arrival callback for this endpoint (frames sent by the
    peer). Replaces any previous callback. *)

val queue_length : endpoint -> int

val set_down : t -> bool -> unit
(** [set_down t true] makes the link silently eat every frame — used to
    emulate a cable pull. *)
