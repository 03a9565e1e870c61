(** IPv4 headers (no options), RFC 791.

    Kept deliberately minimal: the testbed is a single LAN, so there is no
    fragmentation or routing; the header exists so that frame byte layouts —
    and hence FSL filter offsets — match a real wire format, and so that the
    MODIFY fault can corrupt a checksum that receivers genuinely verify. *)

type t = {
  tos : int;
  ttl : int;
  protocol : int;
  ident : int;
  src : Ip_addr.t;
  dst : Ip_addr.t;
  payload : bytes;
}

val header_size : int
(** 20 bytes. *)

val protocol_udp : int (* 17 *)
val protocol_tcp : int (* 6 *)

val make :
  ?tos:int -> ?ttl:int -> ?ident:int ->
  protocol:int -> src:Ip_addr.t -> dst:Ip_addr.t -> bytes -> t

val max_size : int
(** 65535: the largest packet (header included) the 16-bit total-length
    field can describe. There is no fragmentation. *)

val header_buffer :
  tos:int ->
  ttl:int ->
  ident:int ->
  protocol:int ->
  src:Ip_addr.t ->
  dst:Ip_addr.t ->
  payload_len:int ->
  bytes
(** A packet buffer of [header_size + payload_len] bytes whose header is
    written (checksum included) and whose payload, from {!header_size}
    on, is left for the caller to fill: how a transport writes its
    segment straight into the packet. {!to_bytes} is this plus a copy of
    the payload. @raise Invalid_argument as {!to_bytes}. *)

val to_bytes : t -> bytes
(** Serializes with a correct header checksum.
    @raise Invalid_argument if the packet would exceed {!max_size} bytes,
    which its total-length field could not describe. *)

val of_bytes : bytes -> (t, string) result
(** Parses and verifies the header checksum; [Error] describes the failure
    (truncation, bad version, checksum mismatch). Corrupted packets are
    dropped by the stack exactly as a real IP layer would. *)

val pp : Format.formatter -> t -> unit
