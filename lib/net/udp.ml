type t = { src_port : int; dst_port : int; payload : bytes }

let header_size = 8

let make ~src_port ~dst_port payload = { src_port; dst_port; payload }

let max_size = 0xffff

(* The six 16-bit words of the pseudo-header (src, dst, zero|protocol,
   length), summed without serializing them. *)
let pseudo_header_sum ~src ~dst ~protocol ~length =
  let s = Int32.to_int (Ip_addr.to_int32 src) land 0xffffffff in
  let d = Int32.to_int (Ip_addr.to_int32 dst) land 0xffffffff in
  (s lsr 16) + (s land 0xffff) + (d lsr 16) + (d land 0xffff)
  + (protocol land 0xff) + (length land 0xffff)

let write ~src ~dst ~src_port ~dst_port payload b ~pos =
  let len = header_size + Bytes.length payload in
  if len > max_size then
    invalid_arg
      (Printf.sprintf "Udp: %d-byte datagram exceeds %d bytes" len max_size);
  Vw_util.Hexutil.set_int_be b ~pos ~len:2 src_port;
  Vw_util.Hexutil.set_int_be b ~pos:(pos + 2) ~len:2 dst_port;
  Vw_util.Hexutil.set_int_be b ~pos:(pos + 4) ~len:2 len;
  Vw_util.Hexutil.set_int_be b ~pos:(pos + 6) ~len:2 0;
  Bytes.blit payload 0 b (pos + header_size) (Bytes.length payload);
  let init = pseudo_header_sum ~src ~dst ~protocol:Ipv4.protocol_udp ~length:len in
  let csum = Vw_util.Checksum.finish (Vw_util.Checksum.ones_sum ~init b ~pos ~len) in
  let csum = if csum = 0 then 0xffff else csum in
  Vw_util.Hexutil.set_int_be b ~pos:(pos + 6) ~len:2 csum

let to_bytes ~src ~dst t =
  let b = Bytes.create (header_size + Bytes.length t.payload) in
  write ~src ~dst ~src_port:t.src_port ~dst_port:t.dst_port t.payload b ~pos:0;
  b

let of_bytes ~src ~dst b =
  let blen = Bytes.length b in
  if blen < header_size then Error "udp: truncated header"
  else
    let len = Vw_util.Hexutil.to_int_be b ~pos:4 ~len:2 in
    if len < header_size || len > blen then Error "udp: bad length"
    else
      let wire_csum = Vw_util.Hexutil.to_int_be b ~pos:6 ~len:2 in
      let csum_ok =
        wire_csum = 0
        ||
        let init =
          pseudo_header_sum ~src ~dst ~protocol:Ipv4.protocol_udp ~length:len
        in
        Vw_util.Checksum.finish (Vw_util.Checksum.ones_sum ~init b ~pos:0 ~len) = 0
      in
      if not csum_ok then Error "udp: checksum mismatch"
      else
        Ok
          {
            src_port = Vw_util.Hexutil.to_int_be b ~pos:0 ~len:2;
            dst_port = Vw_util.Hexutil.to_int_be b ~pos:2 ~len:2;
            payload = Bytes.sub b header_size (len - header_size);
          }

let pp ppf t =
  Format.fprintf ppf "[udp %d -> %d len=%d]" t.src_port t.dst_port
    (Bytes.length t.payload)
