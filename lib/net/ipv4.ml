type t = {
  tos : int;
  ttl : int;
  protocol : int;
  ident : int;
  src : Ip_addr.t;
  dst : Ip_addr.t;
  payload : bytes;
}

let header_size = 20
let protocol_udp = 17
let protocol_tcp = 6

let make ?(tos = 0) ?(ttl = 64) ?(ident = 0) ~protocol ~src ~dst payload =
  { tos; ttl; protocol; ident; src; dst; payload }

let max_size = 0xffff

let header_buffer ~tos ~ttl ~ident ~protocol ~src ~dst ~payload_len =
  let total = header_size + payload_len in
  if total > max_size then
    invalid_arg
      (Printf.sprintf "Ipv4: %d-byte packet exceeds %d bytes" total max_size);
  let b = Bytes.create total in
  Bytes.set b 0 '\x45' (* version 4, IHL 5 *);
  Bytes.set b 1 (Char.chr (tos land 0xff));
  Vw_util.Hexutil.set_int_be b ~pos:2 ~len:2 total;
  Vw_util.Hexutil.set_int_be b ~pos:4 ~len:2 (ident land 0xffff);
  Vw_util.Hexutil.set_int_be b ~pos:6 ~len:2 0 (* flags/fragment *);
  Bytes.set b 8 (Char.chr (ttl land 0xff));
  Bytes.set b 9 (Char.chr (protocol land 0xff));
  Vw_util.Hexutil.set_int_be b ~pos:10 ~len:2 0 (* checksum placeholder *);
  Ip_addr.write src b ~pos:12;
  Ip_addr.write dst b ~pos:16;
  let csum = Vw_util.Checksum.checksum b ~pos:0 ~len:header_size in
  Vw_util.Hexutil.set_int_be b ~pos:10 ~len:2 csum;
  b

let to_bytes t =
  let b =
    header_buffer ~tos:t.tos ~ttl:t.ttl ~ident:t.ident ~protocol:t.protocol
      ~src:t.src ~dst:t.dst ~payload_len:(Bytes.length t.payload)
  in
  Bytes.blit t.payload 0 b header_size (Bytes.length t.payload);
  b

let of_bytes b =
  let len = Bytes.length b in
  if len < header_size then Error "ipv4: truncated header"
  else
    let vihl = Char.code (Bytes.get b 0) in
    if vihl <> 0x45 then
      Error (Printf.sprintf "ipv4: unsupported version/IHL 0x%02x" vihl)
    else if not (Vw_util.Checksum.is_valid b ~pos:0 ~len:header_size) then
      Error "ipv4: header checksum mismatch"
    else
      let total = Vw_util.Hexutil.to_int_be b ~pos:2 ~len:2 in
      if total < header_size || total > len then Error "ipv4: bad total length"
      else
        Ok
          {
            tos = Char.code (Bytes.get b 1);
            ttl = Char.code (Bytes.get b 8);
            protocol = Char.code (Bytes.get b 9);
            ident = Vw_util.Hexutil.to_int_be b ~pos:4 ~len:2;
            src = Ip_addr.of_bytes b ~pos:12;
            dst = Ip_addr.of_bytes b ~pos:16;
            payload = Bytes.sub b header_size (total - header_size);
          }

let pp ppf t =
  Format.fprintf ppf "[ipv4 %a -> %a proto=%d len=%d]" Ip_addr.pp t.src
    Ip_addr.pp t.dst t.protocol (Bytes.length t.payload)
