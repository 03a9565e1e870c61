external get16u : bytes -> int -> int = "%caml_bytes_get16u"
external bswap16 : int -> int = "%bswap16"

let[@inline] get16_be b i =
  if Sys.big_endian then get16u b i else bswap16 (get16u b i)

let ones_sum ~init b ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Bytes.length b then
    invalid_arg "Checksum.ones_sum: out of range";
  (* the range check above covers every read below *)
  let acc = ref init in
  let i = ref pos in
  let stop = pos + len in
  while !i + 1 < stop do
    acc := !acc + get16_be b !i;
    i := !i + 2
  done;
  if !i < stop then acc := !acc + (Char.code (Bytes.unsafe_get b !i) lsl 8);
  !acc

let finish acc =
  let acc = ref acc in
  while !acc lsr 16 <> 0 do
    acc := (!acc land 0xffff) + (!acc lsr 16)
  done;
  lnot !acc land 0xffff

let checksum b ~pos ~len = finish (ones_sum ~init:0 b ~pos ~len)

let is_valid b ~pos ~len = finish (ones_sum ~init:0 b ~pos ~len) = 0
