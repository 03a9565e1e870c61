(* A power-of-two circular buffer; [dummy] fills vacated slots so a taken
   element is not kept alive by the buffer. *)

type 'a t = {
  mutable buf : 'a array;
  mutable head : int;
  mutable len : int;
  dummy : 'a;
}

let create ~dummy = { buf = Array.make 8 dummy; head = 0; len = 0; dummy }
let length t = t.len
let is_empty t = t.len = 0

let add t x =
  let cap = Array.length t.buf in
  if t.len = cap then begin
    let buf = Array.make (2 * cap) t.dummy in
    for i = 0 to t.len - 1 do
      buf.(i) <- t.buf.((t.head + i) land (cap - 1))
    done;
    t.buf <- buf;
    t.head <- 0
  end;
  t.buf.((t.head + t.len) land (Array.length t.buf - 1)) <- x;
  t.len <- t.len + 1

let peek t =
  if t.len = 0 then invalid_arg "Ring.peek: empty";
  t.buf.(t.head)

let take t =
  if t.len = 0 then invalid_arg "Ring.take: empty";
  let x = t.buf.(t.head) in
  t.buf.(t.head) <- t.dummy;
  t.head <- (t.head + 1) land (Array.length t.buf - 1);
  t.len <- t.len - 1;
  x

let iter t f =
  for i = 0 to t.len - 1 do
    f t.buf.((t.head + i) land (Array.length t.buf - 1))
  done

let clear t =
  Array.fill t.buf 0 (Array.length t.buf) t.dummy;
  t.head <- 0;
  t.len <- 0
