(* A reusable dedup worklist over a dense integer id space: bitset
   membership plus an insertion-ordered vector of members. Clearing is
   sparse (only the bits of current members are reset), so a worklist
   sized once to a table dimension can be reused every cascade round
   without reallocation. *)

type t = { mutable bits : Bytes.t; mutable items : int array; mutable n : int }

let create capacity =
  let capacity = max capacity 1 in
  {
    bits = Bytes.make ((capacity + 7) lsr 3) '\000';
    items = Array.make capacity 0;
    n = 0;
  }

let ensure_bits t id =
  let needed = (id lsr 3) + 1 in
  if Bytes.length t.bits < needed then begin
    let b = Bytes.make (max needed (2 * Bytes.length t.bits)) '\000' in
    Bytes.blit t.bits 0 b 0 (Bytes.length t.bits);
    t.bits <- b
  end

let mem t id =
  id >= 0
  &&
  let byte = id lsr 3 in
  byte < Bytes.length t.bits
  && Char.code (Bytes.get t.bits byte) land (1 lsl (id land 7)) <> 0

let add t id =
  if id < 0 then invalid_arg "Worklist.add: negative id";
  if mem t id then false
  else begin
    ensure_bits t id;
    let byte = id lsr 3 in
    Bytes.set t.bits byte
      (Char.chr (Char.code (Bytes.get t.bits byte) lor (1 lsl (id land 7))));
    if t.n = Array.length t.items then begin
      let a = Array.make (2 * t.n) 0 in
      Array.blit t.items 0 a 0 t.n;
      t.items <- a
    end;
    t.items.(t.n) <- id;
    t.n <- t.n + 1;
    true
  end

let clear t =
  for i = 0 to t.n - 1 do
    let id = t.items.(i) in
    let byte = id lsr 3 in
    Bytes.set t.bits byte
      (Char.chr
         (Char.code (Bytes.get t.bits byte) land lnot (1 lsl (id land 7)) land 0xff))
  done;
  t.n <- 0

let is_empty t = t.n = 0
let length t = t.n

let get t i =
  if i < 0 || i >= t.n then invalid_arg "Worklist.get: index out of range";
  Array.unsafe_get t.items i

(* In-place insertion sort over the member vector: ids are appended in
   roughly ascending order, so this is near-linear in practice. *)
let sort t =
  for i = 1 to t.n - 1 do
    let v = t.items.(i) in
    let j = ref (i - 1) in
    while !j >= 0 && t.items.(!j) > v do
      t.items.(!j + 1) <- t.items.(!j);
      decr j
    done;
    t.items.(!j + 1) <- v
  done

let to_list t = List.init t.n (fun i -> t.items.(i))
