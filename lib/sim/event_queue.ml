(* Binary min-heap ordered by (time, sequence number). Every entry records
   its heap slot, so cancellation removes it in O(log n) instead of leaving
   a dead entry behind. *)

type 'a entry = {
  time : Simtime.t;
  seq : int;
  payload : 'a;
  mutable slot : int; (* index in [heap], or -1 once popped or cancelled *)
}

type 'a handle = 'a entry

type 'a t = {
  mutable heap : 'a entry array;
  mutable size : int;
  mutable next_seq : int;
}

let create () = { heap = [||]; size = 0; next_seq = 0 }
let is_empty t = t.size = 0
let length t = t.size

let before a b = a.time < b.time || (a.time = b.time && a.seq < b.seq)

let place t i e =
  t.heap.(i) <- e;
  e.slot <- i

(* Move [e] from the hole at [i] towards the root until its parent is
   earlier. *)
let rec sift_up t i e =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    let p = t.heap.(parent) in
    if before e p then begin
      place t i p;
      sift_up t parent e
    end
    else place t i e
  end
  else place t i e

let rec sift_down t i e =
  let l = (2 * i) + 1 in
  if l >= t.size then place t i e
  else begin
    let r = l + 1 in
    let c = if r < t.size && before t.heap.(r) t.heap.(l) then r else l in
    let child = t.heap.(c) in
    if before child e then begin
      place t i child;
      sift_down t c e
    end
    else place t i e
  end

let push t ~time payload =
  let entry = { time; seq = t.next_seq; payload; slot = -1 } in
  t.next_seq <- t.next_seq + 1;
  if t.size = Array.length t.heap then begin
    let heap = Array.make (max 16 (2 * t.size)) entry in
    Array.blit t.heap 0 heap 0 t.size;
    t.heap <- heap
  end;
  t.size <- t.size + 1;
  sift_up t (t.size - 1) entry;
  entry

(* Take the entry at slot [i] out of the heap: the last entry fills the
   hole and moves whichever way restores the order. *)
let remove_at t i =
  let removed = t.heap.(i) in
  removed.slot <- -1;
  t.size <- t.size - 1;
  if i < t.size then begin
    let last = t.heap.(t.size) in
    if i > 0 && before last t.heap.((i - 1) / 2) then sift_up t i last
    else sift_down t i last
  end;
  removed

let cancel t entry =
  (* The slot check makes cancelling a fired, cancelled or foreign entry a
     no-op. *)
  let i = entry.slot in
  if i >= 0 && i < t.size && t.heap.(i) == entry then ignore (remove_at t i)

(* The pop path is split in two so that neither half allocates: no
   option, no tuple per event. *)
let earliest_time t =
  if t.size = 0 then invalid_arg "Event_queue.earliest_time: empty queue";
  t.heap.(0).time

let take t =
  if t.size = 0 then invalid_arg "Event_queue.take: empty queue";
  (remove_at t 0).payload
