(* Clock, sample statistics and the result record every workload returns. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let secs_of_ns ns = float_of_int ns /. 1e9

(* Linear-interpolated quantile of an ascending array, [q] in [0, 1]. *)
let quantile_sorted a q =
  let n = Array.length a in
  if n = 0 then nan
  else
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    if i >= n - 1 then a.(n - 1)
    else
      let frac = pos -. float_of_int i in
      a.(i) +. (frac *. (a.(i + 1) -. a.(i)))

let sorted_copy a =
  let b = Array.copy a in
  Array.sort compare b;
  b

let median a = quantile_sorted (sorted_copy a) 0.5

(* The highest percentile with at least 10 samples beyond it: of [n]
   samples, the 11th largest, which is percentile [tail_percentile n]. *)
let tail_beyond_10 a =
  let s = sorted_copy a in
  s.(max 0 (Array.length s - 11))

let tail_percentile n = 100.0 *. float_of_int (n - 10) /. float_of_int n

(* Spread of [a] as (q3 - q1) / median, the measure the bounds are set on. *)
let iqr_share a =
  let s = sorted_copy a in
  let q1 = quantile_sorted s 0.25
  and q2 = quantile_sorted s 0.5
  and q3 = quantile_sorted s 0.75 in
  if q2 = 0.0 then 0.0 else (q3 -. q1) /. q2

(* A minimal JSON value for the result line and the context record. *)
type json =
  | Num of float
  | Int of int
  | Str of string
  | Bool of bool
  | List of json list
  | Obj of (string * json) list

let json_string b s =
  Buffer.add_char b '"';
  String.iter
    (function
      | ('"' | '\\') as c ->
          Buffer.add_char b '\\';
          Buffer.add_char b c
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

let rec pp_json b = function
  | Num f when Float.is_finite f -> Printf.bprintf b "%.17g" f
  | Num _ -> Buffer.add_string b "null"
  | Int i -> Printf.bprintf b "%d" i
  | Str s -> json_string b s
  | Bool v -> Buffer.add_string b (string_of_bool v)
  | List l ->
      Buffer.add_char b '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_char b ',';
          pp_json b v)
        l;
      Buffer.add_char b ']'
  | Obj kvs ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char b ',';
          json_string b k;
          Buffer.add_char b ':';
          pp_json b v)
        kvs;
      Buffer.add_char b '}'

let json_to_string j =
  let b = Buffer.create 256 in
  pp_json b j;
  Buffer.contents b

(* What one invocation reports: the metrics it was asked for (end-to-end
   or per-layer), the op accounting, and the run's context. *)
type result = {
  attempted : int;
  failed : int;
  correct : bool;
  metrics : (string * float * string) list;  (** name, value, unit *)
  context : (string * json) list;
}

(* Timing of [f ()] in ns, with its result. *)
let timed f =
  let t0 = now_ns () in
  let r = f () in
  (r, now_ns () - t0)

(* How many times a run sets up; the median is reported. *)
let setup_reps = 51

(* Set-up measured [reps] times; the median is reported, the last
   product is kept for the measured phase. *)
let repeated_setup ~reps f =
  let times = Array.make reps 0.0 in
  let last = ref None in
  for i = 0 to reps - 1 do
    let r, ns = timed f in
    times.(i) <- secs_of_ns ns;
    last := Some r
  done;
  (Option.get !last, times)

type gc_sample = { minor : float; major : float; minor_gc : int; major_gc : int }

let gc_sample () =
  let s = Gc.quick_stat () in
  {
    minor = s.Gc.minor_words;
    major = s.Gc.major_words;
    minor_gc = s.Gc.minor_collections;
    major_gc = s.Gc.major_collections;
  }

let heap_peak_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1048576.0
