(* The SplitMix64 state lives unboxed in 8 bytes: with a [mutable int64]
   field every draw would box a fresh Int64. [mix] and [next] are inlined
   into each draw, so [int], [bool] and [byte] allocate nothing. *)
type t = Bytes.t

external get_state : Bytes.t -> int -> int64 = "%caml_bytes_get64"
external set_state : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64"

let golden = 0x9E3779B97F4A7C15L

let[@inline] mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let[@inline] of_state s =
  let t = Bytes.create 8 in
  set_state t 0 s;
  t

let[@inline] next t =
  let s = Int64.add (get_state t 0) golden in
  set_state t 0 s;
  mix s

(* uniform in [0, 1): the top 53 bits over 2^53 *)
let[@inline] unit_float t =
  Int64.to_float (Int64.shift_right_logical (next t) 11) /. 9007199254740992.0

let create ~seed = of_state (mix (Int64.of_int seed))
let bits64 t = next t
let split t = of_state (next t)

let int t n =
  if n <= 0 then invalid_arg "Prng.int: bound must be positive";
  (Int64.to_int (next t) land max_int) mod n

let float t = unit_float t
let bool t p = unit_float t < p
let byte t = int t 256

let exponential t ~mean =
  let u = unit_float t in
  let u = if u <= 0.0 then 1e-12 else u in
  -.mean *. log u

let default_run_seed = 42

(* An Atomic, not a ref: the memo may be read from every worker domain of a
   parallel campaign. The computation is a pure function of the environment,
   so a lost race just recomputes the same value; compare_and_set keeps the
   published value unique. *)
let memo_run_seed = Atomic.make None

let compute_run_seed () =
  match Sys.getenv_opt "VW_SEED" with
  | None | Some "" -> default_run_seed
  | Some v -> (
      match int_of_string_opt (String.trim v) with
      | Some s -> s
      | None ->
          Printf.eprintf "warning: ignoring unparsable VW_SEED=%S\n%!" v;
          default_run_seed)

let rec run_seed () =
  match Atomic.get memo_run_seed with
  | Some s -> s
  | None ->
      let s = compute_run_seed () in
      if Atomic.compare_and_set memo_run_seed None (Some s) then s
      else run_seed ()

let with_seed_on_failure f =
  try f ()
  with e ->
    Printf.eprintf "randomized test failed under run seed %d; rerun with VW_SEED=%d to reproduce\n%!"
      (run_seed ()) (run_seed ());
    raise e
