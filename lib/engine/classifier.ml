open Vw_fsl.Tables

(* --- matching over raw frame bytes --- *)

let tuple_matches (tuple : tuple) ~bindings data =
  match tuple.t_pat with
  | Bytes_pattern pattern ->
      Vw_util.Hexutil.masked_equal data ~pos:tuple.t_offset ~pattern
        ~mask:tuple.t_mask
  | Var_pattern vid -> (
      match bindings.(vid) with
      | None -> false
      | Some pattern ->
          Vw_util.Hexutil.masked_equal data ~pos:tuple.t_offset ~pattern
            ~mask:tuple.t_mask)

let filter_matches (f : filter_entry) ~bindings data =
  List.for_all (fun tuple -> tuple_matches tuple ~bindings data) f.f_tuples

let classify_linear (t : t) ~bindings data =
  let n = Array.length t.filters in
  let rec go i =
    if i = n then None
    else if filter_matches t.filters.(i) ~bindings data then Some i
    else go (i + 1)
  in
  go 0

(* --- matching over the compiled (SoA) filter table --- *)

module C = Vw_fsl.Tables.Compiled

let tuple_matches_c (c : C.t) ti ~bindings (frame : Vw_net.Eth.t) =
  let pat = c.C.tu_pat.(ti) in
  if pat >= 0 then
    Vw_net.Eth.field_matches frame ~pos:c.C.tu_offset.(ti) ~pat:c.C.pool
      ~pat_off:pat ~pat_len:c.C.tu_plen.(ti) ~mask:c.C.pool
      ~mask_off:(max 0 c.C.tu_mask.(ti))
      ~mask_len:c.C.tu_mlen.(ti)
  else
    match bindings.(-pat - 1) with
    | None -> false
    | Some pattern ->
        Vw_net.Eth.field_matches frame ~pos:c.C.tu_offset.(ti) ~pat:pattern
          ~pat_off:0 ~pat_len:(Bytes.length pattern) ~mask:c.C.pool
          ~mask_off:(max 0 c.C.tu_mask.(ti))
          ~mask_len:c.C.tu_mlen.(ti)

let filter_matches_c (c : C.t) fid ~bindings frame =
  let stop = c.C.f_start.(fid + 1) in
  let ti = ref c.C.f_start.(fid) in
  while !ti < stop && tuple_matches_c c !ti ~bindings frame do
    incr ti
  done;
  !ti = stop

(* --- indexed classification ---

   The engine's per-packet entry point. One read of the discriminating
   field selects a bucket; only that bucket and the fallback filters (those
   that do not constrain the field) are scanned, merged in ascending fid
   order so first-match-wins semantics are exactly the linear scan's.
   Written as loops so that a packet allocates nothing (no key or bucket
   option, no closure). *)

type scan_stats = {
  mutable filters_scanned : int;
  mutable index_hits : int;
  mutable index_misses : int;
}

let new_scan_stats () = { filters_scanned = 0; index_hits = 0; index_misses = 0 }

let empty_bucket : int array = [||]

let classify_fid (stats : scan_stats) (c : C.t) ~bindings (frame : Vw_net.Eth.t)
    =
  let bucket =
    if c.C.ci_offset >= 0 && c.C.ci_offset + c.C.ci_len <= Vw_net.Eth.size frame
    then
      match
        Hashtbl.find c.C.ci_buckets
          (Vw_net.Eth.read_int_be frame ~pos:c.C.ci_offset ~len:c.C.ci_len)
      with
      | fids ->
          stats.index_hits <- stats.index_hits + 1;
          fids
      | exception Not_found ->
          stats.index_misses <- stats.index_misses + 1;
          empty_bucket
    else begin
      stats.index_misses <- stats.index_misses + 1;
      empty_bucket
    end
  in
  let fallback = c.C.ci_fallback in
  let nb = Array.length bucket and nf = Array.length fallback in
  let bi = ref 0 and fi = ref 0 and found = ref (-1) in
  while !found < 0 && (!bi < nb || !fi < nf) do
    let fid =
      if !bi < nb && (!fi >= nf || bucket.(!bi) < fallback.(!fi)) then begin
        incr bi;
        bucket.(!bi - 1)
      end
      else begin
        incr fi;
        fallback.(!fi - 1)
      end
    in
    stats.filters_scanned <- stats.filters_scanned + 1;
    if filter_matches_c c fid ~bindings frame then found := fid
  done;
  !found

let classify_frame_c ?(stats = new_scan_stats ()) c ~bindings frame =
  let fid = classify_fid stats c ~bindings frame in
  if fid < 0 then None else Some fid
