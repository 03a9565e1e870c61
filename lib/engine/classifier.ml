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

(* --- matching over an Eth.t view, without serializing --- *)

let tuple_matches_frame (tuple : tuple) ~bindings (frame : Vw_net.Eth.t) =
  match tuple.t_pat with
  | Bytes_pattern pattern ->
      Vw_net.Eth.masked_field_equal frame ~pos:tuple.t_offset ~pattern
        ~mask:tuple.t_mask
  | Var_pattern vid -> (
      match bindings.(vid) with
      | None -> false
      | Some pattern ->
          Vw_net.Eth.masked_field_equal frame ~pos:tuple.t_offset ~pattern
            ~mask:tuple.t_mask)

let filter_matches_frame (f : filter_entry) ~bindings frame =
  List.for_all (fun tuple -> tuple_matches_frame tuple ~bindings frame) f.f_tuples

(* --- indexed classification ---

   One read of the discriminating field selects a bucket; only that bucket
   and the fallback filters (those that do not constrain the field) are
   scanned, merged in ascending fid order so first-match-wins semantics are
   exactly the linear scan's. *)

type scan_stats = {
  mutable filters_scanned : int;
  mutable index_hits : int;
  mutable index_misses : int;
}

let new_scan_stats () = { filters_scanned = 0; index_hits = 0; index_misses = 0 }

let empty_bucket : int array = [||]

(* merge-scan [bucket] and [fallback] (both fid-ascending) in fid order *)
let merge_scan ~stats ~test bucket fallback =
  let nb = Array.length bucket and nf = Array.length fallback in
  let rec go bi fi =
    let from_bucket =
      bi < nb && (fi >= nf || Array.unsafe_get bucket bi < Array.unsafe_get fallback fi)
    in
    if from_bucket then begin
      let fid = Array.unsafe_get bucket bi in
      (match stats with
      | Some s -> s.filters_scanned <- s.filters_scanned + 1
      | None -> ());
      if test fid then Some fid else go (bi + 1) fi
    end
    else if fi < nf then begin
      let fid = Array.unsafe_get fallback fi in
      (match stats with
      | Some s -> s.filters_scanned <- s.filters_scanned + 1
      | None -> ());
      if test fid then Some fid else go bi (fi + 1)
    end
    else None
  in
  go 0 0

let lookup_bucket ~stats (ci : classification_index) key_opt =
  match key_opt with
  | Some key -> (
      match Hashtbl.find_opt ci.ci_buckets key with
      | Some fids ->
          (match stats with
          | Some s -> s.index_hits <- s.index_hits + 1
          | None -> ());
          fids
      | None ->
          (match stats with
          | Some s -> s.index_misses <- s.index_misses + 1
          | None -> ());
          empty_bucket)
  | None ->
      (match stats with
      | Some s -> s.index_misses <- s.index_misses + 1
      | None -> ());
      empty_bucket

let classify ?stats (t : t) ~bindings data =
  let ci = t.cindex in
  let key =
    if ci.ci_offset >= 0 && ci.ci_offset + ci.ci_len <= Bytes.length data then
      Some (Vw_util.Hexutil.to_int_be data ~pos:ci.ci_offset ~len:ci.ci_len)
    else None
  in
  let bucket = lookup_bucket ~stats ci key in
  merge_scan ~stats
    ~test:(fun fid -> filter_matches t.filters.(fid) ~bindings data)
    bucket ci.ci_fallback

let classify_frame ?stats (t : t) ~bindings (frame : Vw_net.Eth.t) =
  let ci = t.cindex in
  let key =
    if ci.ci_offset >= 0 && ci.ci_offset + ci.ci_len <= Vw_net.Eth.size frame
    then Some (Vw_net.Eth.read_int_be frame ~pos:ci.ci_offset ~len:ci.ci_len)
    else None
  in
  let bucket = lookup_bucket ~stats ci key in
  merge_scan ~stats
    ~test:(fun fid -> filter_matches_frame t.filters.(fid) ~bindings frame)
    bucket ci.ci_fallback

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

(* The engine's per-packet entry point: the same index dispatch and
   first-match-wins merge scan as [classify_frame], written as loops so
   that a packet allocates nothing (no key or bucket option, no closure). *)
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

(* Classify a whole batch in one pass, recording the per-frame match
   ([Arena.no_match] for none), scan count and index hit/miss so a caller
   interrupted mid-batch (STOP) can reconcile the cumulative stats down to
   exactly the frames it actually processed. Totals added to [stats] equal
   the sum of per-frame [classify_frame_c] calls by construction. *)
let classify_batch ?stats (c : C.t) ~bindings ~frames ~n ~fids ~scanned ~hits =
  let ls = new_scan_stats () in
  for i = 0 to n - 1 do
    let scanned_before = ls.filters_scanned in
    let hits_before = ls.index_hits in
    fids.(i) <- classify_fid ls c ~bindings frames.(i);
    scanned.(i) <- ls.filters_scanned - scanned_before;
    Bytes.set hits i (if ls.index_hits > hits_before then '\001' else '\000')
  done;
  match stats with
  | Some s ->
      s.filters_scanned <- s.filters_scanned + ls.filters_scanned;
      s.index_hits <- s.index_hits + ls.index_hits;
      s.index_misses <- s.index_misses + ls.index_misses
  | None -> ()
