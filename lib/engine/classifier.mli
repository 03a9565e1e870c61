(** The packet classifier: match frames against the filter table.

    Filters are tried in declaration order and the first match wins, as in
    the paper ("The priority of the filter rules is in descending order of
    occurrence. If a match is found with one rule then there is no need to
    match the subsequent rules."). A tuple with an unbound variable never
    matches; a bound variable behaves as a literal pattern (see DESIGN.md).

    The paper's implementation "searches linearly through the packet type
    definitions" — the cost Figure 8 measures. {!classify_linear} keeps
    that scan over the record-form tables as the executable reference;
    {!classify_fid} (and its option wrapper {!classify_frame_c}) dispatch
    through the compiled tables' classification index instead, scanning
    only the filters that could possibly match. The two are semantically
    identical (property-tested in [test_engine.ml], and checked by the
    [classifier_diff] oracle in [vw_check]). *)

val classify_linear :
  Vw_fsl.Tables.t -> bindings:bytes option array -> bytes -> int option
(** The naive full scan — the reference the indexed path must agree with,
    and the baseline the bench compares against. *)

type scan_stats = {
  mutable filters_scanned : int;  (** candidate filters actually tested *)
  mutable index_hits : int;  (** packets whose field value had a bucket *)
  mutable index_misses : int;
      (** packets outside every bucket (fallback-only scan) *)
}
(** Cumulative classification counters; pass one record across calls and
    read deltas for per-packet costs. *)

val new_scan_stats : unit -> scan_stats

val classify_fid :
  scan_stats ->
  Vw_fsl.Tables.Compiled.t ->
  bindings:bytes option array ->
  Vw_net.Eth.t ->
  int
(** The engine's per-packet entry point: the first matching fid, or −1
    for none, counted into the given stats. Indexed {e and} zero-copy: one
    read of the discriminating field selects a bucket, which is
    merge-scanned with the fallback filters in fid order; tuples are flat
    int arrays over a shared byte pool, read in place from the [Eth.t]
    without serializing it. Allocates nothing. *)

val classify_frame_c :
  ?stats:scan_stats ->
  Vw_fsl.Tables.Compiled.t ->
  bindings:bytes option array ->
  Vw_net.Eth.t ->
  int option
(** {!classify_fid} with [None] for no match. *)
