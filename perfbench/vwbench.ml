(* The VirtualWire benchmark.

   vwbench --workload NAME --seed N --seconds S --trace 0|1

   Runs one workload for about S seconds and prints, as the last line of
   standard output, one JSON object: {"correct", "attempted", "failed",
   "metrics"}. With --trace 0 the metrics are the end-to-end ones; with
   --trace 1 a separate traced run gives the per-layer ones, and its spans
   are written to .perfbench/. The line before the result is the run's
   context (seed, cores, OCaml version, workers, sample counts, the
   percentile op_tail_us used). *)

open Measure

let workloads = [ "echo_small"; "classify_wide"; "tcp_bulk"; "fuzz_campaign" ]

(* Every per-layer metric, with its unit; a workload that does not exercise
   a layer reports 0 for it. *)
let per_layer =
  [
    ("sim.events_per_packet", "count");
    ("sim.self_ns_per_packet", "ns");
    ("sim.pending_max", "count");
    ("link.frames", "count");
    ("link.drops", "count");
    ("link.queue_max", "count");
    ("stack.egress_ns_per_packet", "ns");
    ("stack.upper_ns_per_packet", "ns");
    ("fie.ns_per_packet", "ns");
    ("fie.filters_scanned_per_packet", "count");
    ("fie.counter_updates_per_packet", "count");
    ("fie.actions_per_packet", "count");
    ("fie.control_frames", "count");
    ("fie.cascade_overflows", "count");
    ("classify.ns_per_packet", "ns");
    ("cascade.ns_per_packet", "ns");
    ("recorder.events_per_packet", "count");
    ("recorder.events_dropped", "count");
    ("recorder.ns_per_packet", "ns");
    ("rll.ns_per_packet", "ns");
    ("rll.retransmissions", "count");
    ("rll.acks_per_data", "ratio");
    ("tcp.segments", "count");
    ("tcp.retransmits", "count");
    ("tcp.send_call_ns", "ns");
    ("fsl.parse_compile_ns", "ns");
    ("fsl.tables_compile_ns", "ns");
    ("fsl.codec_ns", "ns");
    ("fsl.init_bytes", "bytes");
    ("testbed.create_ns", "ns");
    ("scenario.deploy_ns", "ns");
    ("scenario.run_ns", "ns");
    ("fuzz.gen_ns", "ns");
    ("fuzz.run_ns", "ns");
    ("fuzz.oracle_ns", "ns");
    ("fuzz.frames_per_case", "count");
    ("fuzz.max_case_ms", "ms");
    ("exec.workers", "count");
    ("exec.busy_ratio", "ratio");
    ("gc.minor_words_per_packet", "words");
    ("gc.major_words_per_packet", "words");
    ("gc.minor_collections", "count");
    ("gc.major_collections", "count");
    ("gc.heap_top_mb", "MiB");
    ("trace.overhead", "ratio");
    ("trace.self_sum_ratio", "ratio");
    ("trace.harness_ns_per_packet", "ns");
  ]

let usage () =
  prerr_endline
    "usage: vwbench --workload NAME --seed N --seconds S --trace 0|1\n\
    \  workloads: echo_small classify_wide tcp_bulk fuzz_campaign";
  exit 2

let parse_args () =
  let workload = ref "" and seed = ref None and seconds = ref None and trace = ref None in
  let rec go = function
    | "--workload" :: v :: rest ->
        workload := v;
        go rest
    | "--seed" :: v :: rest ->
        seed := int_of_string_opt v;
        go rest
    | "--seconds" :: v :: rest ->
        seconds := float_of_string_opt v;
        go rest
    | "--trace" :: (("0" | "1") as v) :: rest ->
        trace := Some (v = "1");
        go rest
    | [] -> ()
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  match (!seed, !seconds, !trace) with
  | Some seed, Some seconds, Some trace
    when List.mem !workload workloads && seconds > 0.0 ->
      (!workload, seed, seconds, trace)
  | _ -> usage ()

let out_dir = ".perfbench"

let () =
  let workload, seed, seconds, trace = parse_args () in
  let spans_path =
    if trace && not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
    Filename.concat out_dir (Printf.sprintf "%s-seed%d.spans.jsonl" workload seed)
  in
  let r =
    match (workload, trace) with
    | "echo_small", false -> Echo.run Packet.echo_small ~seed ~seconds
    | "echo_small", true -> Echo.traced Packet.echo_small ~seed ~seconds ~spans_path
    | "classify_wide", false -> Echo.run Packet.classify_wide ~seed ~seconds
    | "classify_wide", true -> Echo.traced Packet.classify_wide ~seed ~seconds ~spans_path
    | "tcp_bulk", false -> Bulk.run ~seed ~seconds
    | "tcp_bulk", true -> Bulk.traced ~seed ~seconds ~spans_path
    | "fuzz_campaign", false -> Campaign.run ~seed ~seconds
    | _ -> Campaign.traced ~seed ~seconds ~spans_path
  in
  let metrics =
    if trace then
      List.map
        (fun (name, unit) ->
          let v =
            match List.find_opt (fun (n, _, _) -> n = name) r.metrics with
            | Some (_, v, _) -> v
            | None -> 0.0
          in
          (name, v, unit))
        per_layer
    else r.metrics
  in
  let context =
    Obj
      ([
         ("workload", Str workload);
         ("seed", Int seed);
         ("seconds", Num seconds);
         ("trace", Bool trace);
         ("nproc", Int (Domain.recommended_domain_count ()));
         ("ocaml", Str Sys.ocaml_version);
       ]
      @ r.context)
  in
  print_endline (json_to_string (Obj [ ("context", context) ]));
  print_endline
    (json_to_string
       (Obj
          [
            ("correct", Bool r.correct);
            ("attempted", Int r.attempted);
            ("failed", Int r.failed);
            ( "metrics",
              Obj
                (List.map
                   (fun (name, v, unit) ->
                     (name, Obj [ ("value", Num v); ("unit", Str unit) ]))
                   metrics) );
          ]))
