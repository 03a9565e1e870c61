(* echo_small and classify_wide: one client, one echo outstanding, 64-byte
   UDP payloads through a 2-node star with the flight recorder on.

   The measured phase is a run of short segments, each a fixed number of
   windows on a freshly deployed testbed, so every segment does the same
   work whatever the speed. A segment reports the medians of its windows;
   the run reports the mean over segments, which follows the host's
   slower and faster spells in proportion rather than jumping between
   them as a median would. *)

open Measure
open Packet

let min_segments = 4

(* The untraced set-up: compile (the cache is emptied, as in a fresh
   process), create the testbed and its rings, deploy, deliver START. *)
let setup shape ~seed =
  repeated_setup ~reps:setup_reps (fun () ->
      Vw_fsl.Compile_cache.reset ();
      build ~config:(star_config seed) ~observe:true shape.script)

(* Echo ops on [e] numbered from [first] in windows of [window]; the PING
   counter is checked after each window and the echoes it disagrees on
   count as failures. *)
let measure ?tracer ?(windows = 1) e ~window ~seconds ~first =
  let mismatch = ref 0 in
  let after_window () =
    let d = ping_check e ~sent:e.sent in
    let fresh = max 0 (d - !mismatch) in
    mismatch := max d !mismatch;
    fresh
  in
  let op = match tracer with Some t -> echo_op_traced t e | None -> echo_op e in
  run_windows ~min_windows:windows ~after_window ~seconds ~window
    ~packets:(fun () -> inspected e.testbed)
    ~first op

type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable windows : int;
  mutable segs : segment list;
}

let new_tally () = { attempted = 0; failed = 0; windows = 0; segs = [] }

(* One segment: a fresh echo on [testbed], a quarter-window warm-up, then
   [shape.segment] windows. *)
let segment ?tracer t shape ~seed testbed =
  let e = echo_bed ?tracer ~seed testbed in
  let warm = shape.window / 4 in
  let _, n0, f0 = measure ?tracer e ~window:warm ~seconds:0.0 ~first:0 in
  let w, n, f =
    measure ?tracer ~windows:shape.segment e ~window:shape.window ~seconds:0.0 ~first:n0
  in
  t.attempted <- t.attempted + n0 + n;
  t.failed <- t.failed + f0 + f;
  t.windows <- t.windows + n_windows w;
  t.segs <- summarize w :: t.segs;
  e

let context_of ~shape t =
  [
    ("window_ops", Int shape.window);
    ("segments", Int (List.length t.segs));
    ("segment_windows", Int shape.segment);
    ("windows", Int t.windows);
    ("samples", Int (shape.window * t.windows));
    ("op_tail_percentile", Num (tail_percentile shape.window));
    ("op_tail_samples_beyond", Int 10);
    ("setup_reps", Int setup_reps);
    ("workers", Int 1);
  ]

let run shape ~seed ~seconds =
  let first, setups = setup shape ~seed in
  let t = new_tally () in
  let deadline = now_ns () + int_of_float (seconds *. 1e9) in
  let testbed = ref (Some first) in
  while List.length t.segs < min_segments || now_ns () < deadline do
    let tb =
      match !testbed with
      | Some tb -> tb
      | None -> build ~config:(star_config seed) ~observe:true shape.script
    in
    testbed := None;
    ignore (segment t shape ~seed tb)
  done;
  {
    attempted = t.attempted;
    failed = t.failed;
    correct = t.failed = 0;
    metrics =
      end_to_end t.segs ~setups ~attempted:t.attempted ~failed:t.failed;
    context = context_of ~shape t;
  }

(* Per-phase sums of a traced run: layer self times and engine counts. *)
type acc = {
  mutable self : int array;
  mutable counts : int array;  (** [fie_counts] deltas *)
  mutable steps : int;
  mutable frames : int;
  mutable drops : int;
  mutable events : int;
  mutable wall : int;
  mutable seg_ns : float list;  (** each segment's wall ns per packet *)
}

let new_acc () =
  {
    self = Array.make Tracer.n_layers 0;
    counts = Array.make 6 0;
    steps = 0;
    frames = 0;
    drops = 0;
    events = 0;
    wall = 0;
    seg_ns = [];
  }

let add a b = Array.map2 ( + ) a b
let sub a b = Array.map2 ( - ) a b

(* The traced run: set-up components; an untraced reference (its first
   testbed also gives the GC counts over a fixed number of echoes); traced
   segments alternating recorder on and off on fresh testbeds; the
   classifier replay of captured frames. *)
let traced shape ~seed ~seconds ~spans_path =
  let config = star_config seed in
  let comps =
    setup_components ~reps:setup_reps
      ~make_testbed:(fun () ->
        let tb = Vw_core.Testbed.create ~config node_specs in
        Vw_core.Testbed.enable_observability ~capacity:recorder_slots tb;
        tb)
      shape.script
  in
  let reference = new_tally () in
  let e = segment reference shape ~seed (build ~config ~observe:true shape.script) in
  let g0 = gc_sample () and p0 = inspected e.testbed in
  let _, n, f = measure e ~window:shape.window ~seconds:0.0 ~first:e.sent in
  let g1 = gc_sample () and p1 = inspected e.testbed in
  reference.attempted <- reference.attempted + n;
  reference.failed <- reference.failed + f;
  let deadline = now_ns () + int_of_float (0.2 *. seconds *. 1e9) in
  while List.length reference.segs < min_segments || now_ns () < deadline do
    ignore (segment reference shape ~seed (build ~config ~observe:true shape.script))
  done;
  let t = Tracer.create () in
  let traced = new_tally () and on = new_acc () and off = new_acc () in
  let queue_max = ref 0 in
  let traced_segment ~observe acc =
    let tb = build ~tracer:t ~config ~observe shape.script in
    let sample, qmax = queue_sampler tb in
    t.Tracer.on_step <- sample;
    Tracer.sync t;
    let s0 = Tracer.snapshot t and steps0 = t.Tracer.steps and k0 = fie_counts tb in
    let l0 = (link_frames tb, link_drops tb, Vw_core.Testbed.events_recorded tb) in
    let c0 = now_ns () in
    ignore (segment ~tracer:t traced shape ~seed tb);
    Tracer.sync t;
    let wall = now_ns () - c0 in
    let k = sub (fie_counts tb) k0 in
    let lf0, ld0, ev0 = l0 in
    acc.self <- add acc.self (sub (Tracer.snapshot t) s0);
    acc.counts <- add acc.counts k;
    acc.steps <- acc.steps + (t.Tracer.steps - steps0);
    acc.frames <- acc.frames + (link_frames tb - lf0);
    acc.drops <- acc.drops + (link_drops tb - ld0);
    acc.events <- acc.events + (Vw_core.Testbed.events_recorded tb - ev0);
    acc.wall <- acc.wall + wall;
    acc.seg_ns <- (float_of_int wall /. float_of_int k.(0)) :: acc.seg_ns;
    queue_max := max !queue_max !qmax
  in
  let deadline = now_ns () + int_of_float (0.6 *. seconds *. 1e9) in
  while List.length on.seg_ns < min_segments / 2 || now_ns () < deadline do
    traced_segment ~observe:true on;
    traced_segment ~observe:false off
  done;
  let classify =
    classify_replay ~seconds:(0.1 *. seconds) shape.script t.Tracer.captured
      t.Tracer.n_captured
  in
  Tracer.write_spans t spans_path;
  let pk = float_of_int on.counts.(0) in
  let d l = float_of_int on.self.(l) /. pk in
  let count i = float_of_int on.counts.(i) in
  let fie_span acc = acc.self.(Tracer.fie_out) + acc.self.(Tracer.fie_in) in
  let fie_on = d Tracer.fie_out +. d Tracer.fie_in in
  let fie_off = float_of_int (fie_span off) /. float_of_int off.counts.(0) in
  let recorder = fie_on -. fie_off in
  (* self-check: the layers' self times add up to the traced wall time *)
  let self_sum_ratio =
    float_of_int (Array.fold_left ( + ) 0 on.self) /. float_of_int on.wall
  in
  let spread = iqr_share (Array.of_list on.seg_ns) in
  let self_check = Float.abs (self_sum_ratio -. 1.0) <= Float.max spread 1e-3 in
  let gpk = float_of_int (p1 - p0) in
  let mean_pps tally = mean (List.map (fun s -> s.seg_pps) tally.segs) in
  let layers =
    comps
    @ [
        ("sim.events_per_packet", float_of_int on.steps /. pk);
        ("sim.self_ns_per_packet", d Tracer.sim);
        ("sim.pending_max", float_of_int t.Tracer.pending_max);
        ("link.frames", float_of_int on.frames);
        ("link.drops", float_of_int on.drops);
        ("link.queue_max", float_of_int !queue_max);
        ("stack.egress_ns_per_packet", d Tracer.egress);
        ("stack.upper_ns_per_packet", d Tracer.upper);
        ("fie.ns_per_packet", fie_on);
        ("fie.filters_scanned_per_packet", count 1 /. pk);
        ("fie.counter_updates_per_packet", count 2 /. pk);
        ("fie.actions_per_packet", count 3 /. pk);
        ("fie.control_frames", count 4);
        ("fie.cascade_overflows", count 5);
        ("classify.ns_per_packet", classify);
        ("cascade.ns_per_packet", fie_on -. classify -. recorder);
        ("recorder.events_per_packet", float_of_int on.events /. pk);
        ("recorder.events_dropped", float_of_int (Vw_core.Testbed.events_dropped e.testbed));
        ("recorder.ns_per_packet", recorder);
        ("scenario.run_ns", 1e9 /. mean (List.map (fun s -> s.seg_ops) reference.segs));
        ("exec.workers", 1.0);
        ("exec.busy_ratio", 1.0 -. (d Tracer.harness *. pk /. float_of_int on.wall));
        ("gc.minor_words_per_packet", (g1.minor -. g0.minor) /. gpk);
        ("gc.major_words_per_packet", (g1.major -. g0.major) /. gpk);
        ("gc.minor_collections", float_of_int (g1.minor_gc - g0.minor_gc));
        ("gc.major_collections", float_of_int (g1.major_gc - g0.major_gc));
        ("gc.heap_top_mb", heap_peak_mb ());
        ("trace.overhead", mean_pps traced /. mean_pps reference);
        ("trace.self_sum_ratio", self_sum_ratio);
        ("trace.harness_ns_per_packet", d Tracer.harness);
      ]
  in
  {
    attempted = reference.attempted + traced.attempted;
    failed = reference.failed + traced.failed;
    correct = reference.failed + traced.failed = 0 && self_check;
    metrics = List.map (fun (k, v) -> (k, v, "")) layers;
    context =
      context_of ~shape traced
      @ [
          ("gc_phase_ops", Int shape.window);
          ("gc_phase_packets", Int (p1 - p0));
          ("traced_packets", Int on.counts.(0));
          ("self_check", Bool self_check);
          ("self_check_spread", Num spread);
          ("untraced_packets_per_s", Num (mean_pps reference));
          ("traced_packets_per_s", Num (mean_pps traced));
          ("classify_replay_frames", Int t.Tracer.n_captured);
          ("spans_written", Int t.Tracer.log_n);
        ];
  }
