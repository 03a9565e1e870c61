(* tcp_bulk: one op is a complete transfer of [transfer_bytes] in one
   [Tcp.send] on a fresh testbed — the Figure 7 shape on the shared
   half-duplex bus with RLL and the 25-filter, 25-action script. *)

open Measure
open Packet

let transfer_bytes = 512 * 1024
let window = 50
let script = tcp_overhead_script ~n_filters:25

(* What one transfer did, for the op check and the per-layer figures. *)
type outcome = {
  ok : bool;  (** exactly [transfer_bytes] arrived, byte for byte *)
  packets : int;  (** FIE-inspected frames *)
  counts : int array;  (** [fie_counts] *)
  frames : int;  (** frames the bus delivered *)
  drops : int;
  queue_max : int;  (** longest transmit queue seen (traced runs only) *)
  segments : int;
  retransmits : int;
  rll_retransmissions : int;
  rll_acks : int;
  rll_data : int;
  events : int;
  events_dropped : int;
  send_ns : int;  (** the [Tcp.send] call *)
  run_ns : int;  (** driving the simulation until the data arrived *)
}

let payload seed =
  let rng = Random.State.make [| seed; 0xb01c |] in
  Bytes.init transfer_bytes (fun _ -> Char.chr (Random.State.int rng 256))

let same_at data pos chunk =
  let n = Bytes.length chunk in
  pos + n <= Bytes.length data
  &&
  let rec go i = i = n || (Bytes.get chunk i = Bytes.get data (pos + i) && go (i + 1)) in
  go 0

let rll_sum testbed f =
  List.fold_left
    (fun a n ->
      match Vw_core.Testbed.rll n with
      | Some r -> a + f (Vw_rll.Rll.stats r)
      | None -> a)
    0 (Vw_core.Testbed.nodes testbed)

let transfer ?tracer ~observe ~seed data i =
  let config = bus_config (seed + i) in
  let testbed = build ?tracer ~config ~observe script in
  let engine = Vw_core.Testbed.engine testbed in
  let node n = Vw_core.Testbed.node testbed n in
  let got = ref 0 and same = ref true in
  ignore
    (Tcp.listen (Vw_core.Testbed.tcp (node "node2")) ~port:0x4000 ~on_accept:(fun conn ->
         Tcp.on_data conn (fun chunk ->
             if not (same_at data !got chunk) then same := false;
             got := !got + Bytes.length chunk)));
  let conn =
    Tcp.connect
      (Vw_core.Testbed.tcp (node "node1"))
      ~src_port:0x6000
      ~dst:(Host.ip (Vw_core.Testbed.host (node "node2")))
      ~dst_port:0x4000
  in
  let send_ns = ref 0 in
  Tcp.on_established conn (fun () ->
      let send () = Tcp.send conn data in
      send_ns :=
        snd (timed (fun () ->
                 match tracer with
                 | Some t -> Tracer.span t Tracer.egress send
                 | None -> send ())));
  let sample, queue_max = queue_sampler testbed in
  let step =
    match tracer with
    | Some t ->
        t.Tracer.on_step <- sample;
        fun () -> Tracer.step t engine
    | None -> fun () -> Engine.step engine
  in
  let limit = Simtime.(Engine.now engine + Simtime.sec 60.0) in
  let t0 = now_ns () in
  while !got < transfer_bytes && Engine.now engine < limit && step () do
    ()
  done;
  let run_ns = now_ns () - t0 in
  let tcp = Tcp.stats conn in
  {
    ok = !same && !got = transfer_bytes;
    packets = inspected testbed;
    counts = fie_counts testbed;
    frames = link_frames testbed;
    drops = link_drops testbed;
    queue_max = !queue_max;
    segments = tcp.Tcp.segments_sent;
    retransmits = tcp.Tcp.retransmits;
    rll_retransmissions = rll_sum testbed (fun s -> s.Vw_rll.Rll.retransmissions);
    rll_acks = rll_sum testbed (fun s -> s.Vw_rll.Rll.acks_sent);
    rll_data = rll_sum testbed (fun s -> s.Vw_rll.Rll.data_sent);
    events = Vw_core.Testbed.events_recorded testbed;
    events_dropped = Vw_core.Testbed.events_dropped testbed;
    send_ns = !send_ns;
    run_ns;
  }

(* Windows of [window] transfers from op [first] until [seconds] have
   passed (at least one); every transfer is on a fresh testbed, so a
   window is a segment. Returns the segments, the op count, the failures
   and every op's outcome. *)
let measure ?tracer ~observe ~seed ~seconds ~first data =
  let outcomes = ref [] and segs = ref [] and n = ref 0 and failed = ref 0 in
  let total = ref 0 in
  let op i =
    let o = transfer ?tracer ~observe ~seed data i in
    total := !total + o.packets;
    outcomes := o :: !outcomes;
    o.ok
  in
  let deadline = now_ns () + int_of_float (seconds *. 1e9) in
  while !segs = [] || now_ns () < deadline do
    let w, k, f =
      run_windows ~min_windows:1 ~seconds:0.0 ~window
        ~packets:(fun () -> !total)
        ~first:(first + !n) op
    in
    segs := summarize w :: !segs;
    n := !n + k;
    failed := !failed + f
  done;
  (!segs, !n, !failed, !outcomes)

let context segs =
  [
    ("transfer_bytes", Int transfer_bytes);
    ("window_ops", Int window);
    ("windows", Int (List.length segs));
    ("samples", Int (window * List.length segs));
    ("op_tail_percentile", Num (tail_percentile window));
    ("op_tail_samples_beyond", Int 10);
    ("setup_reps", Int setup_reps);
    ("workers", Int 1);
  ]

let run ~seed ~seconds =
  let _, setups =
    repeated_setup ~reps:setup_reps (fun () ->
        Vw_fsl.Compile_cache.reset ();
        build ~config:(bus_config seed) ~observe:true script)
  in
  let data = payload seed in
  let segs, n, failed, _ = measure ~observe:true ~seed ~seconds ~first:0 data in
  {
    attempted = n;
    failed;
    correct = failed = 0;
    metrics = end_to_end segs ~setups ~attempted:n ~failed;
    context = context segs;
  }

let pps segs = mean (List.map (fun s -> s.seg_pps) segs)
let sum f l = List.fold_left (fun a o -> a + f o) 0 l
let mean_of f l = float_of_int (sum f l) /. float_of_int (max 1 (List.length l))

let traced ~seed ~seconds ~spans_path =
  let data = payload seed in
  let comps =
    setup_components ~reps:setup_reps
      ~make_testbed:(fun () ->
        let tb = Vw_core.Testbed.create ~config:(bus_config seed) node_specs in
        Vw_core.Testbed.enable_observability ~capacity:recorder_slots tb;
        tb)
      script
  in
  let attempted = ref 0 and failed = ref 0 in
  let count (_, n, f, _) =
    attempted := !attempted + n;
    failed := !failed + f
  in
  (* untraced reference; the GC count covers a fixed number of transfers *)
  let g0 = gc_sample () in
  let gc_ops = List.init 3 (fun i -> transfer ~observe:true ~seed data i) in
  let g1 = gc_sample () in
  List.iter
    (fun o ->
      incr attempted;
      if not o.ok then incr failed)
    gc_ops;
  let ((ref_segs, _, _, ref_ops) as reference) =
    measure ~observe:true ~seed ~seconds:(0.2 *. seconds) ~first:3 data
  in
  count reference;
  (* traced phases: recorder on, then off *)
  let phase ~observe ~share =
    let t = Tracer.create () in
    Tracer.sync t;
    let s0 = Tracer.snapshot t in
    let c0 = now_ns () in
    let ((w, _, _, ops) as r) =
      measure ~tracer:t ~observe ~seed ~seconds:(share *. seconds) ~first:0 data
    in
    count r;
    Tracer.sync t;
    let wall = now_ns () - c0 in
    (t, s0, Tracer.snapshot t, w, ops, wall)
  in
  let t, s0, s1, tw, ops, wall = phase ~observe:true ~share:0.45 in
  let pk = float_of_int (sum (fun o -> o.packets) ops) in
  let d l = float_of_int (s1.(l) - s0.(l)) /. pk in
  let fie_count i = float_of_int (sum (fun o -> o.counts.(i)) ops) in
  let fie_on = d Tracer.fie_out +. d Tracer.fie_in in
  let _, o0, o1, _, off_ops, _ = phase ~observe:false ~share:0.2 in
  let fie_off =
    float_of_int
      (o1.(Tracer.fie_out) - o0.(Tracer.fie_out) + o1.(Tracer.fie_in) - o0.(Tracer.fie_in))
    /. float_of_int (sum (fun o -> o.packets) off_ops)
  in
  let classify =
    classify_replay ~seconds:(0.1 *. seconds) script t.Tracer.captured t.Tracer.n_captured
  in
  Tracer.write_spans t spans_path;
  let recorder = fie_on -. fie_off in
  let self_sum_ratio =
    float_of_int (Array.fold_left ( + ) 0 (Array.map2 ( - ) s1 s0)) /. float_of_int wall
  in
  let spread =
    iqr_share
      (Array.of_list (List.map (fun o -> float_of_int o.run_ns /. float_of_int o.packets) ops))
  in
  let self_check = Float.abs (self_sum_ratio -. 1.0) <= Float.max spread 1e-3 in
  let gpk = float_of_int (sum (fun o -> o.packets) gc_ops) in
  let layers =
    comps
    @ [
        ("sim.events_per_packet", float_of_int t.Tracer.steps /. pk);
        ("sim.self_ns_per_packet", d Tracer.sim);
        ("sim.pending_max", float_of_int t.Tracer.pending_max);
        ("link.frames", float_of_int (sum (fun o -> o.frames) ops));
        ("link.drops", float_of_int (sum (fun o -> o.drops) ops));
        ("link.queue_max", float_of_int (List.fold_left (fun a o -> max a o.queue_max) 0 ops));
        ("stack.egress_ns_per_packet", d Tracer.egress);
        ("stack.upper_ns_per_packet", d Tracer.upper);
        ("fie.ns_per_packet", fie_on);
        ("fie.filters_scanned_per_packet", fie_count 1 /. pk);
        ("fie.counter_updates_per_packet", fie_count 2 /. pk);
        ("fie.actions_per_packet", fie_count 3 /. pk);
        ("fie.control_frames", fie_count 4);
        ("fie.cascade_overflows", fie_count 5);
        ("classify.ns_per_packet", classify);
        ("cascade.ns_per_packet", fie_on -. classify -. recorder);
        ("recorder.events_per_packet", float_of_int (sum (fun o -> o.events) ops) /. pk);
        ("recorder.events_dropped", float_of_int (sum (fun o -> o.events_dropped) ops));
        ("recorder.ns_per_packet", recorder);
        ("rll.ns_per_packet", d Tracer.rll_out +. d Tracer.rll_in);
        ("rll.retransmissions", float_of_int (sum (fun o -> o.rll_retransmissions) ops));
        ( "rll.acks_per_data",
          float_of_int (sum (fun o -> o.rll_acks) ops)
          /. float_of_int (max 1 (sum (fun o -> o.rll_data) ops)) );
        ("tcp.segments", mean_of (fun o -> o.segments) ops);
        ("tcp.retransmits", float_of_int (sum (fun o -> o.retransmits) ops));
        ("tcp.send_call_ns", mean_of (fun o -> o.send_ns) ref_ops);
        ("scenario.run_ns", mean_of (fun o -> o.run_ns) ref_ops);
        ("exec.workers", 1.0);
        ("exec.busy_ratio", 1.0 -. (d Tracer.harness *. pk /. float_of_int wall));
        ("gc.minor_words_per_packet", (g1.minor -. g0.minor) /. gpk);
        ("gc.major_words_per_packet", (g1.major -. g0.major) /. gpk);
        ("gc.minor_collections", float_of_int (g1.minor_gc - g0.minor_gc));
        ("gc.major_collections", float_of_int (g1.major_gc - g0.major_gc));
        ("gc.heap_top_mb", heap_peak_mb ());
        ("trace.overhead", pps tw /. pps ref_segs);
        ("trace.self_sum_ratio", self_sum_ratio);
        ("trace.harness_ns_per_packet", d Tracer.harness);
      ]
  in
  {
    attempted = !attempted;
    failed = !failed;
    correct = !failed = 0 && self_check;
    metrics = List.map (fun (k, v) -> (k, v, "")) layers;
    context =
      context tw
      @ [
          ("gc_phase_ops", Int 3);
          ("gc_phase_packets", Int (int_of_float gpk));
          ("traced_packets", Int (int_of_float pk));
          ("self_check", Bool self_check);
          ("self_check_spread", Num spread);
          ("untraced_packets_per_s", Num (pps ref_segs));
          ("traced_packets_per_s", Num (pps tw));
          ("classify_replay_frames", Int t.Tracer.n_captured);
          ("spans_written", Int t.Tracer.log_n);
        ];
  }
