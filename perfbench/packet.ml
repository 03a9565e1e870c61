(* The packet workloads: a closed-loop UDP echo through a 2-node star
   (echo_small, classify_wide) and complete TCP transfers over the shared
   half-duplex bus with RLL (tcp_bulk). *)

open Measure
module Engine = Vw_sim.Engine
module Simtime = Vw_sim.Simtime
module Host = Vw_stack.Host
module Tcp = Vw_tcp.Tcp
module Fie = Vw_engine.Fie
module Testbed = Vw_core.Testbed
module Scenario = Vw_core.Scenario

(* --- scripts (the Section 7 overhead configurations) --- *)

let node_table =
  "NODE_TABLE\n\
   node1 02:00:00:00:00:01 10.0.0.1\n\
   node2 02:00:00:00:00:02 10.0.0.2\n\
   END\n"

let node_specs =
  [
    ("node1", Vw_net.Mac.of_int 1, Vw_net.Ip_addr.of_host_index 1);
    ("node2", Vw_net.Mac.of_int 2, Vw_net.Ip_addr.of_host_index 2);
  ]

(* Filters that can never match the measured flow: source port 0xe000+k
   does not occur. *)
let padding_filters n =
  String.concat ""
    (List.init (max 0 n) (fun k ->
         Printf.sprintf "pad%d: (34 2 0x%x)\n" k (0xe000 + k)))

let local_decls n =
  String.concat "" (List.init n (fun k -> Printf.sprintf "x%d: (node2)\n" k))

(* Figure 8: [n_filters] definitions, the measured ones last, rules only. *)
let udp_overhead_script ~n_filters =
  "FILTER_TABLE\n"
  ^ padding_filters (n_filters - 2)
  ^ "udp_ping: (34 2 0x1388), (36 2 0x1389)\n"
  ^ "udp_pong: (34 2 0x1389), (36 2 0x1388)\n" ^ "END\n" ^ node_table
  ^ "SCENARIO fig8_overhead\n" ^ "PING: (udp_ping, node1, node2, RECV)\n"
  ^ "(TRUE) >> ENABLE_CNTR( PING );\n" ^ "END\n"

(* Every filter pins the UDP source-port window to the ping's, so the whole
   table is one index bucket; the pads differ only in one payload byte
   (0xaa at offset 42+k, a value the echo payloads never carry). *)
let shared_bucket_script ~n_filters =
  let pads =
    String.concat ""
      (List.init (n_filters - 1) (fun k ->
           Printf.sprintf "pad%d: (34 2 0x1388), (%d 1 0xaa)\n" k (42 + k)))
  in
  "FILTER_TABLE\n" ^ pads ^ "udp_ping: (34 2 0x1388), (36 2 0x1389)\n"
  ^ "END\n" ^ node_table ^ "SCENARIO adv_index\n"
  ^ "PING: (udp_ping, node1, node2, RECV)\n"
  ^ "(TRUE) >> ENABLE_CNTR( PING );\n" ^ "END\n"

(* Figure 7: 25 filters and the 25-action rule (RESET plus 24 counter
   updates) on every data segment. *)
let tcp_overhead_script ~n_filters =
  let locals = 24 in
  let incrs =
    String.concat ""
      (List.init locals (fun k -> Printf.sprintf "INCR_CNTR( x%d, 1 );\n" k))
  in
  "FILTER_TABLE\n"
  ^ padding_filters (n_filters - 1)
  ^ "TCP_data: (34 2 0x6000), (36 2 0x4000), (47 1 0x10 0x10)\n" ^ "END\n"
  ^ node_table ^ "SCENARIO fig7_overhead\n"
  ^ "DATA: (TCP_data, node1, node2, RECV)\n" ^ local_decls locals
  ^ "(TRUE) >> ENABLE_CNTR( DATA );\n"
  ^ "((DATA = 1)) >> RESET_CNTR( DATA );\n" ^ incrs ^ "END\n"

(* --- testbeds --- *)

(* The always-on flight recorder ring of [vwctl run]. *)
let recorder_slots = 16384

let star_config seed = { Testbed.default_config with seed; trace_capacity = 16 }

(* One 100 Mbps half-duplex collision domain (100 m of cable), RLL with a
   window deep enough not to throttle it. *)
let bus_config seed =
  {
    Testbed.default_config with
    seed;
    topology = Testbed.Shared_bus;
    rll = Some { Vw_rll.Rll.default_config with window = 64 };
    link =
      {
        Vw_link.Link.default_config with
        propagation = Simtime.ns 500;
        max_queue = 512;
      };
    trace_capacity = 16;
  }

(* Compile, deploy over the control plane, and let INIT/START arrive. *)
let deploy testbed script =
  (match Scenario.deploy_only testbed ~script with
  | Ok _ -> ()
  | Error e -> failwith ("deploy: " ^ e));
  let engine = Testbed.engine testbed in
  Testbed.run testbed ~until:Simtime.(Engine.now engine + Simtime.ms 8) ()

let build ?tracer ~config ~observe script =
  let in_layer layer f =
    match tracer with Some t -> Tracer.span t layer f | None -> f ()
  in
  let testbed =
    in_layer Tracer.testbed_create (fun () ->
        let tb = Testbed.create ~config node_specs in
        if observe then Testbed.enable_observability ~capacity:recorder_slots tb;
        tb)
  in
  Option.iter (fun t -> Tracer.install t testbed) tracer;
  in_layer Tracer.scenario_deploy (fun () -> deploy testbed script);
  testbed

let fies testbed = List.map Testbed.fie (Testbed.nodes testbed)
let sum_stat testbed f = List.fold_left (fun a x -> a + f (Fie.stats x)) 0 (fies testbed)
let inspected testbed = sum_stat testbed (fun s -> s.Fie.packets_inspected)

(* Engine counts summed over nodes: frames inspected, filters scanned,
   counter updates, actions, control frames sent and received, cascade
   overflows. *)
let fie_counts testbed =
  Array.map (sum_stat testbed)
    [|
      (fun s -> s.Fie.packets_inspected);
      (fun s -> s.Fie.filters_scanned);
      (fun s -> s.Fie.counter_updates);
      (fun s -> s.Fie.actions_executed);
      (fun s -> s.Fie.control_sent + s.Fie.control_received);
      (fun s -> s.Fie.cascade_overflows);
    |]

let media testbed =
  match Testbed.bus testbed with
  | Some b -> [ Vw_link.Bus.stats b ]
  | None ->
      List.filter_map
        (fun n -> Option.map Vw_link.Link.stats (Testbed.link n))
        (Testbed.nodes testbed)

let link_frames testbed =
  List.fold_left (fun a m -> a + m.Vw_link.Media_stats.delivered) 0 (media testbed)

let link_drops testbed =
  List.fold_left (fun a m -> a + Vw_link.Media_stats.total_dropped m) 0 (media testbed)

(* Transmit-queue lengths of every endpoint, sampled after each step. *)
let queue_sampler testbed =
  let lens =
    match Testbed.bus testbed with
    | Some b ->
        List.mapi
          (fun i _ () -> Vw_link.Bus.queue_length (Vw_link.Bus.endpoint b i))
          (Testbed.nodes testbed)
    | None ->
        List.concat_map
          (fun n ->
            match Testbed.link n with
            | Some l ->
                [
                  (fun () -> Vw_link.Link.queue_length (Vw_link.Link.endpoint_a l));
                  (fun () -> Vw_link.Link.queue_length (Vw_link.Link.endpoint_b l));
                ]
            | None -> [])
          (Testbed.nodes testbed)
  in
  let max_seen = ref 0 in
  let sample () =
    List.iter (fun f -> let q = f () in if q > !max_seen then max_seen := q) lens
  in
  (sample, max_seen)

(* --- measured windows --- *)

(* Per-window figures. A segment reports their medians, so one disturbed
   window does not move it. *)
type windows = {
  mutable walls : float list;  (** seconds *)
  mutable ops : int list;
  mutable pkts : int list;
  mutable p50s : float list;  (** µs *)
  mutable tails : float list;  (** µs *)
}

let new_windows () = { walls = []; ops = []; pkts = []; p50s = []; tails = [] }

let add_window w ~wall ~ops ~pkts lat =
  w.walls <- wall :: w.walls;
  w.ops <- ops :: w.ops;
  w.pkts <- pkts :: w.pkts;
  w.p50s <- median lat :: w.p50s;
  w.tails <- tail_beyond_10 lat :: w.tails

let per_window_rate counts walls =
  Array.of_list (List.map2 (fun c w -> float_of_int c /. w) counts walls)

let n_windows w = List.length w.walls
let packets_per_s w = median (per_window_rate w.pkts w.walls)
let ops_per_s w = median (per_window_rate w.ops w.walls)

(* A segment's figures: the medians over its windows. *)
type segment = { seg_pps : float; seg_ops : float; seg_p50 : float; seg_tail : float }

let summarize w =
  {
    seg_pps = packets_per_s w;
    seg_ops = ops_per_s w;
    seg_p50 = median (Array.of_list w.p50s);
    seg_tail = median (Array.of_list w.tails);
  }

let mean l = List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l)

(* The end-to-end metrics of a run: means over its segments, the median
   set-up, the process's heap peak and the share of ops that passed. *)
let end_to_end segs ~setups ~attempted ~failed =
  let m f = mean (List.map f segs) in
  [
    ("packets_per_s", m (fun s -> s.seg_pps), "1/s");
    ("ops_per_s", m (fun s -> s.seg_ops), "1/s");
    ("op_p50_us", m (fun s -> s.seg_p50), "us");
    ("op_tail_us", m (fun s -> s.seg_tail), "us");
    ("setup_s", median setups, "s");
    ("heap_peak_mb", heap_peak_mb (), "MiB");
    ("success_rate", 1.0 -. (float_of_int failed /. float_of_int attempted), "ratio");
  ]

(* Run windows of [window] ops until [seconds] have passed (at least
   [min_windows]). [op i] runs op [i] and says whether it was correct;
   [packets ()] reads the FIE-inspected frame count; [after_window] may
   count further failures. *)
let run_windows ?(min_windows = 3) ?(after_window = fun () -> 0) ~seconds ~window
    ~packets ~first op =
  let w = new_windows () in
  let lat = Array.make window 0.0 in
  let failed = ref 0 and next = ref first in
  let deadline = now_ns () + int_of_float (seconds *. 1e9) in
  while n_windows w < min_windows || now_ns () < deadline do
    let p0 = packets () in
    let w0 = now_ns () in
    for i = 0 to window - 1 do
      let t0 = now_ns () in
      let ok = op !next in
      lat.(i) <- float_of_int (now_ns () - t0) /. 1e3;
      incr next;
      if not ok then incr failed
    done;
    let wall = secs_of_ns (now_ns () - w0) in
    failed := !failed + after_window ();
    add_window w ~wall ~ops:window ~pkts:(packets () - p0) lat
  done;
  (w, !next - first, !failed)

(* --- the UDP echo --- *)

type echo = {
  testbed : Testbed.t;
  engine : Engine.t;
  alice : Host.t;
  bob_ip : Vw_net.Ip_addr.t;
  payloads : bytes array;
  mutable sent : int;
  mutable answered : bool;
  mutable reply : bytes;
}

(* 256 seeded 64-byte payloads, none carrying the pads' 0xaa byte. *)
let echo_payloads seed =
  let rng = Random.State.make [| seed; 0xec40 |] in
  Array.init 256 (fun _ ->
      Bytes.init 64 (fun _ ->
          let b = Random.State.int rng 255 in
          Char.chr (if b >= 0xaa then b + 1 else b)))

let echo_bed ?tracer ~seed testbed =
  let node n = Testbed.host (Testbed.node testbed n) in
  let alice = node "node1" and bob = node "node2" in
  Host.udp_bind bob ~port:0x1389 (fun ~src ~src_port payload ->
      let send () =
        Host.udp_send bob ~src_port:0x1389 ~dst:src ~dst_port:src_port payload
      in
      match tracer with Some t -> Tracer.span t Tracer.egress send | None -> send ());
  let e =
    {
      testbed;
      engine = Testbed.engine testbed;
      alice;
      bob_ip = Host.ip bob;
      payloads = echo_payloads seed;
      sent = 0;
      answered = false;
      reply = Bytes.empty;
    }
  in
  Host.udp_bind alice ~port:0x1388 (fun ~src:_ ~src_port:_ payload ->
      e.reply <- payload;
      e.answered <- true);
  e

(* One echo round trip; correct iff the reply carries the same bytes. *)
let echo_op e i =
  let p = e.payloads.(i land 255) in
  e.answered <- false;
  e.sent <- e.sent + 1;
  Host.udp_send e.alice ~src_port:0x1388 ~dst:e.bob_ip ~dst_port:0x1389 p;
  while not e.answered do
    if not (Engine.step e.engine) then failwith "echo: simulation ran dry"
  done;
  Bytes.equal e.reply p

let echo_op_traced t e i =
  let p = e.payloads.(i land 255) in
  e.answered <- false;
  e.sent <- e.sent + 1;
  t.Tracer.op <- i;
  Tracer.span t Tracer.egress (fun () ->
      Host.udp_send e.alice ~src_port:0x1388 ~dst:e.bob_ip ~dst_port:0x1389 p);
  while not e.answered do
    if not (Tracer.step t e.engine) then failwith "echo: simulation ran dry"
  done;
  Bytes.equal e.reply p

(* The PING counter at node2 must equal the echoes sent so far; returns
   the number of echoes it disagrees by (0 when correct). *)
let ping_check e ~sent =
  let fie2 = Testbed.fie (Testbed.node e.testbed "node2") in
  match Fie.counter_value fie2 "PING" with
  | Some v -> abs (v - sent)
  | None -> sent

(* [window] echoes per window, [segment] windows per testbed. *)
type echo_shape = { script : string; window : int; segment : int }

let echo_small = { script = udp_overhead_script ~n_filters:25; window = 2_000; segment = 8 }

let classify_wide =
  { script = shared_bucket_script ~n_filters:1000; window = 500; segment = 4 }

(* --- set-up components, each timed on its own --- *)

(* Median ns of [reps] runs of [prepare] then timed [f]. *)
let median_ns ~reps prepare f =
  median
    (Array.init reps (fun _ ->
         let x = prepare () in
         float_of_int (snd (timed (fun () -> f x)))))

let compile_exn script =
  match Vw_fsl.Compile.parse_and_compile script with
  | Ok t -> t
  | Error e -> failwith ("compile: " ^ e)

(* The parts of set-up a later change might move: FSL parse/compile, the
   runtime table compile, the INIT codec round trip, testbed creation with
   its recorder rings, and deployment until START has arrived. *)
let setup_components ~reps ~make_testbed script =
  let tables = compile_exn script in
  let encoded = Vw_fsl.Tables_codec.to_bytes tables in
  [
    ( "fsl.parse_compile_ns",
      median_ns ~reps ignore (fun () -> ignore (compile_exn script)) );
    ( "fsl.tables_compile_ns",
      median_ns ~reps ignore (fun () -> ignore (Vw_fsl.Tables.compile tables)) );
    ( "fsl.codec_ns",
      median_ns ~reps ignore (fun () ->
          ignore (Vw_fsl.Tables_codec.of_bytes (Vw_fsl.Tables_codec.to_bytes tables)))
    );
    ("fsl.init_bytes", float_of_int (Bytes.length encoded));
    ("testbed.create_ns", median_ns ~reps ignore (fun () -> ignore (make_testbed ())));
    ( "scenario.deploy_ns",
      median_ns ~reps
        (fun () ->
          Vw_fsl.Compile_cache.reset ();
          make_testbed ())
        (fun tb -> deploy tb script) );
  ]

(* Mean ns per frame of the compiled classifier over [frames], replayed
   for [seconds]. *)
let classify_replay ~seconds script frames n =
  let tables = compile_exn script in
  let compiled = Vw_fsl.Tables.compile tables in
  let bindings = Array.make (Array.length tables.Vw_fsl.Tables.vars) None in
  let deadline = now_ns () + int_of_float (seconds *. 1e9) in
  let t0 = now_ns () and done_ = ref 0 in
  while !done_ = 0 || now_ns () < deadline do
    for i = 0 to n - 1 do
      ignore (Vw_engine.Classifier.classify_frame_c compiled ~bindings frames.(i))
    done;
    done_ := !done_ + n
  done;
  float_of_int (now_ns () - t0) /. float_of_int (max 1 !done_)
