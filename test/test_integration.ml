(* Full-system integration tests: the paper's two case studies run exactly
   as described — the Figure 5 script against our TCP, the Figure 6 script
   against our Rether — plus the negative variants showing the analysis
   scripts catching buggy implementations (the tool's raison d'être). *)

open Vw_sim
module Host = Vw_stack.Host
module Tcp = Vw_tcp.Tcp
module Rether = Vw_rether.Rether
module Fie = Vw_engine.Fie
module Testbed = Vw_core.Testbed
module Scenario = Vw_core.Scenario
module Trace = Vw_core.Trace

let check = Alcotest.check

let tables_of src =
  match Vw_fsl.Compile.parse_and_compile src with
  | Ok t -> t
  | Error e -> Alcotest.failf "compile: %s" e

(* --- E1: the Figure 5 scenario (TCP slow start -> congestion avoidance) --- *)

(* Client on node1 (port 0x6000) sending [segments] MSS-sized segments to a
   sink on node2 (port 0x4000). Returns the client connection ref. *)
let tcp_workload ?(config = Tcp.default_config) ~segments () =
  let conn_ref = ref None in
  let started = ref false in
  let workload testbed =
    if not !started then begin
      started := true;
      let node1 = Testbed.node testbed "node1" in
      let node2 = Testbed.node testbed "node2" in
      let stack1 = Testbed.tcp node1 in
      let stack2 = Testbed.tcp node2 in
      ignore
        (Tcp.listen stack2 ~port:0x4000 ~on_accept:(fun conn ->
             Tcp.on_data conn (fun _ -> ())));
      let conn =
        Tcp.connect ~config stack1 ~src_port:0x6000
          ~dst:(Host.ip (Testbed.host node2))
          ~dst_port:0x4000
      in
      Tcp.on_established conn (fun () ->
          Tcp.send conn (Bytes.create (segments * config.Tcp.mss)));
      conn_ref := Some conn
    end
  in
  (workload, conn_ref)

let run_figure5 ?(config = Tcp.default_config) () =
  let tables = tables_of Vw_scripts.tcp_ss_ca in
  let testbed = Testbed.of_node_table tables in
  let workload, conn_ref = tcp_workload ~config ~segments:30 () in
  match
    Scenario.run testbed ~script:Vw_scripts.tcp_ss_ca
      ~max_duration:(Simtime.sec 30.0) ~workload
  with
  | Error e -> Alcotest.failf "figure 5 run: %s" e
  | Ok result -> (result, testbed, Option.get !conn_ref)

let test_figure5_correct_tcp_passes () =
  let result, testbed, conn = run_figure5 () in
  (* the fault was injected: exactly one SYNACK died, forcing the paper's
     ssthresh=2 / cwnd=1 state *)
  check Alcotest.int "TCP took the SYN timeout" 1 (Tcp.stats conn).Tcp.timeouts;
  check Alcotest.int "ssthresh forced to 2" 2 (Tcp.ssthresh conn);
  (* a correct implementation switches to congestion avoidance: no error *)
  check (Alcotest.list Alcotest.string) "no FLAG_ERROR" []
    (List.map (fun e -> e.Scenario.err_node) result.Scenario.errors);
  check Alcotest.bool "scenario passed" true (Scenario.passed result);
  (* the analysis actually observed the transfer *)
  let fie1 = Testbed.fie (Testbed.node testbed "node1") in
  check (Alcotest.option Alcotest.int) "model entered congestion avoidance"
    (Some 2)
    (Fie.counter_value fie1 "SSTHRESH");
  (match Fie.counter_value fie1 "CWND" with
  | Some cwnd -> check Alcotest.bool "script CWND crossed ssthresh" true (cwnd > 2)
  | None -> Alcotest.fail "no CWND counter");
  (* both SYNACKs were seen at node1, one consumed by the DROP *)
  check (Alcotest.option Alcotest.int) "SYNACK count" (Some 2)
    (Fie.counter_value fie1 "SYNACK");
  check Alcotest.int "exactly one drop" 1 (Fie.stats fie1).Fie.faults_drop

let test_figure5_script_cwnd_tracks_tcp () =
  (* the script's CWND model and the implementation's cwnd agree at the end
     of the transfer — the FAE really is tracking the implementation *)
  let _, testbed, conn = run_figure5 () in
  let fie1 = Testbed.fie (Testbed.node testbed "node1") in
  match Fie.counter_value fie1 "CWND" with
  | Some model_cwnd ->
      let diff = abs (model_cwnd - Tcp.cwnd conn) in
      check Alcotest.bool
        (Printf.sprintf "model %d vs implementation %d" model_cwnd
           (Tcp.cwnd conn))
        true (diff <= 1)
  | None -> Alcotest.fail "no CWND counter"

let test_figure5_catches_broken_tcp () =
  (* a TCP that never leaves slow start overdraws the window model: the
     script's CanTx goes negative and the FAE flags it *)
  let config =
    { Tcp.default_config with broken_no_congestion_avoidance = true }
  in
  let result, _, _ = run_figure5 ~config () in
  check Alcotest.bool "FLAG_ERROR raised against buggy TCP" true
    (result.Scenario.errors <> []);
  check Alcotest.bool "scenario failed" false (Scenario.passed result)

let test_figure5_catches_cwnd_ignoring_tcp () =
  let config = { Tcp.default_config with broken_ignore_cwnd = true } in
  let result, _, _ = run_figure5 ~config () in
  check Alcotest.bool "FLAG_ERROR raised against window-ignoring TCP" true
    (result.Scenario.errors <> [])

let test_figure5_trace_shows_syn_retransmission () =
  let _, testbed, _ = run_figure5 () in
  let trace = Testbed.trace testbed in
  let is_syn (view : Vw_net.Frame_view.t) =
    match view.content with
    | Vw_net.Frame_view.Ip (_, Vw_net.Frame_view.Tcp_view seg) ->
        seg.flags.syn && not seg.flags.ack
    | _ -> false
  in
  (* SYN sent twice by node1 (original + retransmission after drop) *)
  check Alcotest.int "two SYNs on the wire" 2
    (Trace.count trace ~node:"node1" ~dir:`Out is_syn)

(* --- E2: the Figure 6 scenario (Rether single-node failure) --- *)

let rether_testbed ?(broken_no_eviction = false) () =
  let tables = tables_of Vw_scripts.rether_failure in
  let testbed = Testbed.of_node_table tables in
  let ring =
    List.map (fun n -> Host.mac (Testbed.host n)) (Testbed.nodes testbed)
  in
  let config =
    { (Rether.default_config ~ring) with broken_no_eviction }
  in
  let rethers =
    List.map
      (fun n -> (Testbed.name n, Rether.install ~config (Testbed.host n)))
      (Testbed.nodes testbed)
  in
  (testbed, rethers)

let rether_workload rethers testbed =
  (* start the token at node1 and run a TCP stream node1 -> node4 *)
  List.iter (fun (nm, r) -> if nm = "node1" then Rether.start r) rethers;
  let node1 = Testbed.node testbed "node1" in
  let node4 = Testbed.node testbed "node4" in
  let stack1 = Testbed.tcp node1 in
  let stack4 = Testbed.tcp node4 in
  ignore
    (Tcp.listen stack4 ~port:0x4000 ~on_accept:(fun conn ->
         Tcp.on_data conn (fun _ -> ())));
  let conn =
    Tcp.connect stack1 ~src_port:0x6000
      ~dst:(Host.ip (Testbed.host node4))
      ~dst_port:0x4000
  in
  (* >1000 data packets are needed to arm the fault *)
  Tcp.on_established conn (fun () ->
      Tcp.send conn (Bytes.create (1200 * Tcp.default_config.Tcp.mss)))

let run_figure6 ?broken_no_eviction () =
  let testbed, rethers = rether_testbed ?broken_no_eviction () in
  match
    Scenario.run testbed ~script:Vw_scripts.rether_failure
      ~max_duration:(Simtime.sec 120.0)
      ~workload:(rether_workload rethers)
  with
  | Error e -> Alcotest.failf "figure 6 run: %s" e
  | Ok result -> (result, testbed, rethers)

let test_figure6_recovery_verified () =
  let result, testbed, rethers = run_figure6 () in
  (* the analysis script verified: 3 token sends to the dead node, then a
     full round-robin of the survivors -> STOP, no errors *)
  check Alcotest.string "STOP reached" "STOPPED"
    (Scenario.outcome_to_string result.Scenario.outcome);
  check (Alcotest.list Alcotest.string) "no errors" []
    (List.map (fun e -> e.Scenario.err_node) result.Scenario.errors);
  check Alcotest.bool "passed" true (Scenario.passed result);
  (* node3 was killed by the FAIL action *)
  check Alcotest.bool "node3 crashed" true
    (Host.is_failed (Testbed.host (Testbed.node testbed "node3")));
  (* node2 really did send the token exactly 3 times to node3 *)
  let node2_rether = List.assoc "node2" rethers in
  check Alcotest.int "node2 evicted node3" 1
    (Rether.stats node2_rether).Rether.evictions;
  check Alcotest.int "2 token retransmissions (3 sends)" 2
    (Rether.stats node2_rether).Rether.token_retransmissions;
  (* survivors agree on the 3-member ring *)
  List.iter
    (fun (nm, r) ->
      if nm <> "node3" then
        check Alcotest.int (nm ^ " ring view") 3
          (List.length (Rether.ring_view r)))
    rethers

let test_figure6_catches_broken_rether () =
  (* a Rether that never evicts keeps retransmitting: TokensFrom2 exceeds 3
     and rule 18 flags the error *)
  let result, _, _ = run_figure6 ~broken_no_eviction:true () in
  check Alcotest.bool "FLAG_ERROR raised against buggy Rether" true
    (result.Scenario.errors <> []);
  check Alcotest.bool "failed" false (Scenario.passed result)

let test_figure6_inactivity_timeout_on_dead_ring () =
  (* if the ring cannot recover at all (watchdog disabled, no eviction,
     token wedged behind the dead node, no further data flows), the 1s
     inactivity timeout ends the scenario — the paper's failure mode for a
     recovery that does not "complete within 1 sec" *)
  let tables = tables_of Vw_scripts.rether_failure in
  let testbed = Testbed.of_node_table tables in
  let ring =
    List.map (fun n -> Host.mac (Testbed.host n)) (Testbed.nodes testbed)
  in
  (* kill node3 BEFORE any traffic; no token start at all: the scenario
     sees no matched packet ever *)
  let _config = Rether.default_config ~ring in
  match
    Scenario.run testbed ~script:Vw_scripts.rether_failure
      ~max_duration:(Simtime.sec 30.0)
      ~workload:(fun _ -> ())
  with
  | Error e -> Alcotest.failf "run: %s" e
  | Ok result ->
      check Alcotest.string "timed out" "TIMED_OUT"
        (Scenario.outcome_to_string result.Scenario.outcome);
      check Alcotest.bool "timeout means failure" false
        (Scenario.passed result);
      check Alcotest.bool "ended promptly after the quiet period" true
        (result.Scenario.duration < Simtime.sec 3.0)

(* --- script reuse across protocol versions (the regression claim) --- *)

let test_script_reuse_across_versions () =
  (* the same unmodified Figure 5 script distinguishes three "releases" of
     the TCP implementation with zero instrumentation changes *)
  let verdicts =
    List.map
      (fun config ->
        let result, _, _ = run_figure5 ~config () in
        Scenario.passed result)
      [
        Tcp.default_config;
        { Tcp.default_config with broken_no_congestion_avoidance = true };
        { Tcp.default_config with mss = 500 } (* correct, different MSS *);
      ]
  in
  check (Alcotest.list Alcotest.bool) "pass / fail / pass"
    [ true; false; true ] verdicts

(* --- transparency: scenario machinery must not break the protocol --- *)

let test_transparent_when_no_faults_armed () =
  (* with an observation-only script, TCP behaves exactly as it would bare *)
  let observe_only =
    {|
FILTER_TABLE
TCP_data: (34 2 0x6000), (36 2 0x4000), (47 1 0x10 0x10)
END
NODE_TABLE
node1 00:46:61:af:fe:23 192.168.1.1
node2 00:23:31:df:af:12 192.168.1.2
END
SCENARIO observe
DATA: (TCP_data, node1, node2, SEND)
(TRUE) >> ENABLE_CNTR( DATA );
END
|}
  in
  let tables = tables_of observe_only in
  let testbed = Testbed.of_node_table tables in
  let workload, conn_ref = tcp_workload ~segments:50 () in
  (match
     Scenario.run testbed ~script:observe_only ~max_duration:(Simtime.sec 30.0)
       ~workload
   with
  | Error e -> Alcotest.failf "run: %s" e
  | Ok result ->
      check Alcotest.bool "no errors" true (Scenario.passed result));
  let conn = Option.get !conn_ref in
  check Alcotest.int "no retransmissions" 0 (Tcp.stats conn).Tcp.retransmits;
  check Alcotest.int "all 50 segments acked" (50 * 1000)
    (Tcp.stats conn).Tcp.bytes_acked;
  let fie1 = Testbed.fie (Testbed.node testbed "node1") in
  (match Fie.counter_value fie1 "DATA" with
  | Some n -> check Alcotest.bool "observed the stream" true (n >= 50)
  | None -> Alcotest.fail "no DATA counter")

(* --- the Figure 8 echo path allocates a bounded number of words --- *)

(* The Section 7 UDP-overhead configuration: 23 filters that never match,
   then the ping/pong pair, and one rules-only counter. *)
let figure8_script =
  let pads =
    String.concat ""
      (List.init 23 (fun k -> Printf.sprintf "pad%d: (34 2 0x%x)\n" k (0xe000 + k)))
  in
  "FILTER_TABLE\n" ^ pads
  ^ "udp_ping: (34 2 0x1388), (36 2 0x1389)\n"
  ^ "udp_pong: (34 2 0x1389), (36 2 0x1388)\nEND\n"
  ^ "NODE_TABLE\nnode1 02:00:00:00:00:01 10.0.0.1\n\
     node2 02:00:00:00:00:02 10.0.0.2\nEND\n"
  ^ "SCENARIO fig8_overhead\nPING: (udp_ping, node1, node2, RECV)\n\
     (TRUE) >> ENABLE_CNTR( PING );\nEND\n"

(* One UDP echo round trip on the two-node star with the flight recorder
   on allocates at most [words_per_round_trip] minor words: the event
   entries, the wire copies and the decoded records, not a box per PRNG
   draw, a closure per scheduled frame or a rebuilt hook list.
   [Gc.minor_words] is exact between collections, unlike [Gc.quick_stat]. *)
let words_per_round_trip = 700.0

let test_echo_round_trip_allocation () =
  let specs =
    [
      ("node1", Vw_net.Mac.of_int 1, Vw_net.Ip_addr.of_host_index 1);
      ("node2", Vw_net.Mac.of_int 2, Vw_net.Ip_addr.of_host_index 2);
    ]
  in
  let config = { Testbed.default_config with seed = 1; trace_capacity = 16 } in
  let testbed = Testbed.create ~config specs in
  Testbed.enable_observability ~capacity:16384 testbed;
  (match Scenario.deploy_only testbed ~script:figure8_script with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "deploy: %s" e);
  let engine = Testbed.engine testbed in
  Testbed.run testbed ~until:Simtime.(Engine.now engine + Simtime.ms 8) ();
  let alice = Testbed.host (Testbed.node testbed "node1") in
  let bob = Testbed.host (Testbed.node testbed "node2") in
  Host.udp_bind bob ~port:0x1389 (fun ~src ~src_port payload ->
      Host.udp_send bob ~src_port:0x1389 ~dst:src ~dst_port:src_port payload);
  let answered = ref false in
  Host.udp_bind alice ~port:0x1388 (fun ~src:_ ~src_port:_ _ -> answered := true);
  let payload = Bytes.make 64 'e' in
  let round_trip () =
    answered := false;
    Host.udp_send alice ~src_port:0x1388 ~dst:(Host.ip bob) ~dst_port:0x1389
      payload;
    while not !answered do
      if not (Engine.step engine) then Alcotest.fail "echo ran dry"
    done
  in
  for _ = 1 to 500 do
    round_trip ()
  done;
  let n = 2000 in
  let w0 = Gc.minor_words () in
  for _ = 1 to n do
    round_trip ()
  done;
  let per = (Gc.minor_words () -. w0) /. float_of_int n in
  let fie2 = Testbed.fie (Testbed.node testbed "node2") in
  check Alcotest.(option int) "every ping counted" (Some (500 + n))
    (Fie.counter_value fie2 "PING");
  if per > words_per_round_trip then
    Alcotest.failf "%.1f minor words per echo round trip (bound %.0f)" per
      words_per_round_trip

(* With the default config (trace capacity 1_000_000) building a testbed
   costs kilobytes: the trace ring grows with the traffic instead of being
   allocated at capacity up front. *)
let create_bytes_bound = 65536.0

let test_create_allocation () =
  let specs =
    [
      ("node1", Vw_net.Mac.of_int 1, Vw_net.Ip_addr.of_host_index 1);
      ("node2", Vw_net.Mac.of_int 2, Vw_net.Ip_addr.of_host_index 2);
    ]
  in
  Gc.full_major ();
  let b0 = Gc.allocated_bytes () in
  let testbed = Testbed.create specs in
  let bytes = Gc.allocated_bytes () -. b0 in
  ignore (Sys.opaque_identity testbed);
  if bytes > create_bytes_bound then
    Alcotest.failf "Testbed.create allocated %.0f bytes (bound %.0f)" bytes
      create_bytes_bound

let suite =
  [
    ( "integration.figure5",
      [
        Alcotest.test_case "correct TCP passes" `Quick
          test_figure5_correct_tcp_passes;
        Alcotest.test_case "script model tracks implementation" `Quick
          test_figure5_script_cwnd_tracks_tcp;
        Alcotest.test_case "catches TCP without congestion avoidance" `Quick
          test_figure5_catches_broken_tcp;
        Alcotest.test_case "catches TCP ignoring cwnd" `Quick
          test_figure5_catches_cwnd_ignoring_tcp;
        Alcotest.test_case "trace shows the SYN retransmission" `Quick
          test_figure5_trace_shows_syn_retransmission;
      ] );
    ( "integration.figure6",
      [
        Alcotest.test_case "recovery verified, STOP reached" `Quick
          test_figure6_recovery_verified;
        Alcotest.test_case "catches Rether without eviction" `Quick
          test_figure6_catches_broken_rether;
        Alcotest.test_case "inactivity timeout flags dead ring" `Quick
          test_figure6_inactivity_timeout_on_dead_ring;
      ] );
    ( "integration.reuse",
      [
        Alcotest.test_case "one script, three protocol versions" `Quick
          test_script_reuse_across_versions;
        Alcotest.test_case "observation-only scenario is transparent" `Quick
          test_transparent_when_no_faults_armed;
      ] );
    ( "integration.alloc",
      [
        Alcotest.test_case "echo round trip allocation bound" `Quick
          test_echo_round_trip_allocation;
        Alcotest.test_case "testbed create allocation bound" `Quick
          test_create_allocation;
      ] );
  ]
