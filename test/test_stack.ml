(* Tests for the host stack: hooks (the Netfilter analogue), IP/UDP
   delivery, timers, failure injection. *)

open Vw_sim
module Host = Vw_stack.Host
module Hook = Vw_stack.Hook

let check = Alcotest.check

let mac i = Vw_net.Mac.of_int i
let ip i = Vw_net.Ip_addr.of_host_index i

(* Two hosts joined by a direct link. *)
let pair ?(link_config = Vw_link.Link.default_config) () =
  let engine = Engine.create () in
  let link = Vw_link.Link.create engine link_config in
  let a = Host.create engine ~name:"a" ~mac:(mac 1) ~ip:(ip 1) in
  let b = Host.create engine ~name:"b" ~mac:(mac 2) ~ip:(ip 2) in
  Host.attach a (Vw_link.Netif.of_link_endpoint (Vw_link.Link.endpoint_a link));
  Host.attach b (Vw_link.Netif.of_link_endpoint (Vw_link.Link.endpoint_b link));
  Host.add_neighbor a (ip 2) (mac 2);
  Host.add_neighbor b (ip 1) (mac 1);
  (engine, a, b)

let test_udp_delivery () =
  let engine, a, b = pair () in
  let got = ref None in
  Host.udp_bind b ~port:9000 (fun ~src ~src_port payload ->
      got := Some (src, src_port, Bytes.to_string payload));
  Host.udp_send a ~src_port:5555 ~dst:(ip 2) ~dst_port:9000
    (Bytes.of_string "hello");
  Engine.run engine;
  match !got with
  | Some (src, src_port, payload) ->
      check Alcotest.bool "src ip" true (Vw_net.Ip_addr.equal src (ip 1));
      check Alcotest.int "src port" 5555 src_port;
      check Alcotest.string "payload" "hello" payload
  | None -> Alcotest.fail "datagram not delivered"

let test_udp_echo_roundtrip () =
  let engine, a, b = pair () in
  Host.udp_bind b ~port:7 (fun ~src ~src_port payload ->
      Host.udp_send b ~src_port:7 ~dst:src ~dst_port:src_port payload);
  let echoed = ref false in
  Host.udp_bind a ~port:1234 (fun ~src:_ ~src_port:_ payload ->
      if Bytes.to_string payload = "ping" then echoed := true);
  Host.udp_send a ~src_port:1234 ~dst:(ip 2) ~dst_port:7 (Bytes.of_string "ping");
  Engine.run engine;
  check Alcotest.bool "echo came back" true !echoed

let test_udp_bind_conflict () =
  let _, a, _ = pair () in
  Host.udp_bind a ~port:80 (fun ~src:_ ~src_port:_ _ -> ());
  Alcotest.check_raises "double bind"
    (Invalid_argument "Host.udp_bind: port 80 already bound") (fun () ->
      Host.udp_bind a ~port:80 (fun ~src:_ ~src_port:_ _ -> ()));
  Host.udp_unbind a ~port:80;
  Host.udp_bind a ~port:80 (fun ~src:_ ~src_port:_ _ -> ())

let test_nic_mac_filter () =
  (* b must ignore frames addressed to someone else *)
  let engine, a, b = pair () in
  Host.add_neighbor a (ip 9) (mac 9);
  let got = ref 0 in
  Host.udp_bind b ~port:9 (fun ~src:_ ~src_port:_ _ -> incr got);
  (* addressed to mac 9 but lands on b's NIC (direct link) *)
  Host.udp_send a ~src_port:1 ~dst:(ip 9) ~dst_port:9 (Bytes.create 1);
  Engine.run engine;
  check Alcotest.int "filtered by NIC" 0 !got;
  check Alcotest.int "b received nothing" 0 (Host.frames_received b)

(* The largest datagram IPv4 can carry arrives intact; one byte more is
   refused at the sender instead of leaving with wrapped length fields. *)
let test_udp_max_datagram () =
  let engine, a, b = pair () in
  let got = ref None in
  Host.udp_bind b ~port:9 (fun ~src:_ ~src_port:_ payload -> got := Some payload);
  let largest = Bytes.init 65507 (fun i -> Char.chr (i land 0xff)) in
  Host.udp_send a ~src_port:1 ~dst:(ip 2) ~dst_port:9 largest;
  Engine.run engine;
  (match !got with
  | Some p -> check Alcotest.bool "65507 bytes intact" true (Bytes.equal p largest)
  | None -> Alcotest.fail "largest datagram not delivered");
  let sent = Host.frames_sent a in
  (match Host.udp_send a ~src_port:1 ~dst:(ip 2) ~dst_port:9 (Bytes.create 65508) with
  | () -> Alcotest.fail "65508-byte payload accepted"
  | exception Invalid_argument _ -> ());
  Engine.run engine;
  check Alcotest.int "nothing sent" sent (Host.frames_sent a)

(* --- hooks --- *)

let test_hook_egress_order_and_drop () =
  let engine, a, b = pair () in
  let order = ref [] in
  let log name verdict frame =
    order := name :: !order;
    match verdict with `Accept -> Hook.Accept frame | `Drop -> Hook.Drop
  in
  ignore (Host.add_hook a Hook.Egress ~priority:200 ~name:"low" (log "low" `Accept));
  ignore (Host.add_hook a Hook.Egress ~priority:100 ~name:"high" (log "high" `Accept));
  let got = ref 0 in
  Host.udp_bind b ~port:9 (fun ~src:_ ~src_port:_ _ -> incr got);
  Host.udp_send a ~src_port:1 ~dst:(ip 2) ~dst_port:9 (Bytes.create 1);
  Engine.run engine;
  check (Alcotest.list Alcotest.string) "ascending priority on egress"
    [ "high"; "low" ] (List.rev !order);
  check Alcotest.int "delivered" 1 !got;
  (* a dropping hook consumes the packet *)
  ignore (Host.add_hook a Hook.Egress ~priority:150 ~name:"drop" (log "drop" `Drop));
  Host.udp_send a ~src_port:1 ~dst:(ip 2) ~dst_port:9 (Bytes.create 1);
  Engine.run engine;
  check Alcotest.int "dropped" 1 !got

let test_hook_ingress_order () =
  let engine, a, b = pair () in
  let order = ref [] in
  let log name frame =
    order := name :: !order;
    Hook.Accept frame
  in
  ignore (Host.add_hook b Hook.Ingress ~priority:100 ~name:"vw" (log "vw"));
  ignore (Host.add_hook b Hook.Ingress ~priority:200 ~name:"rll" (log "rll"));
  Host.udp_bind b ~port:9 (fun ~src:_ ~src_port:_ _ -> ());
  Host.udp_send a ~src_port:1 ~dst:(ip 2) ~dst_port:9 (Bytes.create 1);
  Engine.run engine;
  check (Alcotest.list Alcotest.string) "descending priority on ingress"
    [ "rll"; "vw" ] (List.rev !order)

let test_hook_transform () =
  let engine, a, b = pair () in
  (* an egress hook rewriting the payload (what MODIFY does) *)
  ignore
    (Host.add_hook a Hook.Egress ~priority:100 ~name:"rewrite"
       (fun frame ->
         let data = Vw_net.Eth.to_bytes frame in
         (* flip a UDP payload byte: offset 42 = 14 eth + 20 ip + 8 udp *)
         Bytes.set data 42 'X';
         Hook.Accept (Vw_net.Eth.of_bytes data)));
  let got = ref "" in
  Host.udp_bind b ~port:9 (fun ~src:_ ~src_port:_ payload ->
      got := Bytes.to_string payload);
  Host.udp_send a ~src_port:1 ~dst:(ip 2) ~dst_port:9 (Bytes.of_string "abc");
  Engine.run engine;
  (* the UDP checksum now fails at b, so nothing is delivered — transforming
     hooks see real end-to-end consequences *)
  check Alcotest.string "checksum killed it" "" !got

let test_hook_steal_reinject () =
  let engine, a, b = pair () in
  let stolen = ref None in
  ignore
    (Host.add_hook a Hook.Egress ~priority:100 ~name:"stealer" (fun frame ->
         if !stolen = None then begin
           stolen := Some frame;
           Hook.Stolen
         end
         else Hook.Accept frame));
  let got = ref 0 in
  Host.udp_bind b ~port:9 (fun ~src:_ ~src_port:_ _ -> incr got);
  Host.udp_send a ~src_port:1 ~dst:(ip 2) ~dst_port:9 (Bytes.create 1);
  Engine.run engine;
  check Alcotest.int "stolen, not delivered" 0 !got;
  (* reinject below priority 100: must NOT pass the stealer again *)
  (match !stolen with
  | Some frame -> Host.reinject a Hook.Egress ~from_priority:100 frame
  | None -> Alcotest.fail "hook never ran");
  Engine.run engine;
  check Alcotest.int "reinjected frame delivered" 1 !got

let test_remove_hook () =
  let engine, a, b = pair () in
  let id = Host.add_hook a Hook.Egress ~priority:100 ~name:"drop" (fun _ -> Hook.Drop) in
  let got = ref 0 in
  Host.udp_bind b ~port:9 (fun ~src:_ ~src_port:_ _ -> incr got);
  Host.udp_send a ~src_port:1 ~dst:(ip 2) ~dst_port:9 (Bytes.create 1);
  Engine.run engine;
  check Alcotest.int "dropped while installed" 0 !got;
  Host.remove_hook a id;
  Host.udp_send a ~src_port:1 ~dst:(ip 2) ~dst_port:9 (Bytes.create 1);
  Engine.run engine;
  check Alcotest.int "delivered after removal" 1 !got

(* A hook added or removed between two sends changes the second send's
   chain, in both directions. *)
let test_hook_change_between_sends () =
  let engine, a, b = pair () in
  let seen = ref [] in
  let log name frame =
    seen := name :: !seen;
    Hook.Accept frame
  in
  Host.udp_bind b ~port:9 (fun ~src:_ ~src_port:_ _ -> ());
  let send () =
    Host.udp_send a ~src_port:1 ~dst:(ip 2) ~dst_port:9 (Bytes.create 1);
    Engine.run engine;
    let s = List.rev !seen in
    seen := [];
    s
  in
  let out1 = Host.add_hook a Hook.Egress ~priority:100 ~name:"out1" (log "out1") in
  let in1 = Host.add_hook b Hook.Ingress ~priority:100 ~name:"in1" (log "in1") in
  check (Alcotest.list Alcotest.string) "first send" [ "out1"; "in1" ] (send ());
  Host.remove_hook a out1;
  Host.remove_hook b in1;
  ignore (Host.add_hook a Hook.Egress ~priority:150 ~name:"out2" (log "out2"));
  ignore (Host.add_hook b Hook.Ingress ~priority:50 ~name:"in2" (log "in2"));
  check (Alcotest.list Alcotest.string) "second send re-routed" [ "out2"; "in2" ]
    (send ())

(* After [Fie.uninstall] the FIE's hooks are gone and the others still run,
   in order. *)
let test_fie_uninstall_keeps_other_hooks () =
  let engine, a, b = pair () in
  let seen = ref [] in
  let log name frame =
    seen := name :: !seen;
    Hook.Accept frame
  in
  ignore (Host.add_hook a Hook.Egress ~priority:50 ~name:"e50" (log "e50"));
  ignore (Host.add_hook a Hook.Egress ~priority:150 ~name:"e150" (log "e150"));
  let fie = Vw_engine.Fie.install a in
  ignore (Host.add_hook a Hook.Egress ~priority:250 ~name:"e250" (log "e250"));
  Host.udp_bind b ~port:9 (fun ~src:_ ~src_port:_ _ -> ());
  let send () =
    Host.udp_send a ~src_port:1 ~dst:(ip 2) ~dst_port:9 (Bytes.create 1);
    Engine.run engine
  in
  send ();
  check Alcotest.int "FIE inspected" 1
    (Vw_engine.Fie.stats fie).Vw_engine.Fie.packets_inspected;
  Vw_engine.Fie.uninstall fie;
  seen := [];
  send ();
  check (Alcotest.list Alcotest.string) "remaining hooks, in order"
    [ "e50"; "e150"; "e250" ] (List.rev !seen);
  check Alcotest.int "FIE no longer inspects" 1
    (Vw_engine.Fie.stats fie).Vw_engine.Fie.packets_inspected

(* [reinject ~from_priority] resumes the chain strictly beyond that
   priority: above it on egress, below it on ingress. *)
let test_reinject_skips_through_priority () =
  let engine, a, b = pair () in
  let seen = ref [] in
  let log name frame =
    seen := name :: !seen;
    Hook.Accept frame
  in
  List.iter
    (fun p ->
      let name = Printf.sprintf "%d" p in
      ignore (Host.add_hook a Hook.Egress ~priority:p ~name (log ("e" ^ name)));
      ignore (Host.add_hook b Hook.Ingress ~priority:p ~name (log ("i" ^ name))))
    [ 50; 100; 150; 200 ];
  let got = ref 0 in
  Host.udp_bind b ~port:9 (fun ~src:_ ~src_port:_ _ -> incr got);
  let frame = ref None in
  ignore
    (Host.add_hook b Hook.Ingress ~priority:300 ~name:"catch" (fun f ->
         if !frame = None then begin
           frame := Some f;
           Hook.Stolen
         end
         else Hook.Accept f));
  Host.udp_send a ~src_port:1 ~dst:(ip 2) ~dst_port:9 (Bytes.create 1);
  Engine.run engine;
  check (Alcotest.list Alcotest.string) "full egress chain"
    [ "e50"; "e100"; "e150"; "e200" ] (List.rev !seen);
  let f = Option.get !frame in
  seen := [];
  Host.reinject b Hook.Ingress ~from_priority:150 f;
  check (Alcotest.list Alcotest.string) "ingress beyond 150" [ "i100"; "i50" ]
    (List.rev !seen);
  check Alcotest.int "delivered" 1 !got;
  seen := [];
  Host.reinject a Hook.Egress ~from_priority:100 f;
  Engine.run engine;
  check (Alcotest.list Alcotest.string) "egress beyond 100, then b's ingress"
    [ "e150"; "e200"; "i200"; "i150"; "i100"; "i50" ] (List.rev !seen);
  seen := [];
  Host.reinject a Hook.Egress ~from_priority:200 f;
  Engine.run engine;
  check (Alcotest.list Alcotest.string) "beyond every egress hook"
    [ "i200"; "i150"; "i100"; "i50" ] (List.rev !seen);
  check Alcotest.int "all three delivered" 3 !got

(* --- timers --- *)

let test_timer_jiffy_quantization () =
  let engine, a, _ = pair () in
  let fired_at = ref (-1) in
  ignore
    (Host.set_timer a ~delay:(Simtime.ms 13) (fun () ->
         fired_at := Engine.now engine));
  Engine.run engine;
  check Alcotest.int "rounded up to jiffy grid" (Simtime.ms 20) !fired_at

let test_timer_fine () =
  let engine, a, _ = pair () in
  let fired_at = ref (-1) in
  ignore
    (Host.set_timer a ~granularity:`Fine ~delay:(Simtime.ms 13) (fun () ->
         fired_at := Engine.now engine));
  Engine.run engine;
  check Alcotest.int "exact" (Simtime.ms 13) !fired_at

let test_timer_cancel () =
  let engine, a, _ = pair () in
  let fired = ref false in
  let timer = Host.set_timer a ~delay:(Simtime.ms 10) (fun () -> fired := true) in
  Host.cancel_timer a timer;
  (* cancellation removes the event: nothing is left for the scheduler *)
  check Alcotest.int "no pending event" 0 (Engine.pending engine);
  Engine.run engine;
  check Alcotest.bool "cancelled" false !fired;
  check Alcotest.bool "clock did not reach the cancelled expiry" true
    (Engine.now engine < Simtime.ms 10)

(* --- failure --- *)

let test_fail_silences_node () =
  let engine, a, b = pair () in
  let got = ref 0 in
  Host.udp_bind b ~port:9 (fun ~src:_ ~src_port:_ _ -> incr got);
  Host.fail a;
  Host.udp_send a ~src_port:1 ~dst:(ip 2) ~dst_port:9 (Bytes.create 1);
  Engine.run engine;
  check Alcotest.int "failed node sends nothing" 0 !got;
  (* and receives nothing *)
  let got_a = ref 0 in
  Host.udp_bind a ~port:9 (fun ~src:_ ~src_port:_ _ -> incr got_a);
  Host.fail a;
  Host.udp_send b ~src_port:1 ~dst:(ip 1) ~dst_port:9 (Bytes.create 1);
  Engine.run engine;
  check Alcotest.int "failed node hears nothing" 0 !got_a;
  (* revive restores *)
  Host.revive a;
  Host.udp_send b ~src_port:1 ~dst:(ip 1) ~dst_port:9 (Bytes.create 1);
  Engine.run engine;
  check Alcotest.int "revived node hears" 1 !got_a

let test_fail_inhibits_timers () =
  let engine, a, _ = pair () in
  let fired = ref false in
  ignore (Host.set_timer a ~delay:(Simtime.ms 10) (fun () -> fired := true));
  Host.fail a;
  Engine.run engine;
  check Alcotest.bool "timer inhibited on failed node" false !fired

let test_tap_sees_both_directions () =
  let engine, a, b = pair () in
  let taps = ref [] in
  Host.set_tap a (fun ~dir _ -> taps := dir :: !taps);
  Host.udp_bind b ~port:9 (fun ~src ~src_port payload ->
      Host.udp_send b ~src_port:9 ~dst:src ~dst_port:src_port payload);
  Host.udp_bind a ~port:1 (fun ~src:_ ~src_port:_ _ -> ());
  Host.udp_send a ~src_port:1 ~dst:(ip 2) ~dst_port:9 (Bytes.create 1);
  Engine.run engine;
  check (Alcotest.list Alcotest.bool) "out then in" [ true; false ]
    (List.rev_map (fun d -> d = `Out) !taps)

let suite =
  [
    ( "stack.udp",
      [
        Alcotest.test_case "delivery" `Quick test_udp_delivery;
        Alcotest.test_case "echo roundtrip" `Quick test_udp_echo_roundtrip;
        Alcotest.test_case "bind conflict" `Quick test_udp_bind_conflict;
        Alcotest.test_case "NIC MAC filter" `Quick test_nic_mac_filter;
        Alcotest.test_case "largest datagram" `Quick test_udp_max_datagram;
      ] );
    ( "stack.hooks",
      [
        Alcotest.test_case "egress order + drop" `Quick test_hook_egress_order_and_drop;
        Alcotest.test_case "ingress order" `Quick test_hook_ingress_order;
        Alcotest.test_case "transforming hook" `Quick test_hook_transform;
        Alcotest.test_case "steal and reinject" `Quick test_hook_steal_reinject;
        Alcotest.test_case "remove hook" `Quick test_remove_hook;
        Alcotest.test_case "hook change between sends" `Quick
          test_hook_change_between_sends;
        Alcotest.test_case "FIE uninstall keeps other hooks" `Quick
          test_fie_uninstall_keeps_other_hooks;
        Alcotest.test_case "reinject skips through priority" `Quick
          test_reinject_skips_through_priority;
      ] );
    ( "stack.timers",
      [
        Alcotest.test_case "jiffy quantization" `Quick test_timer_jiffy_quantization;
        Alcotest.test_case "fine granularity" `Quick test_timer_fine;
        Alcotest.test_case "cancel" `Quick test_timer_cancel;
      ] );
    ( "stack.failure",
      [
        Alcotest.test_case "fail silences node" `Quick test_fail_silences_node;
        Alcotest.test_case "fail inhibits timers" `Quick test_fail_inhibits_timers;
        Alcotest.test_case "tap" `Quick test_tap_sees_both_directions;
      ] );
  ]
