(* Tests for the physical layer: links, buses (collisions), switch. *)

open Vw_sim
open Vw_link

let check = Alcotest.check

let full_duplex ?(bandwidth = 100e6) ?(loss = 0.0) ?(prop = Simtime.us 5) () =
  {
    Link.default_config with
    bandwidth_bps = bandwidth;
    loss_rate = loss;
    propagation = prop;
  }

let frame_of_size n = Bytes.make n 'x'

let test_delivery_latency () =
  let engine = Engine.create () in
  (* 1000 bytes at 100 Mbps = 80 us serialization + 5 us propagation *)
  let link = Link.create engine (full_duplex ()) in
  let received_at = ref (-1) in
  Link.set_receive (Link.endpoint_b link) (fun _ -> received_at := Engine.now engine);
  Link.send (Link.endpoint_a link) (frame_of_size 1000);
  Engine.run engine;
  check Alcotest.int "serialization + propagation" (Simtime.us 85) !received_at

let test_fifo_and_serialization () =
  let engine = Engine.create () in
  let link = Link.create engine (full_duplex ()) in
  let arrivals = ref [] in
  Link.set_receive (Link.endpoint_b link) (fun data ->
      arrivals := (Bytes.length data, Engine.now engine) :: !arrivals);
  Link.send (Link.endpoint_a link) (frame_of_size 1000);
  Link.send (Link.endpoint_a link) (frame_of_size 500);
  Engine.run engine;
  match List.rev !arrivals with
  | [ (1000, t1); (500, t2) ] ->
      check Alcotest.int "first frame" (Simtime.us 85) t1;
      (* second serializes after the first: 80 + 40 + 5 prop *)
      check Alcotest.int "second frame" (Simtime.us 125) t2
  | _ -> Alcotest.fail "unexpected arrivals"

let test_duplex_directions_independent () =
  let engine = Engine.create () in
  let link = Link.create engine (full_duplex ()) in
  let got_a = ref false and got_b = ref false in
  Link.set_receive (Link.endpoint_a link) (fun _ -> got_a := true);
  Link.set_receive (Link.endpoint_b link) (fun _ -> got_b := true);
  Link.send (Link.endpoint_a link) (frame_of_size 100);
  Link.send (Link.endpoint_b link) (frame_of_size 100);
  Engine.run engine;
  check Alcotest.bool "a received" true !got_a;
  check Alcotest.bool "b received" true !got_b;
  check Alcotest.int "no collisions on full duplex" 0
    (Link.stats link).Media_stats.dropped_collision

let test_loss_rate () =
  let engine = Engine.create ~seed:7 () in
  let link = Link.create engine (full_duplex ~loss:0.3 ()) in
  let received = ref 0 in
  Link.set_receive (Link.endpoint_b link) (fun _ -> incr received);
  let n = 2000 in
  for i = 0 to n - 1 do
    ignore
      (Engine.schedule_at engine ~time:(Simtime.us (100 * i)) (fun () ->
           Link.send (Link.endpoint_a link) (frame_of_size 100)))
  done;
  Engine.run engine;
  let ratio = float_of_int !received /. float_of_int n in
  if ratio < 0.64 || ratio > 0.76 then
    Alcotest.failf "survival ratio %f, expected ~0.7" ratio;
  check Alcotest.int "stats add up" n
    ((Link.stats link).Media_stats.delivered
    + (Link.stats link).Media_stats.dropped_loss)

let test_corruption () =
  let engine = Engine.create ~seed:9 () in
  let link =
    Link.create engine { (full_duplex ()) with corrupt_rate = 1.0 }
  in
  let intact = ref 0 and corrupted = ref 0 in
  let original = frame_of_size 64 in
  Link.set_receive (Link.endpoint_b link) (fun data ->
      if Bytes.equal data original then incr intact else incr corrupted);
  for _ = 1 to 20 do
    Link.send (Link.endpoint_a link) (Bytes.copy original)
  done;
  Engine.run engine;
  check Alcotest.int "all corrupted" 20 !corrupted;
  check Alcotest.int "none intact" 0 !intact

let test_queue_overflow () =
  let engine = Engine.create () in
  let link = Link.create engine { (full_duplex ()) with max_queue = 4 } in
  for _ = 1 to 10 do
    Link.send (Link.endpoint_a link) (frame_of_size 1000)
  done;
  Engine.run engine;
  let stats = Link.stats link in
  (* 1 transmitting is also queued in this model: 4 fit, 6 dropped *)
  check Alcotest.int "tail drops" 6 stats.Media_stats.dropped_queue;
  check Alcotest.int "delivered rest" 4 stats.Media_stats.delivered

let test_link_down () =
  let engine = Engine.create () in
  let link = Link.create engine (full_duplex ()) in
  let received = ref 0 in
  Link.set_receive (Link.endpoint_b link) (fun _ -> incr received);
  Link.set_down link true;
  Link.send (Link.endpoint_a link) (frame_of_size 100);
  Engine.run engine;
  check Alcotest.int "nothing delivered" 0 !received

(* Frames of mixed sizes sent back to back arrive in order, the k-th at
   propagation + the serialization times of frames 0..k (80 ns a byte at
   100 Mbps). Twenty frames also outgrow the direction's initial ring. *)
let test_back_to_back_mixed_sizes () =
  let engine = Engine.create () in
  let link = Link.create engine (full_duplex ()) in
  let sizes = [ 1500; 64; 800; 64; 1000; 300; 60; 1514; 128; 64 ] in
  let sizes = sizes @ List.rev sizes in
  let arrivals = ref [] in
  Link.set_receive (Link.endpoint_b link) (fun data ->
      arrivals := (Char.code (Bytes.get data 0), Engine.now engine) :: !arrivals);
  List.iteri
    (fun i n ->
      let frame = frame_of_size n in
      Bytes.set frame 0 (Char.chr i);
      Link.send (Link.endpoint_a link) frame)
    sizes;
  Engine.run engine;
  let expected =
    List.rev
      (snd
         (List.fold_left
            (fun (i, acc) n ->
              let done_at =
                match acc with [] -> 0 | (_, t) :: _ -> t - Simtime.us 5
              in
              (i + 1, (i, done_at + (n * 80) + Simtime.us 5) :: acc))
            (0, []) sizes))
  in
  check
    Alcotest.(list (pair int int))
    "order and arrival times" expected (List.rev !arrivals)

(* A cable pulled mid-transmission: the frame already propagating still
   arrives, the one whose serialization ends while down is lost, one sent
   while down is dropped at the NIC, and the one finishing after the cable
   is back is delivered. *)
let test_link_down_mid_transmission () =
  let engine = Engine.create () in
  let link = Link.create engine (full_duplex ()) in
  let arrivals = ref [] in
  Link.set_receive (Link.endpoint_b link) (fun data ->
      arrivals := (Char.code (Bytes.get data 0), Engine.now engine) :: !arrivals);
  let send i =
    let frame = frame_of_size 1000 in
    Bytes.set frame 0 (Char.chr i);
    Link.send (Link.endpoint_a link) frame
  in
  (* serializations end at 80, 160 and 240 us *)
  send 0;
  send 1;
  send 2;
  let at t f = ignore (Engine.schedule_at engine ~time:(Simtime.us t) f) in
  at 82 (fun () -> Link.set_down link true);
  at 120 (fun () -> send 3);
  at 200 (fun () -> Link.set_down link false);
  Engine.run engine;
  check
    Alcotest.(list (pair int int))
    "survivors" [ (0, Simtime.us 85); (2, Simtime.us 245) ] (List.rev !arrivals);
  let stats = Link.stats link in
  check Alcotest.int "sent" 4 stats.Media_stats.sent;
  check Alcotest.int "delivered" 2 stats.Media_stats.delivered;
  check Alcotest.int "no loss or queue drops counted" 0
    (stats.Media_stats.dropped_loss + stats.Media_stats.dropped_queue)

(* --- half-duplex bus: contention --- *)

let bus_config =
  {
    Link.bandwidth_bps = 100e6;
    propagation = Simtime.us 5;
    loss_rate = 0.0;
    corrupt_rate = 0.0;
    max_queue = 64;
  }

let test_bus_broadcast_semantics () =
  let engine = Engine.create () in
  let bus = Bus.create engine bus_config ~n:3 in
  let got = Array.make 3 0 in
  for i = 0 to 2 do
    Bus.set_receive (Bus.endpoint bus i) (fun _ -> got.(i) <- got.(i) + 1)
  done;
  Bus.send (Bus.endpoint bus 0) (frame_of_size 100);
  Engine.run engine;
  check Alcotest.int "sender does not hear itself" 0 got.(0);
  check Alcotest.int "peer 1 hears" 1 got.(1);
  check Alcotest.int "peer 2 hears" 1 got.(2)

let test_bus_defers_when_carrier_sensed () =
  let engine = Engine.create () in
  let bus = Bus.create engine bus_config ~n:2 in
  let arrivals = ref [] in
  Bus.set_receive (Bus.endpoint bus 1) (fun data ->
      arrivals := (Bytes.length data, Engine.now engine) :: !arrivals);
  Bus.set_receive (Bus.endpoint bus 0) (fun data ->
      arrivals := (Bytes.length data, Engine.now engine) :: !arrivals);
  (* 0 starts at t=0; 1 wants to start at t=40us: carrier already sensed
     (propagation 5us < 40us), so 1 defers — no collision. *)
  Bus.send (Bus.endpoint bus 0) (frame_of_size 1000);
  ignore
    (Engine.schedule_at engine ~time:(Simtime.us 40) (fun () ->
         Bus.send (Bus.endpoint bus 1) (frame_of_size 500)));
  Engine.run engine;
  check Alcotest.int "no collision" 0 (Bus.stats bus).Media_stats.dropped_collision;
  check Alcotest.int "both delivered" 2 (List.length !arrivals)

let test_bus_collision_in_vulnerable_window () =
  let engine = Engine.create ~seed:3 () in
  let bus = Bus.create engine bus_config ~n:2 in
  let arrivals = ref 0 in
  Bus.set_receive (Bus.endpoint bus 1) (fun _ -> incr arrivals);
  Bus.set_receive (Bus.endpoint bus 0) (fun _ -> incr arrivals);
  (* both start within the 5us vulnerable window -> collision + backoff,
     both frames eventually get through *)
  Bus.send (Bus.endpoint bus 0) (frame_of_size 1000);
  ignore
    (Engine.schedule_at engine ~time:(Simtime.us 2) (fun () ->
         Bus.send (Bus.endpoint bus 1) (frame_of_size 1000)));
  Engine.run engine;
  check Alcotest.bool "collision happened" true
    ((Bus.stats bus).Media_stats.dropped_collision >= 1
    || (Bus.stats bus).Media_stats.delivered = 2);
  check Alcotest.int "both eventually delivered" 2 !arrivals

(* Every copy is lost: a shared segment draws loss once per receiver. *)
let test_bus_loss () =
  let engine = Engine.create () in
  let bus = Bus.create engine { bus_config with loss_rate = 1.0 } ~n:3 in
  let got = ref 0 in
  for i = 0 to 2 do
    Bus.set_receive (Bus.endpoint bus i) (fun _ -> incr got)
  done;
  for _ = 1 to 5 do
    Bus.send (Bus.endpoint bus 0) (frame_of_size 100)
  done;
  Engine.run engine;
  let stats = Bus.stats bus in
  check Alcotest.int "nothing arrives" 0 !got;
  check Alcotest.int "nothing delivered" 0 stats.Media_stats.delivered;
  check Alcotest.int "sends x receivers lost" (5 * 2) stats.Media_stats.dropped_loss

(* Every copy is corrupted, each on its own draw, and counted. *)
let test_bus_corruption () =
  let engine = Engine.create () in
  let bus = Bus.create engine { bus_config with corrupt_rate = 1.0 } ~n:3 in
  let original = frame_of_size 100 in
  let got = ref 0 and intact = ref 0 in
  for i = 0 to 2 do
    Bus.set_receive (Bus.endpoint bus i) (fun data ->
        incr got;
        if Bytes.equal data original then incr intact)
  done;
  for _ = 1 to 5 do
    Bus.send (Bus.endpoint bus 0) (Bytes.copy original)
  done;
  Engine.run engine;
  let stats = Bus.stats bus in
  check Alcotest.int "every copy arrives" (5 * 2) !got;
  check Alcotest.int "no copy intact" 0 !intact;
  check Alcotest.int "corrupted = delivered" stats.Media_stats.delivered
    stats.Media_stats.corrupted

(* Propagation (100 s) far beyond the longest backoff (~52 ms) and a 0.8 s
   frame: every retry lands in the vulnerable window, so the two stations
   collide in lockstep until each head gives up after 16 attempts, then do
   the same with their second frame. The end time pins the schedule: it
   moves if a new head inherits the attempts of the one before it. *)
let test_bus_always_colliding () =
  let engine = Engine.create ~seed:7 () in
  let config =
    { bus_config with bandwidth_bps = 1e3; propagation = Simtime.sec 100.0 }
  in
  let bus = Bus.create engine config ~n:2 in
  let got = ref 0 in
  for i = 0 to 1 do
    Bus.set_receive (Bus.endpoint bus i) (fun _ -> incr got)
  done;
  for i = 0 to 1 do
    for _ = 1 to 2 do
      Bus.send (Bus.endpoint bus i) (frame_of_size 100)
    done
  done;
  Engine.run engine;
  let stats = Bus.stats bus in
  check Alcotest.int "nothing arrives" 0 !got;
  check Alcotest.int "nothing delivered" 0 stats.Media_stats.delivered;
  check Alcotest.int "all four given up" 4 stats.Media_stats.dropped_collision;
  check Alcotest.int "end time" 478_361_630 (Engine.now engine)

(* --- switch --- *)

let mac i = Vw_net.Mac.of_int i

let eth_frame ~src ~dst =
  Vw_net.Eth.to_bytes
    (Vw_net.Eth.make ~dst ~src ~ethertype:0x0800 (Bytes.create 10))

let star engine n =
  let sw = Switch.create engine in
  let eps =
    Array.init n (fun _ ->
        let l = Link.create engine (full_duplex ()) in
        ignore (Switch.attach sw (Link.endpoint_b l));
        Link.endpoint_a l)
  in
  (sw, eps)

let test_switch_floods_unknown () =
  let engine = Engine.create () in
  let sw, eps = star engine 3 in
  let got = Array.make 3 0 in
  Array.iteri (fun i ep -> Link.set_receive ep (fun _ -> got.(i) <- got.(i) + 1)) eps;
  Link.send eps.(0) (eth_frame ~src:(mac 0) ~dst:(mac 2));
  Engine.run engine;
  check Alcotest.int "flooded to 1" 1 got.(1);
  check Alcotest.int "flooded to 2" 1 got.(2);
  check Alcotest.int "not back to sender" 0 got.(0);
  check Alcotest.int "one flood" 1 (Switch.stats sw).Switch.flooded

let test_switch_learns () =
  let engine = Engine.create () in
  let sw, eps = star engine 3 in
  let got = Array.make 3 0 in
  Array.iteri (fun i ep -> Link.set_receive ep (fun _ -> got.(i) <- got.(i) + 1)) eps;
  (* teach the switch where mac 2 lives *)
  Link.send eps.(2) (eth_frame ~src:(mac 2) ~dst:(mac 0));
  Engine.run engine;
  Array.fill got 0 3 0;
  Link.send eps.(0) (eth_frame ~src:(mac 0) ~dst:(mac 2));
  Engine.run engine;
  check Alcotest.int "unicast to 2 only" 1 got.(2);
  check Alcotest.int "no leak to 1" 0 got.(1);
  check Alcotest.bool "forwarded count" true ((Switch.stats sw).Switch.forwarded >= 1)

let test_switch_broadcast () =
  let engine = Engine.create () in
  let _, eps = star engine 4 in
  let got = Array.make 4 0 in
  Array.iteri (fun i ep -> Link.set_receive ep (fun _ -> got.(i) <- got.(i) + 1)) eps;
  Link.send eps.(1) (eth_frame ~src:(mac 1) ~dst:Vw_net.Mac.broadcast);
  Engine.run engine;
  check (Alcotest.list Alcotest.int) "everyone but sender" [ 1; 0; 1; 1 ]
    (Array.to_list got)

let test_switch_filters_same_port () =
  let engine = Engine.create () in
  let sw, eps = star engine 2 in
  (* src and dst behind the same port: learn both on port 0 *)
  Link.send eps.(0) (eth_frame ~src:(mac 0) ~dst:(mac 9));
  Engine.run engine;
  Link.send eps.(0) (eth_frame ~src:(mac 9) ~dst:(mac 0));
  Engine.run engine;
  (* now mac 0 is known on port 0; a frame from port 0 to mac 0 is filtered *)
  Link.send eps.(0) (eth_frame ~src:(mac 9) ~dst:(mac 0));
  Engine.run engine;
  check Alcotest.bool "filtered" true ((Switch.stats sw).Switch.filtered >= 1)

(* [learned_ports] lists every source MAC with the port it was seen on. *)
let test_switch_learned_ports () =
  let engine = Engine.create () in
  let sw, eps = star engine 3 in
  Link.send eps.(2) (eth_frame ~src:(mac 2) ~dst:Vw_net.Mac.broadcast);
  Link.send eps.(0) (eth_frame ~src:(mac 0) ~dst:(mac 2));
  Link.send eps.(1) (eth_frame ~src:(mac 7) ~dst:(mac 0));
  Engine.run engine;
  check
    Alcotest.(list (pair string int))
    "learned"
    [ ("02:00:00:00:00:00", 0); ("02:00:00:00:00:02", 2); ("02:00:00:00:00:07", 1) ]
    (List.map (fun (m, p) -> (Vw_net.Mac.to_string m, p)) (Switch.learned_ports sw))

let suite =
  [
    ( "link.p2p",
      [
        Alcotest.test_case "delivery latency" `Quick test_delivery_latency;
        Alcotest.test_case "fifo serialization" `Quick test_fifo_and_serialization;
        Alcotest.test_case "duplex independence" `Quick test_duplex_directions_independent;
        Alcotest.test_case "loss rate" `Quick test_loss_rate;
        Alcotest.test_case "corruption" `Quick test_corruption;
        Alcotest.test_case "queue overflow" `Quick test_queue_overflow;
        Alcotest.test_case "link down" `Quick test_link_down;
        Alcotest.test_case "back-to-back mixed sizes" `Quick
          test_back_to_back_mixed_sizes;
        Alcotest.test_case "link down mid-transmission" `Quick
          test_link_down_mid_transmission;
      ] );
    ( "link.bus",
      [
        Alcotest.test_case "broadcast semantics" `Quick test_bus_broadcast_semantics;
        Alcotest.test_case "carrier sense defers" `Quick test_bus_defers_when_carrier_sensed;
        Alcotest.test_case "loss per receiver" `Quick test_bus_loss;
        Alcotest.test_case "corruption per receiver" `Quick test_bus_corruption;
        Alcotest.test_case "always colliding gives up" `Quick
          test_bus_always_colliding;
        Alcotest.test_case "collision + recovery" `Quick
          test_bus_collision_in_vulnerable_window;
      ] );
    ( "link.switch",
      [
        Alcotest.test_case "floods unknown" `Quick test_switch_floods_unknown;
        Alcotest.test_case "learns ports" `Quick test_switch_learns;
        Alcotest.test_case "broadcast" `Quick test_switch_broadcast;
        Alcotest.test_case "same-port filter" `Quick test_switch_filters_same_port;
        Alcotest.test_case "learned ports" `Quick test_switch_learned_ports;
      ] );
  ]
