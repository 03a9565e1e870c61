(* Per-layer tracing from outside the program.

   Every layer boundary the benchmark can see is a clock reading: bracket
   hooks at priorities 99/101 around the FIE (100) and 199/201 around the
   RLL (200), a [min_int]-priority ingress hook where a frame enters the
   upper stack, the benchmark's own calls into [Host.udp_send]/[Tcp.send],
   and each [Engine.step] it drives. The tracer keeps a stack of open
   layers and charges the time between two boundaries to the layer on
   top, so a layer's self time is its spans minus the nested spans, and
   the self times of all layers add up to the traced wall time by
   construction; differencing two [snapshot]s gives a phase's self times,
   which the caller checks against its own clock.

   A span that the program never closes — a hook verdict of [Stolen] or
   [Drop] skips the closing bracket — ends when the enclosing step ends.

   The first [log_capacity] spans are also kept in memory (name, start,
   end, parent span, op) and written out by [write_spans] when the run is
   over. *)

module Host = Vw_stack.Host
module Hook = Vw_stack.Hook
module Testbed = Vw_core.Testbed
open Measure

(* Layers. [harness] is the benchmark's own loop; [sim] is step time no
   nested span covers: the scheduler and link/switch delivery. *)
let harness = 0
let sim = 1
let fie_out = 2
let fie_in = 3
let rll_out = 4
let rll_in = 5
let upper = 6
let egress = 7
let testbed_create = 8
let scenario_deploy = 9

let names =
  [|
    "harness";
    "sim";
    "fie.egress";
    "fie.ingress";
    "rll.egress";
    "rll.ingress";
    "stack.upper";
    "stack.egress";
    "testbed.create";
    "scenario.deploy";
  |]

let n_layers = Array.length names
let max_depth = 256
let log_capacity = 50_000
let capture_capacity = 4096

type t = {
  self_ns : int array;
  stack : int array;
  span_of : int array;  (** log index of each open span, or -1 *)
  mutable depth : int;
  mutable last : int;
  mutable op : int;  (** the op the current spans belong to *)
  mutable steps : int;
  mutable pending_max : int;
  mutable on_step : unit -> unit;  (** sampling after every step *)
  log_layer : int array;
  log_start : int array;
  log_end : int array;
  log_parent : int array;
  log_op : int array;
  mutable log_n : int;
  captured : Vw_net.Eth.t array;  (** frames entering the FIE *)
  mutable n_captured : int;
}

let create () =
  {
    self_ns = Array.make n_layers 0;
    stack = Array.make max_depth harness;
    span_of = Array.make max_depth (-1);
    depth = 1;
    last = now_ns ();
    op = 0;
    steps = 0;
    pending_max = 0;
    on_step = ignore;
    log_layer = Array.make log_capacity 0;
    log_start = Array.make log_capacity 0;
    log_end = Array.make log_capacity 0;
    log_parent = Array.make log_capacity (-1);
    log_op = Array.make log_capacity 0;
    log_n = 0;
    captured =
      Array.make capture_capacity
        (Vw_net.Eth.make ~dst:Vw_net.Mac.broadcast ~src:Vw_net.Mac.broadcast
           ~ethertype:0 Bytes.empty);
    n_captured = 0;
  }

let top t = t.stack.(t.depth - 1)

let charge t now =
  let l = top t in
  t.self_ns.(l) <- t.self_ns.(l) + (now - t.last);
  t.last <- now

let push t layer =
  let now = now_ns () in
  charge t now;
  if t.depth < max_depth then begin
    let span =
      if t.log_n < log_capacity then begin
        let i = t.log_n in
        t.log_n <- i + 1;
        t.log_layer.(i) <- layer;
        t.log_start.(i) <- now;
        t.log_end.(i) <- now;
        t.log_parent.(i) <- t.span_of.(t.depth - 1);
        t.log_op.(i) <- t.op;
        i
      end
      else -1
    in
    t.stack.(t.depth) <- layer;
    t.span_of.(t.depth) <- span;
    t.depth <- t.depth + 1
  end

(* Close the innermost open span of [layer] and every span above it; a
   boundary whose span is not open is ignored. *)
let close t layer =
  let rec find j = if j < 1 then -1 else if t.stack.(j) = layer then j else find (j - 1) in
  let j = find (t.depth - 1) in
  if j >= 1 then begin
    let now = now_ns () in
    charge t now;
    for k = t.depth - 1 downto j do
      let s = t.span_of.(k) in
      if s >= 0 then t.log_end.(s) <- now
    done;
    t.depth <- j
  end

(* Run [f] as a span of [layer]. *)
let span t layer f =
  push t layer;
  let r = f () in
  close t layer;
  r

(* One [Engine.step] as a [sim] span, closing whatever the step left open. *)
let step t engine =
  push t sim;
  let more = Vw_sim.Engine.step engine in
  close t sim;
  t.steps <- t.steps + 1;
  let p = Vw_sim.Engine.pending engine in
  if p > t.pending_max then t.pending_max <- p;
  t.on_step ();
  more

let capture t frame =
  if t.n_captured < capture_capacity then begin
    t.captured.(t.n_captured) <- frame;
    t.n_captured <- t.n_captured + 1
  end

(* Bracket hooks on every host of [testbed]. Egress runs hooks in
   ascending priority and ingress in descending, so 99 opens the FIE span
   on egress and closes it on ingress, and likewise 199/201 for the RLL. *)
let install t testbed =
  let rll = Testbed.rll (List.hd (Testbed.nodes testbed)) <> None in
  List.iter
    (fun node ->
      let h = Testbed.host node in
      let add point priority f =
        ignore
          (Host.add_hook h point ~priority ~name:"perfbench" (fun frame ->
               f frame;
               Hook.Accept frame))
      in
      add Hook.Egress 99 (fun frame ->
          (* an RLL egress that kept the frame (window full) never reached 201 *)
          if top t = rll_out then close t rll_out;
          capture t frame;
          push t fie_out);
      add Hook.Egress 101 (fun _ -> close t fie_out);
      add Hook.Ingress 101 (fun frame ->
          capture t frame;
          push t fie_in);
      add Hook.Ingress 99 (fun _ -> close t fie_in);
      if rll then begin
        add Hook.Egress 199 (fun _ -> push t rll_out);
        add Hook.Egress 201 (fun _ -> close t rll_out);
        add Hook.Ingress 201 (fun _ -> push t rll_in);
        add Hook.Ingress 199 (fun _ -> close t rll_in)
      end;
      add Hook.Ingress min_int (fun _ -> push t upper))
    (Testbed.nodes testbed)

(* Bring the harness span up to date (call before reading self times). *)
let sync t = charge t (now_ns ())

(* Self times so far, to difference around a measured phase. *)
let snapshot t = Array.copy t.self_ns

let write_spans t path =
  let oc = open_out path in
  for i = 0 to t.log_n - 1 do
    Printf.fprintf oc
      "{\"span\":%d,\"name\":%S,\"start_ns\":%d,\"end_ns\":%d,\"parent\":%d,\"op\":%d}\n"
      i names.(t.log_layer.(i)) t.log_start.(i) t.log_end.(i) t.log_parent.(i)
      t.log_op.(i)
  done;
  close_out oc
