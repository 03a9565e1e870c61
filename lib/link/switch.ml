type stats = {
  mutable forwarded : int;
  mutable flooded : int;
  mutable filtered : int;
}

let switching_delay = Vw_sim.Simtime.us 2

(* Every frame leaves [switching_delay] after it arrived, so each port's
   frames leave in the order they were switched: a forwarding event takes
   the head of its port's [pending] ring, through a callback allocated
   once per port. *)
type port = {
  endpoint : Link.endpoint;
  pending : bytes Vw_util.Ring.t;
  forward : unit -> unit;
}

type t = {
  engine : Vw_sim.Engine.t;
  mutable ports : port array;
  table : (int, int) Hashtbl.t; (* 48-bit MAC, read in place -> port *)
  stats : stats;
}

let create engine =
  {
    engine;
    ports = [||];
    table = Hashtbl.create 16;
    stats = { forwarded = 0; flooded = 0; filtered = 0 };
  }

let emit t port_idx data =
  let port = t.ports.(port_idx) in
  Vw_util.Ring.add port.pending data;
  ignore
    (Vw_sim.Engine.schedule_after t.engine ~delay:switching_delay
       port.forward)

let flood t ~ingress data =
  t.stats.flooded <- t.stats.flooded + 1;
  Array.iteri (fun i _ -> if i <> ingress then emit t i data) t.ports

let broadcast = 0xffff_ffff_ffff

let handle_frame t ~ingress data =
  if Bytes.length data >= Vw_net.Eth.header_size then begin
    let dst = Vw_util.Hexutil.to_int_be data ~pos:0 ~len:6 in
    let src = Vw_util.Hexutil.to_int_be data ~pos:6 ~len:6 in
    Hashtbl.replace t.table src ingress;
    if dst = broadcast then flood t ~ingress data
    else
      match Hashtbl.find t.table dst with
      | port when port = ingress -> t.stats.filtered <- t.stats.filtered + 1
      | port ->
          t.stats.forwarded <- t.stats.forwarded + 1;
          emit t port data
      | exception Not_found -> flood t ~ingress data
  end

let attach t endpoint =
  let port = Array.length t.ports in
  let pending = Vw_util.Ring.create ~dummy:Bytes.empty in
  let forward () = Link.send endpoint (Vw_util.Ring.take pending) in
  t.ports <- Array.append t.ports [| { endpoint; pending; forward } |];
  Link.set_receive endpoint (fun data -> handle_frame t ~ingress:port data);
  port

let stats t = t.stats
let learned_ports t =
  Hashtbl.fold
    (fun mac port acc ->
      let b = Bytes.create 6 in
      Vw_util.Hexutil.set_int_be b ~pos:0 ~len:6 mac;
      (Vw_net.Mac.of_bytes b ~pos:0, port) :: acc)
    t.table []
  |> List.sort compare
