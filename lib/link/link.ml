type config = {
  bandwidth_bps : float;
  propagation : Vw_sim.Simtime.t;
  loss_rate : float;
  corrupt_rate : float;
  half_duplex : bool;
  max_queue : int;
}

let default_config =
  {
    bandwidth_bps = 100e6;
    propagation = Vw_sim.Simtime.us 5;
    loss_rate = 0.0;
    corrupt_rate = 0.0;
    half_duplex = false;
    max_queue = 64;
  }

(* Full-duplex direction: a FIFO of frames serialized back to back, and the
   frames already on the wire. Serialization is sequential and propagation
   constant, so frames arrive in the order they finished transmitting:
   each arrival event takes the head of [inflight]. The two event
   callbacks are allocated once per direction, not once per frame. *)
type direction = {
  queue : bytes Vw_util.Ring.t; (* head = the frame being serialized *)
  inflight : bytes Vw_util.Ring.t;
  mutable busy : bool;
  mutable rx : bytes -> unit; (* receiver at the far end *)
  mutable tx_done : unit -> unit;
  mutable arrive : unit -> unit;
}

type impl =
  | Full_duplex of direction array (* index = sending endpoint *)
  | Half_duplex of Bus.t

type t = {
  engine : Vw_sim.Engine.t;
  config : config;
  impl : impl;
  fd_stats : Media_stats.t; (* used only in full-duplex mode *)
  prng : Vw_util.Prng.t;
  mutable down : bool;
}

type endpoint = { link : t; index : int }

let tx_time t len =
  Vw_sim.Simtime.ns
    (int_of_float ((float_of_int (len * 8) /. t.config.bandwidth_bps *. 1e9) +. 0.5))

let pump_direction t dir =
  if Vw_util.Ring.is_empty dir.queue then dir.busy <- false
  else begin
    dir.busy <- true;
    let duration = tx_time t (Bytes.length (Vw_util.Ring.peek dir.queue)) in
    ignore (Vw_sim.Engine.schedule_after t.engine ~delay:duration dir.tx_done)
  end

let transmit_done t dir data =
  if not t.down then
    if Vw_util.Prng.bool t.prng t.config.loss_rate then
      t.fd_stats.dropped_loss <- t.fd_stats.dropped_loss + 1
    else begin
      let data =
        if Bytes.length data > 0 && Vw_util.Prng.bool t.prng t.config.corrupt_rate
        then begin
          t.fd_stats.corrupted <- t.fd_stats.corrupted + 1;
          let copy = Bytes.copy data in
          let pos = Vw_util.Prng.int t.prng (Bytes.length copy) in
          Bytes.set copy pos
            (Char.chr
               (Char.code (Bytes.get copy pos) lxor (1 + Vw_util.Prng.int t.prng 255)));
          copy
        end
        else data
      in
      t.fd_stats.delivered <- t.fd_stats.delivered + 1;
      Vw_util.Ring.add dir.inflight data;
      ignore
        (Vw_sim.Engine.schedule_after t.engine ~delay:t.config.propagation
           dir.arrive)
    end

let create engine config =
  let impl =
    if config.half_duplex then
      Half_duplex
        (Bus.create engine
           {
             Bus.bandwidth_bps = config.bandwidth_bps;
             propagation = config.propagation;
             loss_rate = config.loss_rate;
             corrupt_rate = config.corrupt_rate;
             max_queue = config.max_queue;
           }
           ~n:2)
    else
      Full_duplex
        (Array.init 2 (fun _ ->
             {
               queue = Vw_util.Ring.create ~dummy:Bytes.empty;
               inflight = Vw_util.Ring.create ~dummy:Bytes.empty;
               busy = false;
               rx = ignore;
               tx_done = ignore;
               arrive = ignore;
             }))
  in
  let t =
    {
      engine;
      config;
      impl;
      fd_stats = Media_stats.create ();
      prng = Vw_sim.Engine.prng engine;
      down = false;
    }
  in
  (match impl with
  | Full_duplex dirs ->
      Array.iter
        (fun dir ->
          dir.tx_done <-
            (fun () ->
              transmit_done t dir (Vw_util.Ring.take dir.queue);
              pump_direction t dir);
          dir.arrive <- (fun () -> dir.rx (Vw_util.Ring.take dir.inflight)))
        dirs
  | Half_duplex _ -> ());
  t

let endpoint_a t = { link = t; index = 0 }
let endpoint_b t = { link = t; index = 1 }

let stats t =
  match t.impl with Full_duplex _ -> t.fd_stats | Half_duplex bus -> Bus.stats bus

let config t = t.config

let set_down t d =
  t.down <- d;
  match t.impl with Half_duplex bus -> Bus.set_down bus d | Full_duplex _ -> ()

let send ep data =
  let t = ep.link in
  match t.impl with
  | Half_duplex bus -> Bus.send (Bus.endpoint bus ep.index) data
  | Full_duplex dirs ->
      t.fd_stats.sent <- t.fd_stats.sent + 1;
      if t.down then ()
      else begin
        let dir = dirs.(ep.index) in
        if Vw_util.Ring.length dir.queue >= t.config.max_queue then
          t.fd_stats.dropped_queue <- t.fd_stats.dropped_queue + 1
        else begin
          Vw_util.Ring.add dir.queue data;
          if not dir.busy then pump_direction t dir
        end
      end

let set_receive ep fn =
  let t = ep.link in
  match t.impl with
  | Half_duplex bus -> Bus.set_receive (Bus.endpoint bus ep.index) fn
  | Full_duplex dirs ->
      (* Frames sent by the peer arrive here: install on the peer's
         sending direction. *)
      dirs.(1 - ep.index).rx <- fn

let queue_length ep =
  let t = ep.link in
  match t.impl with
  | Half_duplex bus -> Bus.queue_length (Bus.endpoint bus ep.index)
  | Full_duplex dirs -> Vw_util.Ring.length dirs.(ep.index).queue
