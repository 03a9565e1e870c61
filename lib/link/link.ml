type config = {
  bandwidth_bps : float;
  propagation : Vw_sim.Simtime.t;
  loss_rate : float;
  corrupt_rate : float;
  max_queue : int;
}

let default_config =
  {
    bandwidth_bps = 100e6;
    propagation = Vw_sim.Simtime.us 5;
    loss_rate = 0.0;
    corrupt_rate = 0.0;
    max_queue = 64;
  }

let tx_time config len =
  let ns = float_of_int (len * 8) /. config.bandwidth_bps *. 1e9 in
  Vw_sim.Simtime.ns (int_of_float (ns +. 0.5))

let lost config prng (stats : Media_stats.t) =
  let lost = Vw_util.Prng.bool prng config.loss_rate in
  if lost then stats.dropped_loss <- stats.dropped_loss + 1;
  lost

let corrupt config prng (stats : Media_stats.t) data =
  if Bytes.length data > 0 && Vw_util.Prng.bool prng config.corrupt_rate
  then begin
    stats.corrupted <- stats.corrupted + 1;
    let copy = Bytes.copy data in
    let pos = Vw_util.Prng.int prng (Bytes.length copy) in
    let flip = 1 + Vw_util.Prng.int prng 255 in
    Bytes.set copy pos (Char.chr (Char.code (Bytes.get copy pos) lxor flip));
    copy
  end
  else data

(* One direction: a FIFO of frames serialized back to back, and the
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

type t = {
  engine : Vw_sim.Engine.t;
  config : config;
  dirs : direction array; (* index = sending endpoint *)
  stats : Media_stats.t;
  prng : Vw_util.Prng.t;
  mutable down : bool;
}

type endpoint = { link : t; index : int }

let pump_direction t dir =
  if Vw_util.Ring.is_empty dir.queue then dir.busy <- false
  else begin
    dir.busy <- true;
    let len = Bytes.length (Vw_util.Ring.peek dir.queue) in
    ignore
      (Vw_sim.Engine.schedule_after t.engine ~delay:(tx_time t.config len)
         dir.tx_done)
  end

let transmit_done t dir data =
  if not (t.down || lost t.config t.prng t.stats) then begin
    let data = corrupt t.config t.prng t.stats data in
    t.stats.delivered <- t.stats.delivered + 1;
    Vw_util.Ring.add dir.inflight data;
    ignore
      (Vw_sim.Engine.schedule_after t.engine ~delay:t.config.propagation
         dir.arrive)
  end

let create engine config =
  let dirs =
    Array.init 2 (fun _ ->
        {
          queue = Vw_util.Ring.create ~dummy:Bytes.empty;
          inflight = Vw_util.Ring.create ~dummy:Bytes.empty;
          busy = false;
          rx = ignore;
          tx_done = ignore;
          arrive = ignore;
        })
  in
  let t =
    {
      engine;
      config;
      dirs;
      stats = Media_stats.create ();
      prng = Vw_sim.Engine.prng engine;
      down = false;
    }
  in
  Array.iter
    (fun dir ->
      dir.tx_done <-
        (fun () ->
          transmit_done t dir (Vw_util.Ring.take dir.queue);
          pump_direction t dir);
      dir.arrive <- (fun () -> dir.rx (Vw_util.Ring.take dir.inflight)))
    dirs;
  t

let endpoint_a t = { link = t; index = 0 }
let endpoint_b t = { link = t; index = 1 }
let stats t = t.stats
let config t = t.config
let set_down t d = t.down <- d

let send ep data =
  let t = ep.link in
  t.stats.sent <- t.stats.sent + 1;
  if not t.down then begin
    let dir = t.dirs.(ep.index) in
    if Vw_util.Ring.length dir.queue >= t.config.max_queue then
      t.stats.dropped_queue <- t.stats.dropped_queue + 1
    else begin
      Vw_util.Ring.add dir.queue data;
      if not dir.busy then pump_direction t dir
    end
  end

(* Frames sent by the peer arrive here: install on the peer's sending
   direction. *)
let set_receive ep fn = ep.link.dirs.(1 - ep.index).rx <- fn
let queue_length ep = Vw_util.Ring.length ep.link.dirs.(ep.index).queue
