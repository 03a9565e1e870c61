type endpoint = {
  bus : t;
  index : int;
  mutable rx : bytes -> unit;
  queue : bytes Vw_util.Ring.t;
  mutable attempts : int;
      (* of the queue head: only the head contends, so the count resets
         when it leaves *)
  mutable engaged : bool;
      (* true while this endpoint is transmitting, deferring, or backing off:
         prevents re-entrant attempts on the queue head *)
}

and t = {
  engine : Vw_sim.Engine.t;
  config : Link.config;
  stats : Media_stats.t;
  prng : Vw_util.Prng.t;
  mutable endpoints : endpoint array;
  (* channel state: at most one live transmission *)
  mutable busy_until : Vw_sim.Simtime.t;
  mutable tx_start : Vw_sim.Simtime.t;
  mutable tx_owner : int;
  mutable pending : Vw_sim.Engine.handle list;
      (* completion event of the live transmission, cancellable on
         collision *)
  mutable tx_id : int;
      (* generation counter: lets a completion detect that the channel was
         (legitimately) re-acquired at the very instant it ended *)
  mutable down : bool;
}

let backoff_slot = 51_200 (* ns; the classic Ethernet slot time *)
let interframe_gap = 960 (* ns; 96 bit times at 100 Mbps *)
let max_attempts = 16

let create engine config ~n =
  let t =
    {
      engine;
      config;
      stats = Media_stats.create ();
      prng = Vw_sim.Engine.prng engine;
      endpoints = [||];
      busy_until = Vw_sim.Simtime.zero;
      tx_start = Vw_sim.Simtime.zero;
      tx_owner = -1;
      pending = [];
      tx_id = 0;
      down = false;
    }
  in
  let mk i =
    {
      bus = t;
      index = i;
      rx = ignore;
      queue = Vw_util.Ring.create ~dummy:Bytes.empty;
      attempts = 0;
      engaged = false;
    }
  in
  t.endpoints <- Array.init n mk;
  t

let endpoint t i = t.endpoints.(i)
let stats t = t.stats
let set_receive ep fn = ep.rx <- fn
let queue_length ep = Vw_util.Ring.length ep.queue
let set_down t d = t.down <- d

let cancel_pending t =
  List.iter (Vw_sim.Engine.cancel t.engine) t.pending;
  t.pending <- []

let finish_frame ep =
  ignore (Vw_util.Ring.take ep.queue);
  ep.attempts <- 0;
  ep.engaged <- false

(* Post-transmission / post-deferral contention delay: the interframe gap
   plus a small randomization. Giving the just-finished transmitter the same
   wait as deferring stations is what keeps one busy sender from starving
   everyone else — real Ethernet gets this fairness from the IFG too. *)
let contention_delay t =
  interframe_gap + Vw_util.Prng.int t.prng 4_000

let rec attempt ep =
  let t = ep.bus in
  if Vw_util.Ring.is_empty ep.queue then ep.engaged <- false
  else begin
    ep.engaged <- true;
    let now = Vw_sim.Engine.now t.engine in
    if now < t.busy_until && t.tx_owner <> ep.index then
      if Vw_sim.Simtime.(now >= t.tx_start + t.config.propagation) then begin
        (* Carrier sensed: defer to the end of the ongoing transmission
           plus the interframe gap and a small randomization (sub-slot)
           that keeps two deferring stations from colliding forever. *)
        let wake = Vw_sim.Simtime.(t.busy_until + contention_delay t) in
        ignore
          (Vw_sim.Engine.schedule_at t.engine ~time:wake (fun () -> attempt ep))
      end
      else collide t ep
    else start_transmission ep
  end

and collide t ep =
  (* The in-flight transmission has not propagated to [ep] yet: both frames
     die. The current owner aborts and backs off; so does [ep]. *)
  cancel_pending t;
  t.tx_id <- t.tx_id + 1;
  let owner = t.endpoints.(t.tx_owner) in
  t.busy_until <- Vw_sim.Engine.now t.engine (* channel frees immediately *);
  t.tx_owner <- -1;
  if Vw_util.Ring.is_empty owner.queue then owner.engaged <- false
  else back_off owner;
  back_off ep

and back_off ep =
  let t = ep.bus in
  ep.attempts <- ep.attempts + 1;
  if ep.attempts >= max_attempts then begin
    t.stats.dropped_collision <- t.stats.dropped_collision + 1;
    finish_frame ep;
    attempt ep
  end
  else begin
    let k = min ep.attempts 10 in
    let slots = Vw_util.Prng.int t.prng (1 lsl k) in
    let delay = Vw_sim.Simtime.ns ((slots * backoff_slot) + 1) in
    ignore
      (Vw_sim.Engine.schedule_after t.engine ~delay (fun () -> attempt ep))
  end

and start_transmission ep =
  let t = ep.bus in
  let data = Vw_util.Ring.peek ep.queue in
  let now = Vw_sim.Engine.now t.engine in
  let duration = Link.tx_time t.config (Bytes.length data) in
  t.tx_start <- now;
  t.busy_until <- Vw_sim.Simtime.(now + duration);
  t.tx_owner <- ep.index;
  t.tx_id <- t.tx_id + 1;
  let my_id = t.tx_id in
  (* Note: any previous completion either already ran (channel idle) or is
     queued to run at this very instant; it must NOT be cancelled here —
     its frame did finish on the wire. Only collisions cancel. *)
  let complete =
    Vw_sim.Engine.schedule_at t.engine ~time:t.busy_until (fun () ->
        (* release the channel only if it was not legitimately re-acquired
           at the instant this transmission ended *)
        if t.tx_id = my_id then begin
          t.tx_owner <- -1;
          t.pending <- []
        end;
        finish_frame ep;
        deliver t ep data;
        if not (Vw_util.Ring.is_empty ep.queue) then begin
          ep.engaged <- true;
          ignore
            (Vw_sim.Engine.schedule_after t.engine
               ~delay:(contention_delay t) (fun () -> attempt ep))
        end)
  in
  t.pending <- [ complete ]

and deliver t sender data =
  if not t.down then begin
    let arrival =
      Vw_sim.Simtime.(Vw_sim.Engine.now t.engine + t.config.propagation)
    in
    Array.iter
      (fun dst ->
        if dst.index <> sender.index && not (Link.lost t.config t.prng t.stats)
        then begin
          let data = Link.corrupt t.config t.prng t.stats data in
          t.stats.delivered <- t.stats.delivered + 1;
          ignore
            (Vw_sim.Engine.schedule_at t.engine ~time:arrival (fun () ->
                 dst.rx data))
        end)
      t.endpoints
  end

let send ep data =
  let t = ep.bus in
  t.stats.sent <- t.stats.sent + 1;
  if t.down then ()
  else if Vw_util.Ring.length ep.queue >= t.config.max_queue then
    t.stats.dropped_queue <- t.stats.dropped_queue + 1
  else begin
    Vw_util.Ring.add ep.queue data;
    if not ep.engaged then attempt ep
  end
