type handle = (unit -> unit) Event_queue.handle

type t = {
  queue : (unit -> unit) Event_queue.t;
  mutable clock : Simtime.t;
  root_prng : Vw_util.Prng.t;
  mutable stop_requested : bool;
}

let create ?(seed = 42) () =
  {
    queue = Event_queue.create ();
    clock = Simtime.zero;
    root_prng = Vw_util.Prng.create ~seed;
    stop_requested = false;
  }

let now t = t.clock
let prng t = Vw_util.Prng.split t.root_prng

let schedule_at t ~time fn =
  let time = max time t.clock in
  Event_queue.push t.queue ~time fn

let schedule_after t ~delay fn =
  let delay = max 0 delay in
  schedule_at t ~time:Simtime.(t.clock + delay) fn

let cancel t handle = Event_queue.cancel t.queue handle

let step t =
  if Event_queue.is_empty t.queue then false
  else begin
    let time = Event_queue.earliest_time t.queue in
    let fn = Event_queue.take t.queue in
    if time > t.clock then t.clock <- time;
    fn ();
    true
  end

let run ?until ?max_events t =
  t.stop_requested <- false;
  let executed = ref 0 in
  let budget_left () =
    match max_events with None -> true | Some m -> !executed < m
  in
  let continue = ref true in
  while !continue do
    if t.stop_requested || not (budget_left ()) then continue := false
    else if Event_queue.is_empty t.queue then continue := false
    else
      match until with
      | Some u when Event_queue.earliest_time t.queue > u ->
          t.clock <- max t.clock u;
          continue := false
      | _ ->
          ignore (step t);
          incr executed
  done;
  match until with
  | Some u when Event_queue.is_empty t.queue && not t.stop_requested ->
      t.clock <- max t.clock u
  | _ -> ()

let pending t = Event_queue.length t.queue
let stop t = t.stop_requested <- true
