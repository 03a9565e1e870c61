(* Tests for the discrete-event engine: ordering, cancellation, run bounds. *)

open Vw_sim

let check = Alcotest.check
let qtest = Test_seed.qtest

let test_time_units () =
  check Alcotest.int "ms" 1_000_000 (Simtime.ms 1);
  check Alcotest.int "us" 1_000 (Simtime.us 1);
  check Alcotest.int "sec" 1_500_000_000 (Simtime.sec 1.5);
  check Alcotest.int "jiffy" (Simtime.ms 10) Simtime.jiffy;
  check (Alcotest.float 1e-12) "to_sec" 0.25 (Simtime.to_sec (Simtime.ms 250))

let test_event_order () =
  let engine = Engine.create () in
  let log = ref [] in
  let record tag () = log := tag :: !log in
  ignore (Engine.schedule_at engine ~time:(Simtime.ms 30) (record "c"));
  ignore (Engine.schedule_at engine ~time:(Simtime.ms 10) (record "a"));
  ignore (Engine.schedule_at engine ~time:(Simtime.ms 20) (record "b"));
  Engine.run engine;
  check (Alcotest.list Alcotest.string) "chronological" [ "a"; "b"; "c" ]
    (List.rev !log);
  check Alcotest.int "clock at last event" (Simtime.ms 30) (Engine.now engine)

let test_fifo_ties () =
  let engine = Engine.create () in
  let log = ref [] in
  for i = 1 to 5 do
    ignore
      (Engine.schedule_at engine ~time:(Simtime.ms 5) (fun () ->
           log := i :: !log))
  done;
  Engine.run engine;
  check (Alcotest.list Alcotest.int) "insertion order at equal time"
    [ 1; 2; 3; 4; 5 ] (List.rev !log)

let test_cancel () =
  let engine = Engine.create () in
  let fired = ref false in
  let h = Engine.schedule_after engine ~delay:(Simtime.ms 1) (fun () -> fired := true) in
  Engine.cancel engine h;
  Engine.run engine;
  check Alcotest.bool "cancelled event did not fire" false !fired;
  check Alcotest.int "queue empty" 0 (Engine.pending engine)

let test_run_until () =
  let engine = Engine.create () in
  let count = ref 0 in
  for i = 1 to 10 do
    ignore
      (Engine.schedule_at engine ~time:(Simtime.ms (10 * i)) (fun () -> incr count))
  done;
  Engine.run engine ~until:(Simtime.ms 50);
  check Alcotest.int "only events <= until" 5 !count;
  check Alcotest.int "clock = until" (Simtime.ms 50) (Engine.now engine);
  Engine.run engine;
  check Alcotest.int "rest runs later" 10 !count

let test_schedule_from_callback () =
  let engine = Engine.create () in
  let log = ref [] in
  ignore
    (Engine.schedule_at engine ~time:(Simtime.ms 1) (fun () ->
         log := "outer" :: !log;
         ignore
           (Engine.schedule_after engine ~delay:(Simtime.ms 1) (fun () ->
                log := "inner" :: !log))));
  Engine.run engine;
  check (Alcotest.list Alcotest.string) "nested scheduling" [ "outer"; "inner" ]
    (List.rev !log);
  check Alcotest.int "clock advanced" (Simtime.ms 2) (Engine.now engine)

let test_past_schedule_clamps () =
  let engine = Engine.create () in
  let when_fired = ref (-1) in
  ignore
    (Engine.schedule_at engine ~time:(Simtime.ms 10) (fun () ->
         ignore
           (Engine.schedule_at engine ~time:(Simtime.ms 3) (fun () ->
                when_fired := Engine.now engine))));
  Engine.run engine;
  check Alcotest.int "past events run now, not before" (Simtime.ms 10) !when_fired

let test_max_events () =
  let engine = Engine.create () in
  let count = ref 0 in
  let rec loop () =
    incr count;
    ignore (Engine.schedule_after engine ~delay:(Simtime.ms 1) loop)
  in
  ignore (Engine.schedule_after engine ~delay:(Simtime.ms 1) loop);
  Engine.run engine ~max_events:100;
  check Alcotest.int "bounded" 100 !count

let test_stop () =
  let engine = Engine.create () in
  let count = ref 0 in
  for _ = 1 to 10 do
    ignore
      (Engine.schedule_after engine ~delay:(Simtime.ms 1) (fun () ->
           incr count;
           if !count = 3 then Engine.stop engine))
  done;
  Engine.run engine;
  check Alcotest.int "stopped early" 3 !count

let test_prng_streams_differ () =
  let engine = Engine.create () in
  let a = Engine.prng engine and b = Engine.prng engine in
  check Alcotest.bool "distinct component streams" true
    (Vw_util.Prng.bits64 a <> Vw_util.Prng.bits64 b)

let prop_events_fire_in_time_order =
  QCheck.Test.make ~name:"random schedules fire chronologically" ~count:200
    QCheck.(list_of_size (Gen.int_range 0 100) (int_bound 10_000))
    (fun delays ->
      let engine = Engine.create () in
      let fired = ref [] in
      List.iter
        (fun d ->
          ignore
            (Engine.schedule_at engine ~time:(Simtime.us d) (fun () ->
                 fired := Engine.now engine :: !fired)))
        delays;
      Engine.run engine;
      let times = List.rev !fired in
      List.length times = List.length delays
      && List.sort compare times = times)

let prop_cancelled_never_fire =
  QCheck.Test.make ~name:"cancelled events never fire" ~count:200
    QCheck.(list_of_size (Gen.int_range 1 50) (pair (int_bound 1000) bool))
    (fun entries ->
      let engine = Engine.create () in
      let fired = Hashtbl.create 16 in
      let handles =
        List.mapi
          (fun i (d, cancel) ->
            let h =
              Engine.schedule_at engine ~time:(Simtime.us d) (fun () ->
                  Hashtbl.replace fired i ())
            in
            (h, cancel, i))
          entries
      in
      List.iter
        (fun (h, cancel, _) -> if cancel then Engine.cancel engine h)
        handles;
      Engine.run engine;
      List.for_all
        (fun (_, cancel, i) -> if cancel then not (Hashtbl.mem fired i) else Hashtbl.mem fired i)
        handles)

let test_empty_queue_pop_raises () =
  let q = Vw_sim.Event_queue.create () in
  let raises what f =
    match f () with
    | _ -> Alcotest.failf "%s on an empty queue returned" what
    | exception Invalid_argument _ -> ()
  in
  raises "earliest_time" (fun () -> Vw_sim.Event_queue.earliest_time q);
  raises "take" (fun () -> Vw_sim.Event_queue.take q);
  ignore (Vw_sim.Event_queue.push q ~time:7 "x");
  check Alcotest.int "earliest" 7 (Vw_sim.Event_queue.earliest_time q);
  check Alcotest.string "take" "x" (Vw_sim.Event_queue.take q);
  check Alcotest.bool "empty again" true (Vw_sim.Event_queue.is_empty q)

(* One pop through the queue's two-call pop path; [None] when empty. *)
let pop queue =
  if Vw_sim.Event_queue.is_empty queue then None
  else
    let time = Vw_sim.Event_queue.earliest_time queue in
    Some (time, Vw_sim.Event_queue.take queue)

(* model-based test of the event queue: a random push/pop/cancel trace must
   agree with a naive sorted-list reference implementation *)
let prop_event_queue_matches_model =
  QCheck.Test.make ~name:"event queue agrees with a list model" ~count:300
    QCheck.(
      list_of_size (Gen.int_range 0 80)
        (oneof
           [
             map (fun t -> `Push (abs t mod 1000)) int;
             always `Pop;
             map (fun i -> `Cancel (abs i)) small_nat;
           ]))
    (fun ops ->
      let queue = Vw_sim.Event_queue.create () in
      (* model: list of (time, id, alive ref); FIFO within equal times *)
      let model = ref [] in
      let handles = ref [] in
      let next_id = ref 0 in
      let ok = ref true in
      List.iter
        (fun op ->
          match op with
          | `Push time ->
              let id = !next_id in
              incr next_id;
              let handle = Vw_sim.Event_queue.push queue ~time id in
              let alive = ref true in
              model := !model @ [ (time, id, alive) ];
              handles := !handles @ [ (handle, alive) ]
          | `Cancel i -> (
              match List.nth_opt !handles i with
              | Some (handle, alive) ->
                  Vw_sim.Event_queue.cancel queue handle;
                  alive := false
              | None -> ())
          | `Pop -> (
              let live =
                List.filter (fun (_, _, alive) -> !alive) !model
              in
              let expected =
                List.fold_left
                  (fun best ((t, id, _) as e) ->
                    match best with
                    | None -> Some e
                    | Some (bt, bid, _) ->
                        if t < bt || (t = bt && id < bid) then Some e else best)
                  None live
              in
              match (pop queue, expected) with
              | None, None -> ()
              | Some (t, id), Some (et, eid, alive) ->
                  if t <> et || id <> eid then ok := false else alive := false
              | Some _, None | None, Some _ -> ok := false))
        ops;
      (* drain both and compare the tails *)
      let rec drain () =
        let live = List.filter (fun (_, _, alive) -> !alive) !model in
        match pop queue with
        | None -> live = []
        | Some (t, id) -> (
            match
              List.fold_left
                (fun best ((bt, bid, _) as e) ->
                  match best with
                  | None -> Some e
                  | Some (t0, id0, _) ->
                      if bt < t0 || (bt = t0 && bid < id0) then Some e else best)
                None live
            with
            | Some (et, eid, alive) when t = et && id = eid ->
                alive := false;
                drain ()
            | _ -> false)
      in
      !ok && drain ())

let suite =
  [
    ( "sim.engine",
      [
        Alcotest.test_case "time units" `Quick test_time_units;
        Alcotest.test_case "chronological order" `Quick test_event_order;
        Alcotest.test_case "FIFO tie-break" `Quick test_fifo_ties;
        Alcotest.test_case "cancel" `Quick test_cancel;
        Alcotest.test_case "empty queue pop raises" `Quick
          test_empty_queue_pop_raises;
        Alcotest.test_case "run until" `Quick test_run_until;
        Alcotest.test_case "schedule from callback" `Quick test_schedule_from_callback;
        Alcotest.test_case "past schedule clamps to now" `Quick test_past_schedule_clamps;
        Alcotest.test_case "max_events bound" `Quick test_max_events;
        Alcotest.test_case "stop" `Quick test_stop;
        Alcotest.test_case "prng streams differ" `Quick test_prng_streams_differ;
        qtest prop_events_fire_in_time_order;
        qtest prop_cancelled_never_fire;
        qtest prop_event_queue_matches_model;
      ] );
  ]
