(* fuzz_campaign: the [vwctl fuzz] per-case path — generate case
   [seed + i], run it, check every oracle — as [vw_exec] plans on a pool
   of at most two domains (never more than the cores). One op is one case.
   Cases run in campaigns of [block] consecutive seeds; each metric is the
   median over campaigns, so one slow case (a DUP storm of 10^5-10^6
   frames, roughly one case in two thousand) moves its own campaign's
   figure, not the median. The slow cases stay visible in fuzz.max_case_ms
   and fuzz.frames_per_case.

   This workload is not in BENCHMARK.json: its throughput depends on the
   process's allocation history as well as on the seed. After a storm has
   grown the heap, later campaigns of the same process run 20-40% faster,
   so runs with different seeds spread by 20-30% even on a quiet host. *)

open Measure
module Gen = Vw_check.Gen
module Runner = Vw_check.Runner
module Oracles = Vw_check.Oracles
module Executor = Vw_exec.Executor

let block = 50
let workers = min 2 (Executor.default_jobs ())

(* Set-up components of one case's script, timed outside the op. *)
type side = {
  parse_ns : int;
  tables_ns : int;
  codec_ns : int;
  init_bytes : int;
  create_ns : int;
  deploy_ns : int;
}

type case = {
  case_seed : int;
  start_ns : int;
  gen_ns : int;
  side_ns : int;
  run_ns : int;
  oracle_ns : int;
  wall_ns : int;  (** the whole case, read independently of its parts *)
  frames : int;  (** frames the testbed carried (its packet trace) *)
  failure : string option;  (** the failing oracle *)
  heap_words : int;  (** the major heap right after the oracles ran *)
  side : side option;
  minor_words : float;
  major_words : float;
}

let side_components (c : Gen.case) =
  let script = Vw_fsl.Ast.script_to_string c.Gen.script in
  match timed (fun () -> Vw_fsl.Compile.parse_and_compile script) with
  | Error _, _ -> None
  | Ok tables, parse_ns ->
      let _, tables_ns = timed (fun () -> Vw_fsl.Tables.compile tables) in
      let enc, codec_ns =
        timed (fun () ->
            let b = Vw_fsl.Tables_codec.to_bytes tables in
            ignore (Vw_fsl.Tables_codec.of_bytes b);
            b)
      in
      (* the runner's testbed: its config and 262144-slot rings *)
      let testbed, create_ns =
        timed (fun () ->
            let config =
              { Vw_core.Testbed.default_config with seed = c.Gen.seed lxor 0x5eed }
            in
            let tb = Vw_core.Testbed.of_node_table ~config tables in
            Vw_core.Testbed.enable_observability ~capacity:262_144 tb;
            tb)
      in
      let _, deploy_ns =
        timed (fun () ->
            Vw_fsl.Compile_cache.reset ();
            ignore (Vw_core.Scenario.deploy_only testbed ~script);
            Vw_core.Testbed.run testbed
              ~until:Vw_sim.Simtime.(Vw_sim.Engine.now (Vw_core.Testbed.engine testbed) + ms 8)
              ())
      in
      Some
        {
          parse_ns;
          tables_ns;
          codec_ns;
          init_bytes = Bytes.length enc;
          create_ns;
          deploy_ns;
        }

let run_case ~traced case_seed =
  let (m0, _, j0) = Gc.counters () in
  let start_ns = now_ns () in
  let c, gen_ns = timed (fun () -> Gen.generate ~seed:case_seed) in
  let side, side_ns = timed (fun () -> if traced then side_components c else None) in
  let r, run_ns = timed (fun () -> Runner.run c) in
  let failure, oracle_ns =
    timed (fun () ->
        match r with
        | Error e -> Some ("generates_valid: " ^ e)
        | Ok o ->
            Option.map
              (fun f -> f.Oracles.oracle)
              (Oracles.check ~defect:Oracles.No_defect o))
  in
  let heap_words = (Gc.quick_stat ()).Gc.heap_words in
  let (m1, _, j1) = Gc.counters () in
  let wall_ns = now_ns () - start_ns in
  {
    case_seed;
    start_ns;
    gen_ns;
    side_ns;
    run_ns;
    oracle_ns;
    wall_ns;
    frames = (match r with Ok o -> List.length o.Runner.o_trace | Error _ -> 0);
    failure;
    heap_words;
    side;
    minor_words = m1 -. m0;
    major_words = j1 -. j0;
  }

let op_ns c = c.gen_ns + c.run_ns + c.oracle_ns

(* One campaign of [n] cases from [first]: the cases that returned, the
   seeds that crashed, and the wall time. *)
let campaign ~pool ~traced ~seed ~first n =
  let plan =
    Vw_exec.Plan.init n (fun k ->
        let case_seed = seed + first + k in
        Vw_exec.Job.v ~label:(string_of_int case_seed) (fun () ->
            let c = run_case ~traced case_seed in
            Vw_exec.Job.result
              ~verdict:(if c.failure = None then `Pass else `Fail)
              c))
  in
  let outcomes, wall = timed (fun () -> Executor.run ~jobs:workers ~pool plan) in
  let cases = List.filter_map (fun o -> o.Vw_exec.Outcome.payload) outcomes in
  let crashed =
    List.filter_map
      (fun o ->
        if Vw_exec.Outcome.crashed o then Some o.Vw_exec.Outcome.label else None)
      outcomes
  in
  (cases, crashed, wall)

type tally = {
  mutable attempted : int;
  mutable failing : string list;  (** "seed:oracle", in case order *)
  mutable crashes : int;
  mutable walls : float list;
  mutable ops : int list;
  mutable pkts : int list;
  mutable p50s : float list;
  mutable tails : float list;
  mutable heaps : float list;  (** each campaign's peak major heap, MiB *)
  mutable all : case list;
}

let new_tally () =
  {
    attempted = 0;
    failing = [];
    crashes = 0;
    walls = [];
    ops = [];
    pkts = [];
    p50s = [];
    tails = [];
    heaps = [];
    all = [];
  }

let record t (cases, crashed, wall) =
  t.attempted <- t.attempted + List.length cases + List.length crashed;
  t.crashes <- t.crashes + List.length crashed;
  t.failing <-
    t.failing
    @ List.filter_map
        (fun c ->
          Option.map (fun o -> Printf.sprintf "%d:%s" c.case_seed o) c.failure)
        cases
    @ List.map (fun s -> s ^ ":worker_crash") crashed;
  t.all <- List.rev_append cases t.all;
  let lat = Array.of_list (List.map (fun c -> float_of_int (op_ns c) /. 1e3) cases) in
  if Array.length lat > 0 then begin
    t.walls <- secs_of_ns wall :: t.walls;
    t.ops <- Array.length lat :: t.ops;
    t.pkts <- List.fold_left (fun a c -> a + c.frames) 0 cases :: t.pkts;
    t.p50s <- median lat :: t.p50s;
    t.tails <- tail_beyond_10 lat :: t.tails;
    t.heaps <-
      (float_of_int (List.fold_left (fun a c -> max a c.heap_words) 0 cases * (Sys.word_size / 8))
       /. 1048576.0)
      :: t.heaps
  end

(* A fresh process runs its first few hundred cases up to twice as slow as
   later ones while the major heap warms up. Every run therefore starts
   with the same warm-up, cases [0, warmup_cases) whatever the seed. *)
let warmup_cases = 200

(* Campaigns of [block] cases from [seed] until [seconds] have passed (at
   least 3), after the warm-up. *)
let measure ~pool ~traced ~seed ~seconds =
  let w = new_tally () in
  let next = ref 0 in
  while !next < warmup_cases do
    record w (campaign ~pool ~traced ~seed:0 ~first:!next block);
    next := !next + block
  done;
  let t = { (new_tally ()) with attempted = w.attempted; failing = w.failing; crashes = w.crashes } in
  let deadline = now_ns () + int_of_float (seconds *. 1e9) in
  let next = ref 0 in
  while List.length t.walls < 3 || now_ns () < deadline do
    record t (campaign ~pool ~traced ~seed ~first:!next block);
    next := !next + block
  done;
  t

let rate counts walls =
  median (Array.of_list (List.map2 (fun c w -> float_of_int c /. w) counts walls))

(* Pool start: spawn the worker domains and run one empty plan. *)
let start_pool () =
  let pool = Vw_exec.Pool.create () in
  Vw_exec.Pool.run pool ~workers:(workers - 1) ignore;
  pool

(* Each start is timed on its own; the previous pool is shut down first,
   untimed, so only one pool is ever alive. *)
let setup () =
  let times = Array.make setup_reps 0.0 and pool = ref None in
  for i = 0 to setup_reps - 1 do
    Option.iter Vw_exec.Pool.shutdown !pool;
    let p, ns = timed start_pool in
    times.(i) <- secs_of_ns ns;
    pool := Some p
  done;
  (Option.get !pool, times)

let context t =
  [
    ("workers", Int workers);
    ("campaign_cases", Int block);
    ("campaigns", Int (List.length t.walls));
    ("samples", Int (List.fold_left ( + ) 0 t.ops));
    ("op_tail_percentile", Num (tail_percentile block));
    ("op_tail_samples_beyond", Int 10);
    ("setup_reps", Int setup_reps);
    ("failing_cases", List (List.map (fun s -> Str s) t.failing));
    ("heap_peak_mb_is", Str "median over campaigns of the campaign's largest major heap");
    ("process_top_heap_mb", Num (heap_peak_mb ()));
  ]

let run ~seed ~seconds =
  let pool, setups = setup () in
  let t = measure ~pool ~traced:false ~seed ~seconds in
  Vw_exec.Pool.shutdown pool;
  let failed = List.length t.failing in
  {
    attempted = t.attempted;
    failed;
    (* oracle verdicts are the measured outcome; the run itself is only
       incorrect when a case produced no verdict *)
    correct = t.crashes = 0;
    metrics =
      [
        ("packets_per_s", rate t.pkts t.walls, "1/s");
        ("ops_per_s", rate t.ops t.walls, "1/s");
        ("op_p50_us", median (Array.of_list t.p50s), "us");
        ("op_tail_us", median (Array.of_list t.tails), "us");
        ("setup_s", median setups, "s");
        ("heap_peak_mb", median (Array.of_list t.heaps), "MiB");
        ( "success_rate",
          1.0 -. (float_of_int failed /. float_of_int t.attempted),
          "ratio" );
      ];
    context = context t;
  }

let write_spans cases path =
  let oc = open_out path in
  let n = ref 0 in
  let span name start stop parent op =
    let id = !n in
    incr n;
    Printf.fprintf oc
      "{\"span\":%d,\"name\":%S,\"start_ns\":%d,\"end_ns\":%d,\"parent\":%d,\"op\":%d}\n"
      id name start stop parent op;
    id
  in
  List.iter
    (fun c ->
      let s = c.start_ns in
      let stop = s + c.gen_ns + c.side_ns + c.run_ns + c.oracle_ns in
      let root = span "fuzz.case" s stop (-1) c.case_seed in
      let at = ref s in
      List.iter
        (fun (name, d) ->
          ignore (span name !at (!at + d) root c.case_seed);
          at := !at + d)
        [
          ("fuzz.gen", c.gen_ns);
          ("fuzz.side_setup", c.side_ns);
          ("fuzz.run", c.run_ns);
          ("fuzz.oracle", c.oracle_ns);
        ])
    cases;
  close_out oc

let traced ~seed ~seconds ~spans_path =
  let pool = start_pool () in
  let u = measure ~pool ~traced:false ~seed ~seconds:(0.3 *. seconds) in
  let g0 = gc_sample () in
  let t = measure ~pool ~traced:true ~seed ~seconds:(0.6 *. seconds) in
  let g1 = gc_sample () in
  Vw_exec.Pool.shutdown pool;
  let cases = List.rev t.all in
  write_spans cases spans_path;
  let n = float_of_int (List.length cases) in
  let meanf f = List.fold_left (fun a c -> a +. f c) 0.0 cases /. n in
  let mean f = meanf (fun c -> float_of_int (f c)) in
  let sides = List.filter_map (fun c -> c.side) cases in
  let side_mean f =
    List.fold_left (fun a s -> a +. float_of_int (f s)) 0.0 sides
    /. float_of_int (max 1 (List.length sides))
  in
  let frames = List.fold_left (fun a c -> a + c.frames) 0 cases in
  let pk = float_of_int (max 1 frames) in
  let busy = List.fold_left (fun a c -> a + c.gen_ns + c.side_ns + c.run_ns + c.oracle_ns) 0 cases in
  let wall_s = List.fold_left ( +. ) 0.0 t.walls in
  (* self-check: the parts of a case add up to the case's wall time *)
  let whole = List.fold_left (fun a c -> a + c.wall_ns) 0 cases in
  let self_sum_ratio = float_of_int busy /. float_of_int (max 1 whole) in
  let spread =
    iqr_share (Array.of_list (List.map2 (fun c w -> float_of_int c /. w) t.ops t.walls))
  in
  let self_check = Float.abs (self_sum_ratio -. 1.0) <= Float.max spread 1e-3 in
  let layers =
    [
      ("fsl.parse_compile_ns", side_mean (fun s -> s.parse_ns));
      ("fsl.tables_compile_ns", side_mean (fun s -> s.tables_ns));
      ("fsl.codec_ns", side_mean (fun s -> s.codec_ns));
      ("fsl.init_bytes", side_mean (fun s -> s.init_bytes));
      ("testbed.create_ns", side_mean (fun s -> s.create_ns));
      ("scenario.deploy_ns", side_mean (fun s -> s.deploy_ns));
      ( "scenario.run_ns",
        mean (fun c -> c.run_ns)
        -. side_mean (fun s -> s.parse_ns)
        -. side_mean (fun s -> s.create_ns) );
      ("fuzz.gen_ns", mean (fun c -> c.gen_ns));
      ("fuzz.run_ns", mean (fun c -> c.run_ns));
      ("fuzz.oracle_ns", mean (fun c -> c.oracle_ns));
      ("fuzz.frames_per_case", mean (fun c -> c.frames));
      ( "fuzz.max_case_ms",
        List.fold_left (fun a c -> Float.max a (float_of_int (op_ns c) /. 1e6)) 0.0 cases );
      ("exec.workers", float_of_int workers);
      ("exec.busy_ratio", float_of_int busy /. 1e9 /. (wall_s *. float_of_int workers));
      ("gc.minor_words_per_packet", meanf (fun c -> c.minor_words) *. n /. pk);
      ("gc.major_words_per_packet", meanf (fun c -> c.major_words) *. n /. pk);
      ("gc.minor_collections", float_of_int (g1.minor_gc - g0.minor_gc));
      ("gc.major_collections", float_of_int (g1.major_gc - g0.major_gc));
      ("gc.heap_top_mb", heap_peak_mb ());
      ("trace.self_sum_ratio", self_sum_ratio);
      ("trace.overhead", rate t.pkts t.walls /. rate u.pkts u.walls);
    ]
  in
  {
    attempted = u.attempted + t.attempted;
    failed = List.length u.failing + List.length t.failing;
    correct = u.crashes + t.crashes = 0 && self_check;
    metrics = List.map (fun (k, v) -> (k, v, "")) layers;
    context =
      context t
      @ [
          ("traced_cases", Int (List.length cases));
          ("untraced_failing_cases", List (List.map (fun s -> Str s) u.failing));
          ("self_check", Bool self_check);
          ("self_check_spread", Num spread);
        ];
  }
