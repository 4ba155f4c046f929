(* Benchmark driver.

   Part 1 regenerates every experiment table/figure — the paper has no
   evaluation section, so these tables ARE the evaluation; see
   EXPERIMENTS.md for the claim-by-claim mapping.  The remaining parts
   each measure one thing and emit one list of Bench_gate records,
   which `bench` writes to the part's BENCH file and `--check`
   compares against it, record by record, under the policy each record
   carries (Exact, Drift, Ceiling or Info):
   2. faults  — bechamel micro-benchmarks, one Test.make per experiment
      kernel plus engine kernels; the fault-layer timings go to
      BENCH_faults.json (Info).
   3. trace   — tracing overhead on the compact control kernel
      -> BENCH_trace.json.
   4. par     — parallel scaling & determinism (the E17 workloads at
      fixed job counts) -> BENCH_par.json.
   5. sense   — incremental judging & sensing kernels at growing
      horizons -> BENCH_sense.json.
   6. session — supervised session engine under chaos conditions
      -> BENCH_session.json.
   7. net     — the network goal family: topology delivery rounds, ARQ
      forwarding under faults, shared-medium contention
      -> BENCH_net.json.

   `make bench` runs them all; BENCH_ONLY=<key> runs one part and
   rewrites its file; `--check` re-measures every part quickly and
   gates it against the committed files; `--jobs N` sets the ambient
   pool width. *)

open Bechamel
open Toolkit
open Goalcom
open Goalcom_prelude
open Goalcom_automata
open Goalcom_goals
open Goalcom_harness

let seed = 1

let () =
  (* --jobs N (before anything runs; bench is not a cmdliner binary). *)
  Array.iteri
    (fun i a ->
      if a = "--jobs" && i + 1 < Array.length Sys.argv then
        match int_of_string_opt Sys.argv.(i + 1) with
        | Some n when n > 0 -> Goalcom_par.Pool.set_default_jobs n
        | _ -> ())
    Sys.argv

module Gate = Goalcom_obs.Bench_gate
module Json = Goalcom_obs.Json

(* One benchmark part: [run ~check] measures (CI-sized under
   `--check`), prints its tables, and returns the header fields and the
   records of [file]. *)
type part = {
  key : string;
  file : string;
  run : check:bool -> (string * Json.t) list * Gate.record list;
}

let banner title =
  print_endline "\n==================================================";
  Printf.printf " %s\n" title;
  print_endline "=================================================="

(* Part 1: experiment tables *)

let print_experiments () =
  banner "Experiment tables (one per paper claim)";
  List.iter
    (fun (e : Experiment.t) ->
      Printf.printf "\n# %s (%s) — %s\n# claim: %s\n%!" e.id
        (Experiment.kind_to_string e.kind)
        e.title e.claim;
      Table.print (e.run ~seed))
    Experiment.all

(* Part 2: bechamel kernels *)

let alphabet = 6
let dialects = Dialect.enumerate_rotations ~size:alphabet
let dialect i = Enum.get_exn dialects i

let run_once ~horizon ~goal ~user ~server k =
  ignore
    (Exec.run ~config:(Exec.config ~horizon ()) ~goal ~user ~server
       (Rng.make (seed + k)))

let e1_kernel =
  let goal = Printing.goal ~docs:[ [ 3; 1; 4 ] ] ~alphabet () in
  let server = Printing.server ~alphabet (dialect 2) in
  fun () ->
    run_once ~horizon:2000 ~goal
      ~user:(Printing.universal_user ~alphabet dialects)
      ~server 1

let e2_kernel =
  let goal = Printing.goal ~docs:[ [ 5; 2 ] ] ~alphabet () in
  let server = Printing.server ~alphabet (dialect (alphabet - 1)) in
  fun () ->
    run_once ~horizon:4000 ~goal
      ~user:(Printing.universal_user ~alphabet dialects)
      ~server 2

let maze_scenario = Maze.scenario ~width:8 ~height:8 ~start:(0, 0) ~target:(5, 4) ()

let e3_kernel =
  let goal = Maze.goal ~scenarios:[ maze_scenario ] ~alphabet () in
  let server = Maze.server ~alphabet (dialect 3) in
  fun () ->
    run_once ~horizon:4000 ~goal
      ~user:(Maze.universal_user ~alphabet ~scenario:maze_scenario dialects)
      ~server 3

let e4_kernel = fun () -> ignore (Levin.work_before ~index:10 ~budget:64 ())

let e5_kernel =
  let goal = Printing.goal ~docs:[ [ 7; 3; 9 ] ] ~alphabet () in
  let server = Printing.server ~alphabet (dialect 1) in
  let user = Printing.universal_user ~alphabet dialects in
  let history =
    Exec.run ~config:(Exec.config ~horizon:1000 ()) ~goal ~user ~server
      (Rng.make seed)
  in
  fun () -> ignore (Sensing.verdicts Printing.sensing history)

let e6_kernel =
  let ctl_alphabet = 4 in
  let ctl_dialects = Dialect.enumerate_rotations ~size:ctl_alphabet in
  let goal = Control.goal ~alphabet:ctl_alphabet () in
  let server = Control.server ~alphabet:ctl_alphabet (Enum.get_exn ctl_dialects 2) in
  fun () ->
    run_once ~horizon:1500 ~goal
      ~user:(Control.universal_user ~alphabet:ctl_alphabet ctl_dialects)
      ~server 6

let e7_kernel =
  let dlg_alphabet = 4 in
  let dlg_dialects = Dialect.enumerate_rotations ~size:dlg_alphabet in
  let goal = Delegation.goal ~alphabet:dlg_alphabet () in
  let server = Delegation.server ~alphabet:dlg_alphabet (Enum.get_exn dlg_dialects 2) in
  fun () ->
    run_once ~horizon:2000 ~goal
      ~user:(Delegation.universal_user ~alphabet:dlg_alphabet dlg_dialects)
      ~server 7

let e8_kernel =
  let goal = Password.goal () in
  let server = Password.server_with_password 40 in
  fun () ->
    run_once ~horizon:600 ~goal ~user:(Password.sweeper ~space:64) ~server 8

let e9_kernel =
  let goal = Printing.goal ~docs:[ [ 6; 6; 6 ] ] ~alphabet () in
  let server = Printing.server ~alphabet (dialect 2) in
  fun () ->
    ignore
      (Helpful.check
         ~config:(Exec.config ~horizon:2000 ())
         ~trials:1 ~goal
         ~user_class:(Printing.user_class ~alphabet dialects)
         ~server (Rng.make seed))

let e10_kernel =
  let goal = Transfer.goal ~payloads:[ Listx.range 1 17 ] ~alphabet () in
  let server = Transfer.server ~alphabet (dialect (alphabet - 1)) in
  fun () ->
    run_once ~horizon:4000 ~goal
      ~user:(Transfer.universal_user_fast ~alphabet dialects)
      ~server 10

let e11_kernel =
  let ms_alphabet = 4 in
  let ms_dialects = Dialect.enumerate_rotations ~size:ms_alphabet in
  let base = Printing.goal ~docs:[ [ 2; 5 ] ] ~alphabet:ms_alphabet () in
  let goal = Multi_session.goal ~session_length:30 base in
  let server = Printing.server ~alphabet:ms_alphabet (Enum.get_exn ms_dialects 2) in
  fun () ->
    run_once ~horizon:600 ~goal
      ~user:
        (Universal.compact ~grace:1
           ~enum:
             (Multi_session.wrap_class
                (Printing.user_class ~alphabet:ms_alphabet ms_dialects))
           ~sensing:Multi_session.sensing ())
      ~server 11

let e12_kernel =
  let goal = Printing.goal ~docs:[ [ 4; 2; 6 ] ] ~alphabet () in
  let server =
    Goalcom_servers.Channel.delayed ~rounds:2
      (Printing.server ~alphabet (dialect 2))
  in
  fun () ->
    run_once ~horizon:4000 ~goal
      ~user:(Printing.universal_user ~alphabet dialects)
      ~server 12

let e13_kernel =
  let p = { Prediction.num_attributes = 6 } in
  let pr_alphabet = 3 in
  let pr_dialects = Dialect.enumerate_rotations ~size:pr_alphabet in
  let goal = Prediction.goal ~params:p ~alphabet:pr_alphabet () in
  let server = Prediction.server ~alphabet:pr_alphabet (Enum.get_exn pr_dialects 1) in
  fun () ->
    run_once ~horizon:800 ~goal
      ~user:(Prediction.universal_user ~params:p ~alphabet:pr_alphabet pr_dialects)
      ~server 13

let e15_kernel =
  let cp = { Counting.num_vars = 5; num_clauses = 8; clause_len = 3 } in
  let ct_alphabet = 4 in
  let ct_dialects = Dialect.enumerate_rotations ~size:ct_alphabet in
  let goal = Counting.goal ~params:cp ~alphabet:ct_alphabet () in
  let server = Counting.server ~alphabet:ct_alphabet (Enum.get_exn ct_dialects 2) in
  fun () ->
    run_once ~horizon:2000 ~goal
      ~user:(Counting.universal_user ~params:cp ~alphabet:ct_alphabet ct_dialects)
      ~server 15

let e14_kernel =
  let ctl_alphabet = 4 in
  let ctl_dialects = Dialect.enumerate_rotations ~size:ctl_alphabet in
  let goal = Control.goal ~alphabet:ctl_alphabet () in
  let server =
    Control.server ~alphabet:ctl_alphabet
      (Enum.get_exn ctl_dialects (ctl_alphabet - 1))
  in
  fun () ->
    run_once ~horizon:2000 ~goal
      ~user:
        (Universal.compact ~grace:2 ~growth:`Doubling
           ~enum:(Control.user_class ~alphabet:ctl_alphabet ctl_dialects)
           ~sensing:(Control.sensing ()) ())
      ~server 14

let fault_stack spec =
  match Goalcom_faults.Fault.stack_of_string ~alphabet spec with
  | Ok f -> Goalcom_faults.Fault.apply f
  | Error e -> invalid_arg e

let e16_kernel =
  let goal = Printing.goal ~docs:[ [ 4; 2 ] ] ~alphabet () in
  let server =
    fault_stack "corrupt:0.05+crash:60" (Printing.server ~alphabet (dialect 2))
  in
  fun () ->
    run_once ~horizon:4000 ~goal
      ~user:(Printing.universal_user ~alphabet dialects)
      ~server 16

(* Fault-layer micro-benchmarks: the same printing run through a single
   fault, isolating each combinator's per-round overhead. *)

let fault_kernel spec k =
  let goal = Printing.goal ~docs:[ [ 4; 2 ] ] ~alphabet () in
  let server = fault_stack spec (Printing.server ~alphabet (dialect 2)) in
  fun () ->
    run_once ~horizon:2000 ~goal
      ~user:(Printing.universal_user ~alphabet dialects)
      ~server k

let fault_corrupt_kernel = fault_kernel "corrupt:0.20" 17
let fault_reorder_kernel = fault_kernel "reorder:2" 18
let fault_crash_kernel = fault_kernel "crash:40" 19
let fault_adversary_kernel = fault_kernel "adversary:12" 20

(* Engine micro-benchmarks. *)

let micro_exec_round =
  let world =
    World.make ~name:"noop"
      ~init:(fun () -> ())
      ~step:(fun _rng () _ -> ((), Io.World.silent))
      ~view:(fun () -> Msg.Silence)
  in
  let goal =
    Goal.make ~name:"noop" ~worlds:[ world ]
      ~referee:(Referee.finite_exists "t" (fun _ -> true))
  in
  let user = Strategy.stateless ~name:"mute" (fun (_ : Io.User.obs) -> Io.User.silent) in
  let server = Strategy.stateless ~name:"mute" (fun (_ : Io.Server.obs) -> Io.Server.silent) in
  fun () -> run_once ~horizon:1000 ~goal ~user ~server 11

let micro_mealy_decode =
  fun () ->
  for code = 0 to 255 do
    ignore (Mealy.decode ~states:2 ~inputs:2 ~outputs:2 code)
  done

let micro_dpll =
  let rng = Rng.make seed in
  let instances =
    List.map
      (fun _ -> fst (Goalcom_sat.Gen.planted rng ~num_vars:10 ~num_clauses:30 ~clause_len:3))
      (Listx.range 0 8)
  in
  fun () -> List.iter (fun cnf -> ignore (Goalcom_sat.Dpll.solve cnf)) instances

let micro_dist_sample =
  let d = Dist.of_weighted [ (0, 0.1); (1, 0.2); (2, 0.3); (3, 0.4) ] in
  let rng = Rng.make seed in
  fun () ->
    for _ = 1 to 1000 do
      ignore (Dist.sample rng d)
    done

let kernels =
  [
    ("e1_universality", e1_kernel);
    ("e2_overhead_curve", e2_kernel);
    ("e3_levin", e3_kernel);
    ("e4_levin_overhead", e4_kernel);
    ("e5_sensing_ablation", e5_kernel);
    ("e6_compact_convergence", e6_kernel);
    ("e7_delegation", e7_kernel);
    ("e8_lower_bound", e8_kernel);
    ("e9_helpfulness", e9_kernel);
    ("e10_amortisation", e10_kernel);
    ("e11_multi_session", e11_kernel);
    ("e12_channel_robustness", e12_kernel);
    ("e13_online_learning", e13_kernel);
    ("e14_grace_ablation", e14_kernel);
    ("e15_interactive_proof", e15_kernel);
    ("e16_fault_matrix", e16_kernel);
    ("fault_corrupt", fault_corrupt_kernel);
    ("fault_reorder", fault_reorder_kernel);
    ("fault_crash", fault_crash_kernel);
    ("fault_adversary", fault_adversary_kernel);
    ("micro_exec_1000_rounds", micro_exec_round);
    ("micro_mealy_decode_256", micro_mealy_decode);
    ("micro_dpll_8x(10v,30c)", micro_dpll);
    ("micro_dist_sample_1000", micro_dist_sample);
  ]

(* The fault-layer kernels, whose timings BENCH_faults.json tracks
   across revisions. *)
let fault_kernels =
  List.filter
    (fun (name, _) ->
      String.starts_with ~prefix:"e16" name
      || String.starts_with ~prefix:"fault_" name)
    kernels

(* [(bechamel name, ns per run)] sorted by name, NaN where the OLS fit
   gave no estimate.  Bechamel names are "goalcom/<kernel>". *)
let bench_kernels kernels =
  banner "Bechamel timings (monotonic clock, ns per run)";
  let tests =
    Test.make_grouped ~name:"goalcom"
      (List.map (fun (name, k) -> Test.make ~name (Staged.stage k)) kernels)
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:200 ~quota:(Time.second 0.25) ~kde:(Some 100) ()
  in
  let raw_results = Benchmark.all cfg instances tests in
  let results =
    Analyze.merge ols instances
      (List.map (fun instance -> Analyze.all ols instance raw_results) instances)
  in
  let clock_results =
    Hashtbl.find results (Measure.label Instance.monotonic_clock)
  in
  let timings =
    List.sort compare
      (Hashtbl.fold
         (fun name ols acc ->
           let ns =
             match Analyze.OLS.estimates ols with
             | Some (est :: _) -> est
             | _ -> nan
           in
           (name, ns) :: acc)
         clock_results [])
  in
  Table.print
    (Table.make ~title:"bechamel (ns/run)" ~columns:[ "benchmark"; "time (ns)" ]
       (List.map
          (fun (name, ns) ->
            [ name; (if Float.is_nan ns then "-" else Printf.sprintf "%.0f" ns) ])
          timings));
  timings

(* `--check` times only the fault kernels: every record here is Info,
   so timing the rest of the suite would compare nothing. *)
let faults_part =
  {
    key = "faults";
    file = "BENCH_faults.json";
    run =
      (fun ~check ->
        let timings = bench_kernels (if check then fault_kernels else kernels) in
        ( [ ("seed", Json.Int seed); ("unit", Json.String "ns/run") ],
          List.filter_map
            (fun (name, ns) ->
              if List.exists (fun (k, _) -> name = "goalcom/" ^ k) fault_kernels
              then Some (Gate.record ~policy:Info (name ^ "/ns_per_run") ns)
              else None)
            timings ));
  }

(* Part 3: tracing overhead on the compact control kernel
   -> BENCH_trace.json.

   The tentpole claim of lib/obs is that the no-sink path is free: every
   emission site is a load-and-branch, no event is allocated.  A binary
   cannot contain both the instrumented and the pre-instrumentation
   engine, so the baseline is a guard-free replica of Exec.run's loop
   (below) driving the exact same strategies; the replica is checked
   against Exec.run for bit-identical histories before timing.  On top
   of the no-sink point we time the attached-sink variants: Trace.null
   (pure dispatch cost), the Metrics aggregator, the binary ring
   buffer, and JSONL rendering into a Buffer. *)

let replica_run ~config ~goal ~user ~server rng =
  let user_rng = Rng.split rng in
  let server_rng = Rng.split rng in
  let world_rng = Rng.split rng in
  let user_inst = Strategy.Instance.create user in
  let server_inst = Strategy.Instance.create server in
  let world_inst =
    World.Instance.create (Goal.world ~choice:config.Exec.world_choice goal)
  in
  let initial_world_view = World.Instance.view world_inst in
  let rec loop round halted drain_left prev_acts rounds_rev =
    let (u2s, u2w), (s2u, s2w), (w2u, w2s) = prev_acts in
    if round > config.Exec.horizon || (halted && drain_left <= 0) then
      History.make ~initial_world_view (List.rev rounds_rev)
    else begin
      let user_act : Io.User.act =
        if halted then Io.User.halt_act
        else
          Strategy.Instance.step user_rng user_inst
            { Io.User.from_server = s2u; from_world = w2u; round }
      in
      let server_act : Io.Server.act =
        Strategy.Instance.step server_rng server_inst
          { Io.Server.from_user = u2s; from_world = w2s }
      in
      let world_act : Io.World.act =
        World.Instance.step world_rng world_inst
          { Io.World.from_user = u2w; from_server = s2w }
      in
      let halted' = halted || user_act.halt in
      let round_record =
        {
          History.Round.index = round;
          user_to_server = user_act.to_server;
          user_to_world = user_act.to_world;
          server_to_user = server_act.to_user;
          server_to_world = server_act.to_world;
          world_to_user = world_act.to_user;
          world_to_server = world_act.to_server;
          world_view = World.Instance.view world_inst;
          user_halted = halted';
        }
      in
      let drain_left' = if halted then drain_left - 1 else config.Exec.drain in
      loop (round + 1) halted' drain_left'
        ( (user_act.to_server, user_act.to_world),
          (server_act.to_user, server_act.to_world),
          (world_act.to_user, world_act.to_server) )
        (round_record :: rounds_rev)
    end
  in
  let silence2 = (Msg.Silence, Msg.Silence) in
  loop 1 false config.Exec.drain (silence2, silence2, silence2) []

(* The overhead kernel must spend long enough inside the round loop
   that per-round costs dominate run-to-run code-layout noise (several
   microseconds per run either way).  The E1 printing kernel used to
   qualify, but the incremental sensing/judging engine made it halt-
   bound (~59 rounds, ~20us/run) and the replica comparison degenerated
   into measuring loop-layout drift.  The compact control goal never
   halts, so every run executes the full 2000-round horizon. *)
let trace_kernel_setup () =
  let ctl_alphabet = 4 in
  let ctl_dialects = Dialect.enumerate_rotations ~size:ctl_alphabet in
  let goal = Control.goal ~alphabet:ctl_alphabet () in
  let server = Control.server ~alphabet:ctl_alphabet (Enum.get_exn ctl_dialects 2) in
  let user = Control.universal_user ~alphabet:ctl_alphabet ctl_dialects in
  let config = Exec.config ~horizon:2000 () in
  (config, goal, user, server)

let minimum l = List.fold_left min infinity l

let median l =
  let a = List.sort compare l in
  List.nth a (List.length a / 2)

(* Measure every sink variant paired against the untraced replica.
   [rounds] is the number of paired measurement rounds, [budget] the
   target wall-clock (seconds) per arm per round; `--check` shrinks
   both for a CI-sized smoke run.  Returns the baseline ms/run and
   [(variant, (median ratio, best baseline s/run, best variant s/run))]
   per sink variant. *)
let measure_trace_overhead ~rounds ~budget () =
  let config, goal, user, server = trace_kernel_setup () in
  (* Replica fidelity: same seed, same history, or the baseline is not
     measuring the same work. *)
  let rounds_rev h =
    History.fold_rounds h ~init:[] ~f:(fun acc r -> r :: acc)
  in
  let fidelity =
    rounds_rev (replica_run ~config ~goal ~user ~server (Rng.make seed))
    = rounds_rev (Exec.run ~config ~goal ~user ~server (Rng.make seed))
  in
  if not fidelity then
    failwith "trace overhead: replica loop diverged from Exec.run";
  let buf = Buffer.create 65536 in
  let metrics = Goalcom_obs.Metrics.create () in
  (* Sized to hold a full 2000-round run (~18k events) without
     evicting, so the measured cost is encode+store, not wrap
     bookkeeping (which is cheaper: same store, no Buffer growth). *)
  let ring = Goalcom_obs.Ring.create ~capacity:32768 in
  let variants =
    [
      ( "untraced replica",
        fun k ->
          ignore (replica_run ~config ~goal ~user ~server (Rng.make (seed + k)))
      );
      ( "no sink",
        fun k ->
          ignore (Exec.run ~config ~goal ~user ~server (Rng.make (seed + k))) );
      ( "null sink",
        fun k ->
          ignore
            (Exec.run ~sink:Trace.null ~config ~goal ~user ~server
               (Rng.make (seed + k))) );
      ( "metrics sink",
        fun k ->
          ignore
            (Exec.run
               ~sink:(Goalcom_obs.Metrics.sink metrics)
               ~config ~goal ~user ~server
               (Rng.make (seed + k))) );
      ( "ring sink (binary)",
        fun k ->
          Goalcom_obs.Ring.clear ring;
          ignore
            (Exec.run
               ~sink:(Goalcom_obs.Ring.domain_sink ring)
               ~config ~goal ~user ~server
               (Rng.make (seed + k))) );
      ( "jsonl sink (buffer)",
        fun k ->
          Buffer.clear buf;
          ignore
            (Exec.run
               ~sink:(Goalcom_obs.Jsonl.buffer_sink buf)
               ~config ~goal ~user ~server
               (Rng.make (seed + k))) );
    ]
  in
  (* Each variant is measured PAIRED against the baseline at single-run
     granularity: baseline and variant alternate run by run (with the
     order itself alternating, so neither arm always inherits the
     other's cache state), each round yields one variant/baseline ratio
     from sums taken microseconds apart — frequency scaling, thermal
     drift and scheduler noise hit both arms equally and cancel in the
     ratio.  The reported overhead is the median ratio over rounds. *)
  let baseline = snd (List.hd variants) in
  List.iter (fun (_, f) -> for k = 0 to 4 do f k done) variants;
  let calibrate f =
    let t0 = Unix.gettimeofday () in
    for k = 0 to 9 do
      f k
    done;
    (Unix.gettimeofday () -. t0) /. 10.
  in
  let per_run = calibrate baseline in
  let n = max 10 (int_of_float (budget /. max 1e-6 per_run)) in
  let measure_paired f =
    let ratios = ref [] in
    let best_base = ref infinity and best_var = ref infinity in
    for _ = 1 to rounds do
      (* Settle the heap so one arm's garbage is not charged to the
         other arm's runs. *)
      Gc.full_major ();
      let tb = ref 0. and tv = ref 0. in
      for k = 1 to n do
        if k land 1 = 0 then begin
          let t0 = Unix.gettimeofday () in
          baseline k;
          let t1 = Unix.gettimeofday () in
          f k;
          let t2 = Unix.gettimeofday () in
          tb := !tb +. (t1 -. t0);
          tv := !tv +. (t2 -. t1)
        end
        else begin
          let t0 = Unix.gettimeofday () in
          f k;
          let t1 = Unix.gettimeofday () in
          baseline k;
          let t2 = Unix.gettimeofday () in
          tv := !tv +. (t1 -. t0);
          tb := !tb +. (t2 -. t1)
        end
      done;
      ratios := (!tv /. !tb) :: !ratios;
      best_base := min !best_base (!tb /. float_of_int n);
      best_var := min !best_var (!tv /. float_of_int n)
    done;
    (median !ratios, !best_base, !best_var)
  in
  let measured =
    List.map (fun (name, f) -> (name, measure_paired f)) (List.tl variants)
  in
  let base_ms =
    1e3 *. minimum (List.map (fun (_, (_, b, _)) -> b) measured)
  in
  (n, base_ms, measured)

let pct r = 100. *. (r -. 1.)

(* Hard acceptance bounds for the always-on capture path, judged
   against the bound whatever the committed file says.  The ring bound
   is the acceptance bar for leaving capture enabled in production; the
   null-sink bound pins the fixed cost of merely having a sink
   installed; the no-sink bound (on no_sink_overhead_pct) pins the
   disabled path.  Measured (release profile, -inline 200): ring ~41%,
   null ~13%, no sink ~1.5% — the slack above each is headroom for host
   noise, not an invitation. *)
let trace_ceiling = function
  | "null sink" -> Some (Gate.Ceiling 22.)
  | "ring sink (binary)" -> Some (Gate.Ceiling 50.)
  | _ -> None

(* BENCH_CHECK_ROUNDS / BENCH_CHECK_BUDGET size the `--check` run. *)
let trace_check_size () =
  let rounds =
    match Option.bind (Sys.getenv_opt "BENCH_CHECK_ROUNDS") int_of_string_opt with
    | Some v when v > 0 -> v
    | _ -> 7
  in
  let budget =
    match
      Option.bind (Sys.getenv_opt "BENCH_CHECK_BUDGET") float_of_string_opt
    with
    | Some v when v > 0. -> v
    | _ -> 0.02
  in
  (rounds, budget)

let trace_part =
  {
    key = "trace";
    file = "BENCH_trace.json";
    run =
      (fun ~check ->
        banner "Tracing overhead (compact control kernel)";
        let rounds, budget = if check then trace_check_size () else (15, 0.05) in
        let events_per_run =
          let config, goal, user, server = trace_kernel_setup () in
          let count = ref 0 in
          ignore
            (Exec.run
               ~sink:(fun _ -> incr count)
               ~config ~goal ~user ~server (Rng.make seed));
          !count
        in
        Printf.printf "kernel emits %d events per run\n%!" events_per_run;
        let n, base_ms, measured = measure_trace_overhead ~rounds ~budget () in
        Table.print
          (Table.make
             ~title:
               (Printf.sprintf
                  "tracing overhead, control kernel (median of %d rounds x %d \
                   paired runs)"
                  rounds n)
             ~columns:[ "variant"; "ms/run"; "vs baseline" ]
             ([ "untraced replica"; Printf.sprintf "%.3f" base_ms; "baseline" ]
             :: List.map
                  (fun (name, (ratio, _, v)) ->
                    [
                      name;
                      Printf.sprintf "%.3f" (v *. 1e3);
                      Printf.sprintf "%+.2f%%" (pct ratio);
                    ])
                  measured));
        let nosink_pct =
          match measured with (_, (r, _, _)) :: _ -> pct r | [] -> 0.
        in
        ( [
            ("seed", Json.Int seed);
            ("kernel", Json.String "control_compact_2k");
            ("rounds", Json.Int rounds);
            ("paired_runs_per_round", Json.Int n);
            ("unit", Json.String "ms/run");
          ],
          Gate.record ~policy:(Ceiling 5.) "no_sink_overhead_pct" nosink_pct
          :: Gate.record "untraced replica/ms_per_run" base_ms
          :: List.concat_map
               (fun (name, (ratio, _, v)) ->
                 [
                   Gate.record (name ^ "/ms_per_run") (v *. 1e3);
                   Gate.record ?policy:(trace_ceiling name)
                     (name ^ "/overhead_pct") (pct ratio);
                 ])
               measured ));
  }

(* Part 4: parallel scaling & determinism -> BENCH_par.json.

   The E17 workloads re-measured at fixed job counts.  Two kinds of
   numbers come out:
   - determinism: every jobs>1 digest must equal the jobs=1 digest.
     This is exported as par_mismatch_pct (0 or 100), an Exact record
     — a single mismatch fails `--check`.
   - scaling: wall-clock per jobs count.  Absolute times do not
     transfer across hosts; but maze/remote is latency-bound (each
     round pays a simulated server round-trip), so its jobs-k/jobs-1
     ratio is host-independent and IS gated: jobs4_vs_jobs1_pct holding
     under ~51% is precisely the ">= 2x at four domains" acceptance
     bar.  The CPU-bound workloads' ratios track the host's core count,
     so they are recorded as informational timings only. *)

let par_jobs = [ 1; 2; 4 ]
let par_gated_workload = "maze/remote"

let measure_par workloads =
  List.map
    (fun (name, workload) ->
      let runs =
        List.map
          (fun jobs -> (jobs, E17_scaling.time (workload ~seed ~jobs)))
          par_jobs
      in
      (name, runs))
    workloads

(* "name@jobs" for every parallel run whose digest differs from the
   workload's jobs=1 digest; [] is the pass verdict. *)
let par_mismatches runs_by_workload =
  List.concat_map
    (fun (name, runs) ->
      match runs with
      | (_, (base : E17_scaling.measurement)) :: rest ->
          List.filter_map
            (fun (jobs, (m : E17_scaling.measurement)) ->
              if String.equal m.E17_scaling.digest base.E17_scaling.digest then
                None
              else Some (Printf.sprintf "%s@%d" name jobs))
            rest
      | [] -> [])
    runs_by_workload

let par_seconds runs jobs =
  match List.assoc_opt jobs runs with
  | Some (m : E17_scaling.measurement) -> m.E17_scaling.seconds
  | None -> nan

let par_part =
  {
    key = "par";
    file = "BENCH_par.json";
    run =
      (fun ~check ->
        banner "Parallel scaling & determinism (E17 workloads)";
        (* The quick run measures only the gated workload. *)
        let runs_by_workload =
          measure_par
            (if check then
               List.filter
                 (fun (n, _) -> n = par_gated_workload)
                 E17_scaling.workloads
             else E17_scaling.workloads)
        in
        let mismatches = par_mismatches runs_by_workload in
        let rows =
          List.concat_map
            (fun (name, runs) ->
              let t1 = par_seconds runs 1 in
              List.map
                (fun (jobs, (m : E17_scaling.measurement)) ->
                  [
                    name;
                    string_of_int jobs;
                    Printf.sprintf "%.1f" (m.E17_scaling.seconds *. 1e3);
                    Printf.sprintf "%.2fx" (t1 /. m.E17_scaling.seconds);
                    (if List.mem (Printf.sprintf "%s@%d" name jobs) mismatches
                     then "NO"
                     else "yes");
                  ])
                runs)
            runs_by_workload
        in
        Table.print
          (Table.make ~title:"parallel scaling (wall clock)"
             ~columns:[ "workload"; "jobs"; "wall ms"; "speedup"; "= jobs 1" ]
             rows);
        let speedup_x4 =
          match List.assoc_opt par_gated_workload runs_by_workload with
          | Some runs -> par_seconds runs 1 /. par_seconds runs 4
          | None -> nan
        in
        Printf.printf "\n%s speedup at 4 domains: %.2fx; mismatches: %s\n"
          par_gated_workload speedup_x4
          (if mismatches = [] then "none" else String.concat ", " mismatches);
        ( [
            ("seed", Json.Int seed);
            ("jobs", Json.List (List.map (fun j -> Json.Int j) par_jobs));
            ("unit", Json.String "ms");
            ("host_domains", Json.Int (Domain.recommended_domain_count ()));
          ],
          Gate.record ~policy:Info "speedup_x4" speedup_x4
          :: Gate.record ~policy:Exact "par_mismatch_pct"
               (if mismatches = [] then 0. else 100.)
          :: List.concat_map
               (fun (name, runs) ->
                 let ms jobs =
                   Gate.record
                     (Printf.sprintf "%s/jobs%d_ms" name jobs)
                     (1e3 *. par_seconds runs jobs)
                 in
                 (* The latency-workload ratio is loose (100% relative —
                    failing only when the 4-domain run stops being ~2x
                    faster than sequential). *)
                 let ratio jobs =
                   Gate.record
                     ~policy:(Drift { tol_pct = 100.; slack = 10. })
                     (Printf.sprintf "%s/jobs%d_vs_jobs1_pct" name jobs)
                     (100. *. par_seconds runs jobs /. par_seconds runs 1)
                 in
                 List.map ms par_jobs
                 @
                 if name = par_gated_workload then
                   List.map ratio (List.filter (fun j -> j > 1) par_jobs)
                 else [])
               runs_by_workload ));
  }

(* Part 5: incremental judging & sensing kernels -> BENCH_sense.json.

   The incremental-evaluation refactor's claim is algorithmic — judging
   and sensing are a single O(n) pass instead of the legacy O(n^2)
   prefix re-evaluation — so the gated numbers are RATIOS, which
   transfer across hosts:
   - judge16k_incr_vs_legacy_pct: incremental [Referee.violations]
     as a percentage of the legacy prefix-predicate path
     ([legacy_violations_prefix] on a list predicate) at horizon 16k.
     Holding under 10% is the ">= 10x wall-clock win" acceptance bar.
   - *_scaling_16k_over_1k: wall clock at horizon 16k over horizon 1k
     for the incremental judge, incremental sensing and tolerant
     sensing kernels.  A linear pass gives ~16x; anything quadratic
     gives ~256x.  Gated at <= 25x, except [sense-verdicts]: its pass
     allocates the per-round verdict list, so at 16k it is memory-bound
     and its ratio tracks the host's cache hierarchy more than the
     algorithm (Info).
   Both bounds are Ceiling records, judged whatever the committed file
   says.  Absolute ms drift against the committed file with the loose
   cross-host tolerance. *)

let sense_horizons = [ 1_000; 4_000; 16_000 ]
let sense_bound = 10

(* The synthetic plant wanders inside [-bound, bound] and strays out on
   a sparse set of rounds, so the judge kernels have violations to
   collect and the sensors see both verdicts. *)
let sense_plant r =
  if r mod 97 = 0 then sense_bound + 1 + (r mod 5)
  else (r * 7 mod ((2 * sense_bound) + 1)) - sense_bound

let sense_history n =
  let round r =
    let plant = Msg.Int (sense_plant r) in
    {
      History.Round.index = r;
      user_to_server = Msg.Sym (r land 3);
      user_to_world = Msg.Silence;
      server_to_user = Msg.Int (r land 7);
      server_to_world = Msg.Silence;
      world_to_user = plant;
      world_to_server = Msg.Silence;
      world_view = plant;
      user_halted = false;
    }
  in
  History.make ~initial_world_view:(Msg.Int 0) (List.init n (fun i -> round (i + 1)))

let sense_in_range = function
  | Msg.Int p -> abs p <= sense_bound
  | _ -> false

(* The pre-refactor cost model for compact judging: a predicate over
   most-recent-first world views, re-evaluated once per prefix over a
   freshly built list — the library's old list-predicate compact
   referee, judged prefix by prefix.  It is the quadratic baseline the
   judge16k_incr_vs_legacy_pct gate measures the fold against. *)
let legacy_violations_prefix acceptable history =
  let n = History.length history in
  let rounds = Array.init n (History.round_exn history) in
  let acc = ref [] in
  for i = n - 1 downto 0 do
    let views = ref [ History.initial_world_view history ] in
    for k = 0 to i do
      views := rounds.(k).History.Round.world_view :: !views
    done;
    if not (acceptable !views) then
      acc := rounds.(i).History.Round.index :: !acc
  done;
  !acc

let sense_acceptable_legacy = function
  | v :: _ -> sense_in_range v
  | [] -> true

let sense_referee_incr =
  Referee.compact_incremental "plant-in-range/incr"
    ~init:(fun _v0 -> ((), `Ok))
    ~step:(fun () v -> ((), if sense_in_range v then `Ok else `Violation))

let sense_sensor =
  Sensing.of_recent ~name:"plant-in-range/recent" ~window:16 (fun e ->
      sense_in_range e.View.from_world)

let sense_tolerant = Sensing.tolerant ~window:8 ~threshold:6 sense_sensor

let sense_kernels =
  [
    ( "judge-legacy",
      fun hist ->
        ignore (legacy_violations_prefix sense_acceptable_legacy hist) );
    ( "judge-incremental",
      fun hist -> ignore (Referee.violations sense_referee_incr hist) );
    ("sense-verdicts", fun hist -> ignore (Sensing.verdicts sense_sensor hist));
    (* negatives_after folds the tolerant state over the whole history
       without building the O(n) verdict list, so this times the
       per-round sensing cost itself — the thing the ring buffer made
       O(1) — not result-list construction. *)
    ( "tolerant-w8",
      fun hist -> ignore (Sensing.negatives_after sense_tolerant hist 0) );
  ]

(* [(kernel, [(horizon, best seconds per pass)])] — one warm pass, then
   the minimum over [repeats] timed samples per (kernel, horizon).

   Each sample times a BATCH of passes covering the same total round
   count at every horizon (so a 1k sample runs 16x more passes than a
   16k sample).  A single 1k pass is ~tens of microseconds — timer
   granularity — and a single 16k pass may or may not absorb a GC
   slice, which showed up as 2x run-to-run noise on the scaling ratio.
   Batching fixes both: samples are well above timer resolution, and GC
   work amortises in proportion to allocation — the same per round at
   either horizon — so it cancels out of the 16k/1k ratio instead of
   landing on whichever sample drew the collection. *)
let sense_batch_rounds = 4 * 16_000

let measure_sense ~repeats () =
  let hists = List.map (fun h -> (h, sense_history h)) sense_horizons in
  (* Both judge paths must agree, or the speedup compares different
     answers; checked once at the smallest horizon. *)
  let h0 = snd (List.hd hists) in
  if
    Referee.violations sense_referee_incr h0
    <> legacy_violations_prefix sense_acceptable_legacy h0
  then failwith "sense bench: judge kernels disagree";
  List.map
    (fun (name, kernel) ->
      ( name,
        List.map
          (fun (h, hist) ->
            (* The legacy judge is quadratic — one pass per sample is
               already ~500ms at 16k and far above timer noise. *)
            let passes =
              if name = "judge-legacy" then 1
              else max 1 (sense_batch_rounds / h)
            in
            kernel hist;
            let best = ref infinity in
            for _ = 1 to repeats do
              Gc.full_major ();
              let t0 = Unix.gettimeofday () in
              for _ = 1 to passes do
                kernel hist
              done;
              let dt = Unix.gettimeofday () -. t0 in
              best := min !best (dt /. float_of_int passes)
            done;
            (h, !best))
          hists ))
    sense_kernels

let sense_ms runs name h = 1e3 *. List.assoc h (List.assoc name runs)
let sense_scaling runs name = sense_ms runs name 16_000 /. sense_ms runs name 1_000

let sense_part =
  {
    key = "sense";
    file = "BENCH_sense.json";
    run =
      (fun ~check ->
        banner "Incremental judging & sensing kernels";
        let repeats = if check then 4 else 5 in
        let runs = measure_sense ~repeats () in
        Table.print
          (Table.make
             ~title:
               (Printf.sprintf
                  "judge/sensing kernels, ms per full-history pass (best of %d)"
                  repeats)
             ~columns:[ "kernel"; "1k ms"; "4k ms"; "16k ms"; "16k/1k" ]
             (List.map
                (fun (name, _) ->
                  name
                  :: List.map
                       (fun h -> Printf.sprintf "%.3f" (sense_ms runs name h))
                       sense_horizons
                  @ [ Printf.sprintf "%.1fx" (sense_scaling runs name) ])
                runs));
        let legacy = sense_ms runs "judge-legacy" 16_000
        and incr = sense_ms runs "judge-incremental" 16_000 in
        ( [
            ("seed", Json.Int seed);
            ( "horizons",
              Json.List (List.map (fun h -> Json.Int h) sense_horizons) );
            ("repeats", Json.Int repeats);
            ("unit", Json.String "ms");
          ],
          [
            Gate.record ~policy:Info "judge16k_speedup_x" (legacy /. incr);
            Gate.record ~policy:(Ceiling 10.) "judge16k_incr_vs_legacy_pct"
              (100. *. incr /. legacy);
            Gate.record ~policy:(Ceiling 25.) "judge_scaling_16k_over_1k"
              (sense_scaling runs "judge-incremental");
            Gate.record ~policy:Info "sense_scaling_16k_over_1k"
              (sense_scaling runs "sense-verdicts");
            Gate.record ~policy:(Ceiling 25.) "tolerant_scaling_16k_over_1k"
              (sense_scaling runs "tolerant-w8");
          ]
          @ List.concat_map
              (fun (name, times) ->
                List.map
                  (fun (h, t) ->
                    Gate.record
                      (Printf.sprintf "%s/h%dk_ms" name (h / 1000))
                      (t *. 1e3))
                  times)
              runs ));
  }

(* Part 6: supervised session engine -> BENCH_session.json.

   The session engine's contract is behavioural before it is fast:
   under a fixed seed and chaos schedule, every count it reports —
   completions, sheds, restarts, breaker trips, rounds percentiles —
   is a deterministic function of the configuration, identical on
   every host and at every jobs count.  So those counts are Exact
   records, plus session_mismatch_pct (every jobs>1 digest vs the
   jobs=1 digest, exported as 0 or 100) exactly as Part 4 does for
   parallel trials.  Wall clock per condition drifts at each jobs count
   with the loose cross-host tolerance; minor words per round —
   deterministic on a host, but sensitive to stdlib / compiler
   versions — drifts within a tight 15%.

   Two conditions exercise the two failure planes over the full E18
   session mix:
   - storm: scheduled kills + crash storms + burst loss, everything
     admitted (effectively unbounded queue), the round budget acting
     as the wedge detector.  Stresses supervision: restarts, backoff,
     breakers.
   - overload: no chaos, tight queue.  Stresses admission: most of
     the population is shed at a full queue and the rest drain
     through the [max_live] slots. *)

module Session_engine = Goalcom_session.Engine

let session_sessions = 10_000

let session_jobs = [ 1; 4 ]

let session_conditions =
  [
    { E18_chaos_matrix.cname = "storm";
      chaos_spec = "kill@2,4%5=0;crash:25@1..800%3=1;burst:0.25@1..150%7=2";
      econfig =
        Session_engine.config ~quantum:32 ~max_live:256
          ~queue_capacity:1_000_000 ~round_budget:2_000 ~max_ticks:200_000 ()
    };
    { E18_chaos_matrix.cname = "overload";
      chaos_spec = "";
      econfig =
        Session_engine.config ~quantum:32 ~max_live:256 ~queue_capacity:2_048
          ~max_ticks:200_000 ()
    };
  ]

(* [(cname, [(jobs, (report, seconds, minor_words))])].  Minor-heap
   words are only meaningful at jobs 1 (the exact sequential path — at
   higher widths the counter misses what worker domains allocate), and
   there they are deterministic: the allocation gate reads the jobs=1
   figure. *)
let measure_session () =
  List.map
    (fun (c : E18_chaos_matrix.condition) ->
      ( c.E18_chaos_matrix.cname,
        List.map
          (fun jobs ->
            let t0 = Unix.gettimeofday () in
            let mw0 = Gc.minor_words () in
            let report =
              E18_chaos_matrix.run_condition ~jobs ~sessions:session_sessions
                ~seed c
            in
            let mw = Gc.minor_words () -. mw0 in
            (jobs, (report, Unix.gettimeofday () -. t0, mw)))
          session_jobs ))
    session_conditions

(* Conditions whose jobs>1 digest diverges from jobs=1; [] passes. *)
let session_mismatches runs =
  List.filter_map
    (fun (cname, by_jobs) ->
      match by_jobs with
      | (_, ((base : Session_engine.report), _, _)) :: rest ->
          if
            List.for_all
              (fun (_, ((r : Session_engine.report), _, _)) ->
                String.equal r.Session_engine.digest
                  base.Session_engine.digest)
              rest
          then None
          else Some cname
      | [] -> None)
    runs

(* The behavioural counts of one report.  [failed] rather than
   [completed] because the gate's judge is one-sided (a fresh value
   exceeding baseline is the regression): more failures must fail,
   more completions must not. *)
let session_counts (r : Session_engine.report) =
  let open Session_engine in
  [
    ("failed", float_of_int (session_sessions - r.completed));
    ("shed", float_of_int r.shed);
    ("restarts", float_of_int r.restarts);
    ("trips", float_of_int r.trips);
    ("gave_up", float_of_int r.gave_up);
    ("unfinished", float_of_int r.unfinished);
    ("total_rounds", float_of_int r.total_rounds);
    ("p50_rounds", r.p50_rounds);
    ("p99_rounds", r.p99_rounds);
    ("p999_rounds", r.p999_rounds);
  ]

(* Throughput of one measured run.  Recorded in BENCH_session.json and
   printed, but gated through its reciprocal [jobsN_ms] (the gate's
   judge is lower-is-better, and the two are the same number): it is
   an Info record so a faster host's higher throughput is never
   misread as a regression. *)
let sessions_per_sec t = float_of_int session_sessions /. t

(* Allocation per session-round, from the jobs=1 run. *)
let session_minor_words_per_round by_jobs =
  let (r : Session_engine.report), _, mw = List.assoc 1 by_jobs in
  if r.Session_engine.total_rounds = 0 then 0.
  else mw /. float_of_int r.Session_engine.total_rounds

(* Parallel speedup as a percentage: jobs=4 wall clock over jobs=1
   (< 100 means jobs 4 is faster).  The storm figure has a Ceiling of
   100 — the whole point of domain-sharded quanta — where the host has
   more than one hardware thread: the engine clamps its pool width to
   the hardware, so on a single-thread host jobs 4 runs the jobs 1 path
   and the ratio is parity plus noise. *)
let session_speedup_pct by_jobs =
  let _, t1, _ = List.assoc 1 by_jobs in
  let _, t4, _ = List.assoc 4 by_jobs in
  100. *. t4 /. t1

let storm_speedup_policy ~check =
  if Goalcom_par.Pool.hardware_jobs () > 1 then Gate.Ceiling 100.
  else begin
    if check then
      Printf.printf
        "bench --check: single hardware thread, jobs 4 clamps to jobs 1 — \
         skipping the storm speedup hard gate\n\
         %!";
    Gate.Info
  end

let session_part =
  {
    key = "session";
    file = "BENCH_session.json";
    run =
      (fun ~check ->
        banner "Supervised session engine (chaos conditions)";
        let runs = measure_session () in
        let mismatches = session_mismatches runs in
        let rows =
          List.concat_map
            (fun (cname, by_jobs) ->
              List.map
                (fun (jobs, ((r : Session_engine.report), t, _)) ->
                  let open Session_engine in
                  [
                    cname;
                    string_of_int jobs;
                    Printf.sprintf "%.0f" (t *. 1e3);
                    Printf.sprintf "%.0f" (sessions_per_sec t);
                    (if jobs = 1 then
                       Printf.sprintf "%.0f"
                         (session_minor_words_per_round by_jobs)
                     else "-");
                    string_of_int r.completed;
                    string_of_int r.shed;
                    string_of_int r.restarts;
                    string_of_int r.trips;
                    string_of_int r.gave_up;
                    Printf.sprintf "%.0f" r.p50_rounds;
                    Printf.sprintf "%.0f" r.p99_rounds;
                    Printf.sprintf "%.0f" r.p999_rounds;
                    String.sub r.digest 0 12;
                  ])
                by_jobs)
            runs
        in
        Table.print
          (Table.make
             ~title:
               (Printf.sprintf "session engine, %d sessions per condition"
                  session_sessions)
             ~columns:
               [ "condition"; "jobs"; "wall ms"; "sess/s"; "mw/rd"; "done";
                 "shed"; "restarts"; "trips"; "give-ups"; "p50 rds";
                 "p99 rds"; "p999 rds"; "digest" ]
             rows);
        Printf.printf "\ndigest mismatches across jobs counts: %s\n"
          (if mismatches = [] then "none" else String.concat ", " mismatches);
        ( [
            ("seed", Json.Int seed);
            ("sessions", Json.Int session_sessions);
            ("jobs", Json.List (List.map (fun j -> Json.Int j) session_jobs));
            ("unit", Json.String "ms");
          ],
          Gate.record ~policy:Exact "session_mismatch_pct"
            (if mismatches = [] then 0. else 100.)
          :: List.concat_map
               (fun (cname, by_jobs) ->
                 let r, _, _ = List.assoc 1 by_jobs in
                 let named field = Printf.sprintf "%s/%s" cname field in
                 List.map
                   (fun (field, v) -> Gate.record ~policy:Exact (named field) v)
                   (session_counts r)
                 @ List.concat_map
                     (fun (jobs, (_, t, _)) ->
                       [
                         Gate.record
                           (named (Printf.sprintf "jobs%d_ms" jobs))
                           (t *. 1e3);
                         Gate.record ~policy:Info
                           (named (Printf.sprintf "jobs%d_sessions_per_sec" jobs))
                           (sessions_per_sec t);
                       ])
                     by_jobs
                 @ [
                     Gate.record
                       ~policy:(Drift { tol_pct = 15.; slack = 0. })
                       (named "minor_words_per_round")
                       (session_minor_words_per_round by_jobs);
                     Gate.record
                       ?policy:
                         (if cname = "storm" then
                            Some (storm_speedup_policy ~check)
                          else None)
                       (named "jobs4_vs_jobs1_pct")
                       (session_speedup_pct by_jobs);
                   ])
               runs ));
  }

(* Part 7: the network goal family -> BENCH_net.json.

   lib/net's claims are behavioural and deterministic, so the gate
   pins them exactly, exactly as Part 6 does for the session engine:

   - delivery rounds: how many rounds the informed and the universal
     user need to route each canned topology (single deterministic
     runs — Exact);
   - forwarding under faults: delivery failures (Exact) and mean rounds
     of the stop-and-wait ARQ over clean / lossy+duplicating links
     within the E19 round budget (fixed trials and seed; mean rounds
     drift by at most 0.01, the two-decimal rounding of the committed
     file);
   - contention: the shared-medium multiple-access populations at 2/4/8
     users — slots to drain, collisions, idles, incompletions (Exact),
     plus net_mismatch_pct comparing every jobs>1 engine digest against
     jobs=1 (0 or 100, Exact: the group-arbiter determinism claim).

   Wall clock per users x jobs cell drifts with the loose cross-host
   tolerance.  Counts are one-sided lower-is-better, which
   is why the file records failures/incomplete rather than
   successes/completed. *)

module Net = Goalcom_net

let net_alphabet = E19_net_matrix.alphabet
let net_payload_alphabet = 4
let net_dialects = Dialect.enumerate_rotations ~size:net_alphabet
let net_dialect i = Enum.get_exn net_dialects (i mod net_alphabet)
let net_forward_trials = 40
let net_forward_budget = 400
let net_mac_users = [ 2; 4; 8 ]
let net_mac_jobs = [ 1; 2; 4 ]

(* Failed deliveries encode as a sentinel that exceeds any real round
   count, so a regression to non-delivery always trips the (one-sided,
   lower-is-better) zero-tolerance rounds gate. *)
let net_undelivered = 1_000_000

let measure_net_topo () =
  List.map
    (fun (name, scenario) ->
      let goal = Net.Topo.goal ~scenarios:[ scenario ] ~alphabet:net_alphabet () in
      let server = Net.Topo.server ~alphabet:net_alphabet (net_dialect 3) in
      let rounds ~horizon user =
        let outcome, history =
          Exec.run_outcome
            ~config:(Exec.config ~horizon ())
            ~goal ~user ~server (Rng.make seed)
        in
        if outcome.Outcome.achieved then History.length history
        else net_undelivered
      in
      ( name,
        rounds ~horizon:net_forward_budget
          (Net.Topo.informed_user ~alphabet:net_alphabet ~scenario
             (net_dialect 3)),
        rounds ~horizon:8_000
          (Net.Topo.universal_user ~alphabet:net_alphabet ~scenario
             net_dialects) ))
    (E19_net_matrix.topo_cases ())

let net_forward_conditions =
  [ ("clean", ""); ("loss15dup", "loss:0.15+dup"); ("loss35dup", "loss:0.35+dup") ]

(* [(condition, failures, mean_rounds)] over the fixed trial count. *)
let measure_net_forward () =
  let scenario =
    Net.Forward.scenario ~payload_alphabet:net_payload_alphabet [ 2; 0; 3; 1 ]
  in
  let goal = Net.Forward.goal ~scenarios:[ scenario ] ~alphabet:net_alphabet () in
  let user = Net.Forward.informed_user ~alphabet:net_alphabet (net_dialect 0) in
  List.map
    (fun (name, spec) ->
      let fault =
        match Goalcom_faults.Fault.stack_of_string ~alphabet:net_alphabet spec with
        | Ok f -> f
        | Error e -> invalid_arg ("bench net: " ^ e)
      in
      let server =
        Goalcom_faults.Fault.apply fault
          (Net.Forward.server ~alphabet:net_alphabet
             ~payload_alphabet:net_payload_alphabet (net_dialect 0))
      in
      let r =
        Trial.run
          ~config:(Exec.config ~horizon:net_forward_budget ())
          ~trials:net_forward_trials ~seed ~goal ~user ~server ()
      in
      ( name,
        net_forward_trials - r.Trial.successes,
        if Float.is_nan r.Trial.mean_rounds then float_of_int net_undelivered
        else r.Trial.mean_rounds ))
    net_forward_conditions

(* [(users, [(jobs, (mac_run, seconds))])] *)
let measure_net_mac () =
  List.map
    (fun users ->
      ( users,
        List.map
          (fun jobs ->
            let t0 = Unix.gettimeofday () in
            let r = E19_net_matrix.run_mac ~jobs ~users ~seed () in
            (jobs, (r, Unix.gettimeofday () -. t0)))
          net_mac_jobs ))
    net_mac_users

let measure_net () = (measure_net_topo (), measure_net_forward (), measure_net_mac ())

(* Populations whose jobs>1 digest diverges from jobs=1; [] passes. *)
let net_mismatches mac =
  List.filter_map
    (fun (users, by_jobs) ->
      match by_jobs with
      | (_, ((base : E19_net_matrix.mac_run), _)) :: rest ->
          let digest (r : E19_net_matrix.mac_run) =
            r.E19_net_matrix.report.Session_engine.digest
          in
          if
            List.for_all
              (fun (_, (r, _)) -> String.equal (digest r) (digest base))
              rest
          then None
          else Some (Printf.sprintf "%d-users" users)
      | [] -> None)
    mac

let net_part =
  {
    key = "net";
    file = "BENCH_net.json";
    run =
      (fun ~check:_ ->
        banner "Network goal family (lib/net)";
        let topo, fwd, mac = measure_net () in
        let mismatches = net_mismatches mac in
        Table.print
          (Table.make
             ~title:"topology routing: rounds to deliver (dialect-3 switch)"
             ~columns:[ "case"; "informed"; "universal" ]
             (List.map
                (fun (n, i, u) -> [ n; string_of_int i; string_of_int u ])
                topo));
        Table.print
          (Table.make
             ~title:
               (Printf.sprintf "ARQ forwarding: %d trials, %d-round budget"
                  net_forward_trials net_forward_budget)
             ~columns:[ "condition"; "failures"; "mean rounds" ]
             (List.map
                (fun (n, f, m) -> [ n; string_of_int f; Printf.sprintf "%.0f" m ])
                fwd));
        Table.print
          (Table.make ~title:"multiple access: one shared medium per population"
             ~columns:
               [ "users"; "jobs"; "wall ms"; "slots"; "delivered"; "collisions";
                 "idles"; "done"; "digest" ]
             (List.concat_map
                (fun (users, by_jobs) ->
                  List.map
                    (fun (jobs, ((r : E19_net_matrix.mac_run), t)) ->
                      let open E19_net_matrix in
                      [
                        string_of_int users;
                        string_of_int jobs;
                        Printf.sprintf "%.0f" (t *. 1e3);
                        string_of_int r.slots;
                        string_of_int r.successes;
                        string_of_int r.collisions;
                        string_of_int r.idles;
                        Printf.sprintf "%d/%d" r.report.Session_engine.completed
                          users;
                        String.sub r.report.Session_engine.digest 0 12;
                      ])
                    by_jobs)
                mac));
        Printf.printf "\ndigest mismatches across jobs counts: %s\n"
          (if mismatches = [] then "none" else String.concat ", " mismatches);
        let count name v = Gate.record ~policy:Exact name (float_of_int v) in
        ( [
            ("seed", Json.Int seed);
            ("trials", Json.Int net_forward_trials);
            ("jobs", Json.List (List.map (fun j -> Json.Int j) net_mac_jobs));
            ("unit", Json.String "ms");
          ],
          Gate.record ~policy:Exact "net_mismatch_pct"
            (if mismatches = [] then 0. else 100.)
          :: List.concat_map
               (fun (name, informed, universal) ->
                 [
                   count (Printf.sprintf "topo_%s/informed_rounds" name)
                     informed;
                   count (Printf.sprintf "topo_%s/universal_rounds" name)
                     universal;
                 ])
               topo
          @ List.concat_map
              (fun (name, failures, mean_rounds) ->
                [
                  count (Printf.sprintf "fwd_%s/failures" name) failures;
                  Gate.record
                    ~policy:(Drift { tol_pct = 0.; slack = 0.01 })
                    (Printf.sprintf "fwd_%s/mean_rounds" name)
                    mean_rounds;
                ])
              fwd
          @ List.concat_map
              (fun (users, by_jobs) ->
                let (r1 : E19_net_matrix.mac_run), _ = List.assoc 1 by_jobs in
                let named field = Printf.sprintf "mac%d/%s" users field in
                let open E19_net_matrix in
                [
                  count (named "slots") r1.slots;
                  count (named "collisions") r1.collisions;
                  count (named "idles") r1.idles;
                  count (named "incomplete")
                    (users - r1.report.Session_engine.completed);
                ]
                @ List.map
                    (fun (jobs, (_, t)) ->
                      Gate.record
                        (named (Printf.sprintf "jobs%d_ms" jobs))
                        (t *. 1e3))
                    by_jobs)
              mac ));
  }

let parts =
  [ faults_part; trace_part; par_part; sense_part; session_part; net_part ]

(* Measure one part and print its Ceiling records against their bounds. *)
let measure ~check part =
  let header, records = part.run ~check in
  List.iter
    (fun (r : Gate.record) ->
      match r.policy with
      | Ceiling bound ->
          Printf.printf "acceptance: %s = %.3f (ceiling %g)\n" r.name r.value
            bound
      | Exact | Drift _ | Info -> ())
    records;
  (header, records)

let write part =
  let header, records = measure ~check:false part in
  Gate.write_file part.file header records;
  Printf.printf "wrote %s (%d records)\n%!" part.file (List.length records)

(* --check: the perf-regression gate.  Re-measure every part (CI-sized
   quick runs), judge each record by its policy against the committed
   file, emit the machine-readable verdict to BENCH_check.json, and exit
   non-zero on any regression. *)
let check () =
  let comparisons =
    List.concat_map
      (fun part ->
        match Gate.load_file part.file with
        | Error e ->
            Printf.eprintf "bench --check: %s\n" e;
            exit 2
        | Ok baseline ->
            Printf.printf "bench --check: re-measuring %s against %s\n%!"
              part.key part.file;
            Gate.compare_records ~baseline (snd (measure ~check:true part)))
      parts
  in
  Table.print (Gate.table comparisons);
  let verdict = Gate.verdict_json comparisons in
  Out_channel.with_open_text "BENCH_check.json" (fun oc ->
      output_string oc (verdict ^ "\n"));
  print_endline verdict;
  match Gate.regressions comparisons with
  | [] ->
      Printf.printf "bench --check: PASS (%d metrics vs %s)\n"
        (List.length comparisons)
        (String.concat " + " (List.map (fun p -> p.file) parts))
  | regs ->
      List.iter
        (fun (c : Gate.comparison) ->
          Printf.printf "bench --check: %s %s\n" c.metric
            (if Gate.missing c then "has no counterpart in the committed file"
             else "regressed"))
        regs;
      Printf.printf "bench --check: FAIL (%d of %d metrics regressed)\n"
        (List.length regs) (List.length comparisons);
      exit 1

let () =
  if Array.exists (( = ) "--check") Sys.argv then check ()
  else
    match
      List.find_opt (fun p -> Sys.getenv_opt "BENCH_ONLY" = Some p.key) parts
    with
    | Some part -> write part
    | None ->
        print_experiments ();
        List.iter write parts
