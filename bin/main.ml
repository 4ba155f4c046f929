(* goalcom — CLI for the goal-oriented-communication library.  Each
   subcommand documents itself: `goalcom --help`, `goalcom CMD --help`. *)

open Cmdliner
open Goalcom
open Goalcom_prelude
open Goalcom_automata
open Goalcom_goals
open Goalcom_harness

(* --- shared flag vocabulary --- *)

(* Integer flags with a range: an out-of-range value is a usage error
   naming the option (exit 124), never an exception from deep inside a
   run. *)
let int_at_least lo kind =
  let parse =
    Arg.parser_of_kind_of_string ~kind (fun s ->
        Option.bind (int_of_string_opt s) (fun n ->
            if n >= lo then Some n else None))
  in
  Arg.conv (parse, Format.pp_print_int)

let positive = int_at_least 1 "a positive integer"
let non_negative = int_at_least 0 "a non-negative integer"

(* A failed run prints its message and exits 1; so does a parse that
   fails on input the flag's type cannot rule out (a spec string, a
   file's contents). *)
let die fmt = Printf.ksprintf (fun msg -> prerr_endline msg; exit 1) fmt
let or_exit = function Ok v -> v | Error e -> die "%s" e

let seed_arg =
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"Random seed.")

let jobs_arg =
  Arg.(value & opt (some positive) None
       & info [ "jobs" ] ~docv:"N"
           ~doc:"Domain count for the parallel entry points (overrides \
                 $(b,GOALCOM_JOBS); the default is 1, fully sequential).  \
                 Every experiment is bit-identical for every value — only \
                 the wall-clock changes.")

let apply_jobs jobs = Option.iter Goalcom_par.Pool.set_default_jobs jobs

let file_arg ?(at = 0) ?(docv = "FILE") doc =
  Arg.(required & pos at (some non_dir_file) None & info [] ~docv ~doc)

let csv_arg doc = Arg.(value & flag & info [ "csv" ] ~doc)

(* list *)

let list_cmd =
  let run () =
    let rows =
      List.map
        (fun (e : Experiment.t) ->
          [ e.id; Experiment.kind_to_string e.kind; e.title ])
        Experiment.all
    in
    Table.print
      (Table.make ~title:"experiments" ~columns:[ "id"; "kind"; "title" ] rows)
  in
  Cmd.v (Cmd.info "list" ~doc:"List the experiment registry.")
    Term.(const run $ const ())

(* run *)

let run_cmd =
  let id_arg =
    (* The docv range tracks the registry, not a hand-written constant. *)
    let ids_doc =
      match Experiment.all with
      | [] -> "Experiment id."
      | es ->
          Printf.sprintf "Experiment id (%s..%s)." (List.hd es).Experiment.id
            (Listx.last es).Experiment.id
    in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"ID" ~doc:ids_doc)
  in
  let trace_arg =
    Arg.(value & opt (some string) None
         & info [ "trace" ] ~docv:"FILE"
             ~doc:"Write a JSONL execution trace of every run the \
                   experiment performs to $(docv).")
  in
  let run id seed csv trace jobs =
    apply_jobs jobs;
    match Experiment.find id with
    | None -> die "unknown experiment %S; try `goalcom list`" id
    | Some e ->
        Printf.printf "# %s — %s\n# claim: %s\n%!" e.Experiment.id
          e.Experiment.title e.Experiment.claim;
        let render () =
          let table = e.Experiment.run ~seed in
          if csv then print_string (Table.to_csv table) else Table.print table
        in
        (match trace with
        | None -> render ()
        | Some path ->
            Goalcom_obs.Jsonl.with_file path (fun sink ->
                Trace.with_sink sink render))
  in
  Cmd.v (Cmd.info "run" ~doc:"Run one experiment.")
    Term.(const run $ id_arg $ seed_arg
          $ csv_arg "Emit CSV instead of a table." $ trace_arg $ jobs_arg)

(* all *)

let all_cmd =
  let run seed jobs =
    apply_jobs jobs;
    (* Compute the whole registry through the pool (sequentially when
       jobs is 1), then print in registry order. *)
    let tables = Experiment.run_par ~seed Experiment.all in
    List.iter2
      (fun (e : Experiment.t) table ->
        Printf.printf "# %s — %s\n%!" e.id e.title;
        Table.print table)
      Experiment.all tables
  in
  Cmd.v
    (Cmd.info "all" ~doc:"Run every experiment.")
    Term.(const run $ seed_arg $ jobs_arg)

(* --- the goal families: demo, check, transcript --- *)

(* What a family is built at.  demo and transcript run one pairing at
   alphabet 6 on an 8x8 maze with 16 passwords; check enumerates whole
   user and server classes, so it uses alphabet 4, a 6x6 maze and 8
   passwords. *)
type setting = {
  alphabet : int;
  dialects : Dialect.t Enum.t;
  scenario : Maze.scenario;
  space : int;  (** password space *)
}

let setting ~alphabet ~maze:(side, target) ~space =
  {
    alphabet;
    dialects = Dialect.enumerate_rotations ~size:alphabet;
    scenario = Maze.scenario ~width:side ~height:side ~start:(0, 0) ~target ();
    space;
  }

let run_setting () = setting ~alphabet:6 ~maze:(8, (5, 4)) ~space:16
let check_setting () = setting ~alphabet:4 ~maze:(6, (4, 3)) ~space:8

(* Server [k] speaks dialect [k mod alphabet]. *)
let dialect s k = Enum.get_exn s.dialects (k mod s.alphabet)

(* One of the paper's motivating goals.  [server s k] and [informed s
   k] are the pairing at dialect (or password) index [k]; [safety] is
   the validator `check` runs on [sensing] over the user and server
   classes, with its round horizon (default config when [None]). *)
type family = {
  name : string;
  goal : setting -> Goal.t;
  server : setting -> int -> Strategy.server;
  informed : setting -> int -> Strategy.user;
  universal : setting -> Strategy.user;
  users : setting -> Strategy.user Enum.t;
  servers : setting -> Strategy.server Enum.t;
  sensing : unit -> Sensing.t;
  safety : [ `Finite | `Compact ] * int option;
}

(* A family whose servers are the dialect rotations of one server. *)
let dialect_family name ~goal ~server ~informed ~universal ~users ~servers
    ~sensing ~safety =
  {
    name;
    goal = (fun s -> goal ~alphabet:s.alphabet ());
    server = (fun s k -> server ~alphabet:s.alphabet (dialect s k));
    informed = (fun s k -> informed ~alphabet:s.alphabet (dialect s k));
    universal = (fun s -> universal ~alphabet:s.alphabet s.dialects);
    users = (fun s -> users ~alphabet:s.alphabet s.dialects);
    servers = (fun s -> servers ~alphabet:s.alphabet s.dialects);
    sensing;
    safety;
  }

let families =
  [
    dialect_family "printing"
      ~goal:(fun ~alphabet () -> Printing.goal ~alphabet ())
      ~server:Printing.server ~informed:Printing.informed_user
      ~universal:(fun ~alphabet ds -> Printing.universal_user ~alphabet ds)
      ~users:Printing.user_class ~servers:Printing.server_class
      ~sensing:(fun () -> Printing.sensing) ~safety:(`Finite, None);
    {
      name = "maze";
      goal =
        (fun s -> Maze.goal ~scenarios:[ s.scenario ] ~alphabet:s.alphabet ());
      server = (fun s k -> Maze.server ~alphabet:s.alphabet (dialect s k));
      informed =
        (fun s k ->
          Maze.informed_user ~alphabet:s.alphabet ~scenario:s.scenario
            (dialect s k));
      universal =
        (fun s ->
          Maze.universal_user ~alphabet:s.alphabet ~scenario:s.scenario
            s.dialects);
      users =
        (fun s ->
          Maze.user_class ~alphabet:s.alphabet ~scenario:s.scenario s.dialects);
      servers = (fun s -> Maze.server_class ~alphabet:s.alphabet s.dialects);
      sensing = (fun () -> Maze.sensing);
      safety = (`Finite, None);
    };
    dialect_family "control"
      ~goal:(fun ~alphabet () -> Control.goal ~alphabet ())
      ~server:Control.server ~informed:Control.informed_user
      ~universal:(fun ~alphabet ds -> Control.universal_user ~alphabet ds)
      ~users:Control.user_class ~servers:Control.server_class
      ~sensing:(fun () -> Control.sensing ()) ~safety:(`Compact, Some 1500);
    {
      name = "password";
      goal = (fun _ -> Password.goal ());
      server = (fun s k -> Password.server_with_password (k mod s.space));
      informed = (fun s k -> Password.informed_user (k mod s.space));
      universal = (fun s -> Password.universal_user ~space:s.space ());
      users = (fun s -> Password.user_class ~space:s.space);
      servers = (fun s -> Password.server_class ~space:s.space);
      sensing = (fun () -> Password.sensing);
      safety = (`Finite, Some 200);
    };
    dialect_family "delegation"
      ~goal:(fun ~alphabet () -> Delegation.goal ~alphabet ())
      ~server:Delegation.server ~informed:Delegation.informed_user
      ~universal:(fun ~alphabet ds -> Delegation.universal_user ~alphabet ds)
      ~users:Delegation.user_class ~servers:Delegation.server_class
      ~sensing:(fun () -> Delegation.sensing) ~safety:(`Finite, Some 500);
    dialect_family "transfer"
      ~goal:(fun ~alphabet () -> Transfer.goal ~alphabet ())
      ~server:Transfer.server ~informed:Transfer.informed_user
      ~universal:(fun ~alphabet ds ->
        Transfer.universal_user_fast ~alphabet ds)
      ~users:Transfer.user_class ~servers:Transfer.server_class
      ~sensing:(fun () -> Transfer.goal_sensing) ~safety:(`Finite, Some 500);
    dialect_family "prediction"
      ~goal:(fun ~alphabet () -> Prediction.goal ~alphabet ())
      ~server:Prediction.server
      ~informed:(fun ~alphabet d -> Prediction.teacher_user ~alphabet d)
      ~universal:(fun ~alphabet ds -> Prediction.universal_user ~alphabet ds)
      ~users:(fun ~alphabet ds -> Prediction.user_class ~alphabet ds)
      ~servers:Prediction.server_class
      ~sensing:(fun () -> Prediction.sensing) ~safety:(`Compact, Some 800);
    dialect_family "counting"
      ~goal:(fun ~alphabet () -> Counting.goal ~alphabet ())
      ~server:Counting.server
      ~informed:(fun ~alphabet d -> Counting.verifier_user ~alphabet d)
      ~universal:(fun ~alphabet ds -> Counting.universal_user ~alphabet ds)
      ~users:(fun ~alphabet ds -> Counting.user_class ~alphabet ds)
      ~servers:Counting.server_class
      ~sensing:(fun () -> Counting.sensing) ~safety:(`Finite, Some 300);
  ]

let goal_arg ~doc =
  Arg.(required
       & pos 0 (some (enum (List.map (fun f -> (f.name, f)) families))) None
       & info [] ~docv:"GOAL" ~doc)

let user_conv =
  Arg.enum
    [
      ("universal", `Universal); ("oracle", `Oracle); ("fixed", `Fixed);
      ("random", `Random);
    ]

(* demo *)

let demo_cmd =
  let goal_arg =
    let names = String.concat ", " (List.map (fun f -> f.name) families) in
    goal_arg ~doc:(Printf.sprintf "One of %s." names)
  in
  let user_arg =
    Arg.(value & opt user_conv `Universal
         & info [ "user" ] ~docv:"USER" ~doc:"universal | oracle | fixed | random.")
  in
  let dialect_arg =
    Arg.(value & opt non_negative 1
         & info [ "dialect" ] ~docv:"K"
             ~doc:"Index of the server's dialect (or the password).")
  in
  let horizon_arg =
    Arg.(value & opt positive 8000
         & info [ "horizon" ] ~docv:"N" ~doc:"Round budget.")
  in
  let fault_arg =
    Arg.(value & opt_all string []
         & info [ "fault" ] ~docv:"SPEC"
             ~doc:"Wrap the server in a fault stack (repeatable; outermost \
                   first).  Specs: nop, delay:K, drop:P, dup, corrupt:P, \
                   reorder:K, burst:PE,PX,PD, crash:K, intermittent:ON,OFF, \
                   adversary:B; join with + for one flag, e.g. \
                   corrupt:0.05+crash:60.")
  in
  let trace_flag =
    Arg.(value & flag
         & info [ "trace" ]
             ~doc:"Stream the execution trace to stdout (compact form) and \
                   print a metrics summary after the run.")
  in
  let run family user_kind k horizon fault_specs trace seed =
    let s = run_setting () in
    let goal = family.goal s in
    let user =
      match user_kind with
      | `Universal -> family.universal s
      | `Oracle -> family.informed s k
      | `Fixed -> Goalcom_baselines.Baselines.fixed (family.users s)
      | `Random ->
          Goalcom_baselines.Baselines.random_actions ~alphabet:s.alphabet ()
    in
    let fault =
      let module Fault = Goalcom_faults.Fault in
      List.fold_left
        (fun acc spec ->
          Fault.compose acc
            (or_exit (Fault.stack_of_string ~alphabet:s.alphabet spec)))
        Fault.nop fault_specs
    in
    let server = Goalcom_faults.Fault.apply fault (family.server s k) in
    let module Metrics = Goalcom_obs.Metrics in
    let meter =
      if trace then Some (Metrics.create ~clock:Unix.gettimeofday ()) else None
    in
    let sink =
      Option.map
        (fun m ->
          Trace.tee (Goalcom_obs.Pretty.sink Format.std_formatter)
            (Metrics.sink m))
        meter
    in
    let outcome, history =
      Exec.run_outcome ?sink
        ~config:(Exec.config ~horizon ())
        ~goal ~user ~server (Rng.make seed)
    in
    Format.printf "goal    : %s@." (Goal.name goal);
    Format.printf "user    : %s@." (Strategy.name user);
    Format.printf "server  : %s@." (Strategy.name server);
    Format.printf "outcome : %a@." Outcome.pp outcome;
    Format.printf "rounds  : %d@." (History.length history);
    Option.iter
      (fun m -> Format.printf "metrics :@.%a@." Metrics.pp (Metrics.summary m))
      meter
  in
  Cmd.v
    (Cmd.info "demo" ~doc:"Run one goal once and report the outcome.")
    Term.(const run $ goal_arg $ user_arg $ dialect_arg $ horizon_arg
          $ fault_arg $ trace_flag $ seed_arg)

(* check *)

let check_cmd =
  let run family seed =
    let s = check_setting () in
    let goal = family.goal s in
    let users = Enum.to_list (family.users s) in
    let servers = Enum.to_list (family.servers s) in
    let sensing = family.sensing () and rng = Rng.make seed in
    let kind, horizon = family.safety in
    let config = Option.map (fun horizon -> Exec.config ~horizon ()) horizon in
    Format.printf "%a@." Sensing.pp_report
      (match kind with
      | `Finite ->
          Sensing.check_safety_finite ?config ~goal ~users ~servers sensing rng
      | `Compact ->
          Sensing.check_safety_compact ?config ~goal ~users ~servers sensing
            rng)
  in
  Cmd.v
    (Cmd.info "check" ~doc:"Validate sensing properties for a goal.")
    Term.(const run
          $ goal_arg ~doc:"Goal whose sensing/helpfulness to validate."
          $ seed_arg)

(* transcript *)

let transcript_cmd =
  let dialect_arg =
    Arg.(value & opt non_negative 1
         & info [ "dialect" ] ~docv:"K" ~doc:"Server dialect index.")
  in
  let rounds_arg =
    Arg.(value & opt non_negative 25
         & info [ "rounds" ] ~docv:"N" ~doc:"Rounds to print.")
  in
  let run family k rounds seed =
    let s = run_setting () in
    let history =
      Exec.run
        ~config:(Exec.config ~horizon:(max rounds 1) ())
        ~goal:(family.goal s) ~user:(family.informed s k)
        ~server:(family.server s k) (Rng.make seed)
    in
    Format.printf "%a@." History.pp (History.prefix rounds history)
  in
  Cmd.v
    (Cmd.info "transcript"
       ~doc:"Run an informed user on a goal and print the round-by-round history.")
    Term.(const run $ goal_arg ~doc:"Goal to run and dump." $ dialect_arg
          $ rounds_arg $ seed_arg)

(* --- serve / chaos: the supervised concurrent session engine --- *)

module Session = Goalcom_session
module Rollup = Goalcom_obs.Rollup

let sessions_arg ~default =
  Arg.(value & opt non_negative default
       & info [ "sessions" ] ~docv:"N"
           ~doc:"Number of sessions in the population (the standard E18 \
                 mix: printing / corridor-maze / open-maze universal \
                 users, round-robin).")

(* Everything `serve` and `chaos run` share: the population, admission
   and the engine's limits, warm start, live stats and the seed (the
   term applies --jobs as it builds the record).  The spec strings stay
   raw here; [engine_config] parses them, exiting 1 on a bad one. *)
type serving = {
  sessions : int;
  mix : [ `E18 | `Net ];
  max_live : int;
  queue : int;
  arrivals : string;
  class_weights : string;
  round_budget : int;
  warm : string option;
  stats : string option;
  stats_every : int;
  seed : int;
}

let serving_term ~sessions =
  let mix =
    Arg.(value & opt (enum [ ("e18", `E18); ("net", `Net) ]) `E18
         & info [ "mix" ] ~docv:"MIX"
             ~doc:"Session population: $(b,e18) (the standard printing/maze \
                   mix) or $(b,net) (lib/net: shared-medium multiple-access \
                   groups of four — stepped through the engine's group \
                   arbiter, one slot per tick — plus topology-routing and \
                   ARQ-forwarding universal sessions).  The net mix pins \
                   quantum to 1 so a scheduler tick is one medium slot.")
  in
  let max_live =
    Arg.(value & opt positive 256
         & info [ "max-live" ] ~docv:"N"
             ~doc:"Concurrently running sessions (admission slots).")
  in
  let queue =
    Arg.(value & opt non_negative 1_000_000
         & info [ "queue" ] ~docv:"N"
             ~doc:"Admission queue capacity; arrivals beyond slots + queue \
                   are shed.")
  in
  let arrivals =
    Arg.(value & opt string "bang"
         & info [ "arrivals" ] ~docv:"SPEC"
             ~doc:"Arrival process: bang (the whole population arrives at \
                   tick 1), a bare integer N (N sessions per tick), \
                   poisson:R (open-loop Poisson arrivals at mean rate R \
                   per tick) or mmpp:R1,R2,..[:P] (Markov-modulated \
                   Poisson cycling through the rates with per-tick hop \
                   probability P, default 0.1).  Rates are capped at 1e6 \
                   per tick; a larger one is rejected.  Sampling is seeded \
                   and deterministic.")
  in
  let class_weights =
    Arg.(value & opt string ""
         & info [ "class-weights" ] ~docv:"SPEC"
             ~doc:"Fair-share admission classes as \
                   CLASS=WEIGHT[,CLASS=WEIGHT..] over server classes \
                   (e.g. printing=3,maze-corridor=1).  Queued sessions \
                   are served by weighted deficit round-robin, so an \
                   open breaker blocks only its own class; unlisted \
                   classes share a default queue of weight 1.  Empty: \
                   one FIFO queue.")
  in
  let round_budget =
    Arg.(value & opt non_negative 0
         & info [ "round-budget" ] ~docv:"R"
             ~doc:"Rounds per incarnation before the supervisor wedge-kills \
                   it (0 disables).")
  in
  let warm =
    Arg.(value & opt (some string) None
         & info [ "warm" ] ~docv:"FILE"
             ~doc:"Warm-start store (JSONL).  Known winning candidate \
                   indices for each session class are probed first — one \
                   prepended Levin slot per class — and after the run the \
                   store is rewritten with the winners this run proved.  \
                   A missing file is an empty store; a corrupt one falls \
                   back to a cold start.")
  in
  let stats =
    Arg.(value & opt (some string) None
         & info [ "stats" ] ~docv:"FILE"
             ~doc:"Aggregate live per-class session rollups (admitted / \
                   shed / restarts / trips / done, rounds and latency \
                   p50/p99/p999, sessions/sec).  $(docv) '-' prints a \
                   Prometheus text exposition to stdout after the run; a \
                   .prom path writes the same to the file; any other path \
                   gets a JSON snapshot rewritten every $(b,--stats-every) \
                   ticks, which a concurrent `goalcom top --stats` \
                   renders live.")
  in
  let stats_every =
    Arg.(value & opt non_negative 50
         & info [ "stats-every" ] ~docv:"T"
             ~doc:"Ticks between snapshot rewrites for a JSON --stats file.")
  in
  let make sessions mix max_live queue arrivals class_weights round_budget
      warm stats stats_every seed jobs =
    apply_jobs jobs;
    {
      sessions; mix; max_live; queue; arrivals; class_weights; round_budget;
      warm; stats; stats_every; seed;
    }
  in
  Term.(const make $ sessions_arg ~default:sessions $ mix $ max_live $ queue
        $ arrivals $ class_weights $ round_budget $ warm $ stats $ stats_every
        $ seed_arg $ jobs_arg)

let engine_config ?quantum ?deadline sv =
  let arrivals = or_exit (Session.Arrival.of_string sv.arrivals) in
  let classes = or_exit (Session.Admission.classes_of_string sv.class_weights) in
  Session.Engine.config ?quantum ~max_live:sv.max_live
    ~queue_capacity:sv.queue ~arrivals ~classes ~round_budget:sv.round_budget
    ?deadline ()

(* Warm-start stores: known winning candidate indices per session
   class, persisted as JSONL (Goalcom_harness.Warm).  Loading a missing
   file is an empty store; a corrupt file degrades to a cold start
   (Warm.hints rejects it with a Trace.Warm event). *)
let warm_store sv =
  Option.map
    (fun path -> if Sys.file_exists path then Warm.load path else Ok [])
    sv.warm

(* The net mix attaches shared-medium groups and needs quantum 1 (one
   tick = one arbitration slot); warm stores record E18 classes only. *)
let population ?warm sv =
  match sv.mix with
  | `E18 -> (E18_chaos_matrix.specs ?warm ~sessions:sv.sessions (), [])
  | `Net -> E19_net_matrix.population ~sessions:sv.sessions ()

let write_file path content =
  Out_channel.with_open_text path (fun oc -> output_string oc content)

let write_atomic path content =
  write_file (path ^ ".tmp") content;
  Sys.rename (path ^ ".tmp") path

(* A rollup of a population's supervision decisions, with the engine
   hook that feeds it. *)
let live_rollup specs =
  let class_of id = specs.(id).Session.Engine.server_class in
  let rollup = Rollup.create ~clock:Unix.gettimeofday ~class_of () in
  (rollup, Rollup.supervise rollup)

(* --stats: a live Rollup fed from the engine's supervision hook —
   fleet-level counters, histograms and sessions/sec with no trace
   retained.  "-" prints Prometheus text exposition to stdout at the
   end; a .prom path writes the same to a file; any other path gets a
   JSON snapshot rewritten atomically every --stats-every ticks (and at
   the end) for `goalcom top` to watch.  Returns the engine hooks and
   the step that writes the final stats. *)
let live_stats sv specs =
  match sv.stats with
  | None -> (None, None, ignore)
  | Some path ->
      let rollup, on_supervise = live_rollup specs in
      let prom = Filename.check_suffix path ".prom" in
      let on_tick ~tick =
        if path <> "-" && (not prom) && sv.stats_every > 0
           && tick mod sv.stats_every = 0
        then write_atomic path (Rollup.to_json (Rollup.snapshot rollup))
      in
      let finish () =
        let snap = Rollup.snapshot rollup in
        if path = "-" then print_string (Rollup.to_prometheus snap)
        else begin
          write_atomic path
            (if prom then Rollup.to_prometheus snap else Rollup.to_json snap);
          Table.print (Rollup.table snap);
          Printf.printf "stats          -> %s\n" path
        end
      in
      (Some on_supervise, Some on_tick, finish)

(* After a run: the report, the stats, and the warm store rewritten
   with the winners this run proved. *)
let finish sv ~warm ~stats_finish (r : Session.Engine.report) =
  let n = Array.length r.outcomes in
  let pct k = 100.0 *. float_of_int k /. float_of_int (max 1 n) in
  Printf.printf "sessions       %d\n" n;
  Printf.printf "ticks          %d\n" r.ticks;
  Printf.printf "completed      %d (%.1f%%)\n" r.completed (pct r.completed);
  Printf.printf "shed           %d (%.1f%%)\n" r.shed (pct r.shed);
  Printf.printf "gave up        %d\n" r.gave_up;
  Printf.printf "deadlines      %d\n" r.deadlines;
  Printf.printf "unfinished     %d\n" r.unfinished;
  Printf.printf "restarts       %d\n" r.restarts;
  Printf.printf "breaker trips  %d\n" r.trips;
  Printf.printf "total rounds   %d\n" r.total_rounds;
  Printf.printf "p50 rounds     %.0f\n" r.p50_rounds;
  Printf.printf "p99 rounds     %.0f\n" r.p99_rounds;
  Printf.printf "p999 rounds    %.0f\n" r.p999_rounds;
  Printf.printf "digest         %s\n" r.digest;
  stats_finish ();
  match (sv.mix, sv.warm) with
  | _, None -> ()
  | `E18, Some path ->
      let entries = E18_chaos_matrix.warm_entries ?warm r in
      Warm.save path entries;
      Printf.printf "warm store     %d entries -> %s\n" (List.length entries)
        path
  | `Net, Some _ ->
      print_string "warm store     unchanged (the net mix records no classes)\n"

let serve_cmd =
  let quantum_arg =
    Arg.(value & opt positive 32
         & info [ "quantum" ] ~docv:"R"
             ~doc:"Rounds each running session advances per scheduler tick.")
  in
  let deadline_arg =
    Arg.(value & opt non_negative 0
         & info [ "deadline" ] ~docv:"T"
             ~doc:"Ticks from arrival before an unfinished session is \
                   abandoned (0 disables).")
  in
  let run sv quantum deadline =
    let quantum = match sv.mix with `Net -> 1 | `E18 -> quantum in
    let config = engine_config ~quantum ~deadline sv in
    let warm = warm_store sv in
    let specs, groups = population ?warm sv in
    let on_supervise, on_tick, stats_finish = live_stats sv specs in
    let report =
      Session.Engine.run ~config ~groups ?on_supervise ?on_tick ~specs
        ~seed:sv.seed ()
    in
    finish sv ~warm ~stats_finish report
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Serve a session population through the supervised concurrent \
             engine (no chaos): admission control, restart supervision, \
             per-class circuit breakers.")
    Term.(const run $ serving_term ~sessions:256 $ quantum_arg $ deadline_arg)

let chaos_run_cmd =
  let schedule_arg =
    Arg.(value & opt string "kill@2,4%5=0;crash:25@1..800%3=1"
         & info [ "schedule" ] ~docv:"SPEC"
             ~doc:"Chaos schedule: ';'-joined directives kill\\@T1,T2, \
                   crash:K\\@LO..HI, burst:P\\@LO..HI, blackout\\@LO..HI, \
                   fault:STACK, each optionally targeted %M=R (sessions \
                   with id mod M = R).")
  in
  let repeat_arg =
    Arg.(value & opt non_negative 1
         & info [ "repeat" ] ~docv:"K"
             ~doc:"Run the schedule $(docv) times and assert digest \
                   determinism across repeats (exit 1 on divergence).")
  in
  let check_arg =
    Arg.(value & flag
         & info [ "check" ]
             ~doc:"Record the merged trace, validate the standard trace \
                   invariants, and (with --repeat) assert the merged \
                   trace itself is identical across repeats.")
  in
  let trace_arg =
    Arg.(value & opt (some string) None
         & info [ "trace" ] ~docv:"FILE"
             ~doc:"Write the merged JSONL trace (per-session buffers in \
                   session-id order) to $(docv).")
  in
  let ring_arg =
    Arg.(value & opt (some positive) None
         & info [ "ring" ] ~docv:"N"
             ~doc:"Capture the merged trace through the binary ring-buffer \
                   sink retaining the last $(docv) events, instead of an \
                   unbounded in-memory buffer — the always-on production \
                   capture.  --trace then writes the drained tail; the \
                   invariant check of --check is skipped if the ring \
                   evicted events (a truncated prefix is not a run).")
  in
  let run sv schedule repeat check trace ring =
    let chaos = or_exit (Session.Chaos.of_string ~alphabet:6 schedule) in
    let config =
      engine_config
        ?quantum:(match sv.mix with `Net -> Some 1 | `E18 -> None)
        sv
    in
    let warm = warm_store sv in
    let specs, _ = population ?warm sv in
    let on_supervise, on_tick, stats_finish = live_stats sv specs in
    let capture = check || trace <> None || ring <> None in
    (* One run, with its merged trace when one is wanted and the number
       of events the ring evicted from it. *)
    let once ?on_supervise ?on_tick () =
      (* Rebuilt per run: net-mix groups close over mutable media whose
         cumulative slot counters would otherwise leak from one repeat
         into the next run's arbiter report details. *)
      let specs, groups = population ?warm sv in
      let go () =
        Session.Engine.run ~chaos ~config ~groups ?on_supervise ?on_tick
          ~specs ~seed:sv.seed ()
      in
      match ring with
      | _ when not capture -> (go (), None, 0)
      | Some capacity ->
          let r = Goalcom_obs.Ring.create ~capacity in
          (* The engine replays its merged stream from this domain, so
             the shard-bound fast path applies. *)
          let report = Trace.with_sink (Goalcom_obs.Ring.domain_sink r) go in
          (report, Some (Goalcom_obs.Ring.events r), Goalcom_obs.Ring.evicted r)
      | None ->
          let report, events = Goalcom_obs.Recorder.record go in
          (report, Some events, 0)
    in
    (* The rollup hooks feed only the first run: repeats exist to check
       determinism of the engine, not to double-count sessions. *)
    let first, events, evicted = once ?on_supervise ?on_tick () in
    finish sv ~warm ~stats_finish first;
    (match events with
    | None -> ()
    | Some evs ->
        if ring <> None then
          Printf.printf "ring           %d events retained, %d evicted\n"
            (List.length evs) evicted;
        Option.iter
          (fun path ->
            Goalcom_obs.Jsonl.with_file path (fun sink -> List.iter sink evs))
          trace;
        if check then
          if evicted > 0 then
            Printf.printf
              "trace          invariants skipped (ring evicted %d events)\n"
              evicted
          else begin
            match Trace.check Trace.standard evs with
            | Ok () ->
                Printf.printf
                  "trace ok       %d events, standard invariants hold\n"
                  (List.length evs)
            | Error msg -> die "trace invariant violated: %s" msg
          end);
    for k = 2 to repeat do
      let r, evs, _ = once () in
      if r.Session.Engine.digest <> first.Session.Engine.digest then
        die "repeat %d: digest diverged (%s vs %s)" k r.Session.Engine.digest
          first.Session.Engine.digest;
      if check && evs <> events then die "repeat %d: merged trace diverged" k;
      Printf.printf "repeat %d       digest identical%s\n" k
        (if check then ", merged trace identical" else "")
    done
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:"Run the session population under a chaos schedule and report \
             completion, shedding, restarts and breaker activity.")
    Term.(const run $ serving_term ~sessions:500 $ schedule_arg $ repeat_arg
          $ check_arg $ trace_arg $ ring_arg)

let chaos_matrix_cmd =
  let run sessions seed jobs =
    apply_jobs jobs;
    Option.iter
      (fun n -> Unix.putenv "GOALCOM_E18_SESSIONS" (string_of_int n))
      sessions;
    Table.print (E18_chaos_matrix.run ~seed)
  in
  let sessions_opt =
    Arg.(value & opt (some positive) None
         & info [ "sessions" ] ~docv:"N"
             ~doc:"Sessions per condition (default 2000, i.e. a \
                   10k-session matrix; equivalent to setting \
                   $(b,GOALCOM_E18_SESSIONS)).")
  in
  Cmd.v
    (Cmd.info "matrix"
       ~doc:"Run the full E18 chaos matrix (same output as `goalcom run \
             e18`).")
    Term.(const run $ sessions_opt $ seed_arg $ jobs_arg)

let chaos_cmd =
  Cmd.group
    (Cmd.info "chaos"
       ~doc:"Deterministic chaos harness over the supervised session \
             engine: fault schedules, kill schedules, determinism checks.")
    [ chaos_run_cmd; chaos_matrix_cmd ]

(* warm — record / show warm-start stores *)

let warm_record_cmd =
  (* 18 sessions cover every (family, dialect) key once: printing
     cycles 4 dialects on ids 0,3,6,9 and each maze family cycles 6 on
     its residue class. *)
  let run sessions out seed jobs =
    apply_jobs jobs;
    let specs = E18_chaos_matrix.specs ~sessions () in
    let report = Session.Engine.run ~specs ~seed () in
    let entries = E18_chaos_matrix.warm_entries report in
    Warm.save out entries;
    Printf.printf "ran %d cold sessions: %d completed, %d warm entries -> %s\n"
      sessions report.Session.Engine.completed (List.length entries) out
  in
  let out_arg =
    Arg.(required & opt (some string) None
         & info [ "out"; "o" ] ~docv:"FILE"
             ~doc:"Warm-start store to write (JSONL, overwritten).")
  in
  Cmd.v
    (Cmd.info "record"
       ~doc:"Run a small cold population of the standard session mix and \
             record every winning candidate index into a warm-start \
             store, so later `serve --warm` / `chaos run --warm` runs \
             probe the winners first.")
    Term.(const run $ sessions_arg ~default:18 $ out_arg $ seed_arg $ jobs_arg)

let warm_show_cmd =
  let run path =
    Table.print
      (Table.make ~title:path
         ~columns:[ "class"; "enumeration"; "index"; "budget" ]
         (List.map
            (fun (e : Warm.entry) ->
              [
                e.Warm.server_class; e.Warm.enum; string_of_int e.Warm.index;
                string_of_int e.Warm.budget;
              ])
            (or_exit (Warm.load path))))
  in
  Cmd.v
    (Cmd.info "show" ~doc:"Print a warm-start store as a table.")
    Term.(const run $ file_arg "Warm-start store to print.")

let warm_cmd =
  Cmd.group
    (Cmd.info "warm"
       ~doc:"Warm-start stores: persist known-good winning candidate \
             indices per session class, so repeated runs skip the \
             enumeration ladder.")
    [ warm_record_cmd; warm_show_cmd ]

(* trace-golden *)

let trace_golden_cmd =
  let dir_arg =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"DIR"
             ~doc:"Directory to write the <case>.jsonl files into \
                   (the test suite reads test/golden).")
  in
  let run dir =
    List.iter
      (fun (c : Trace_cases.case) ->
        let path = Filename.concat dir (c.Trace_cases.name ^ ".jsonl") in
        let events = c.Trace_cases.events () in
        Goalcom_obs.Jsonl.to_file path events;
        Printf.printf "wrote %s (%d events)\n" path (List.length events))
      Trace_cases.all;
    let stats_path = Filename.concat dir "stats_e18_chaos.json" in
    write_file stats_path (Trace_cases.rollup_stats () ^ "\n");
    Printf.printf "wrote %s\n" stats_path
  in
  Cmd.v
    (Cmd.info "trace-golden"
       ~doc:"Regenerate the golden trace files the test suite diffs against.")
    Term.(const run $ dir_arg)

(* trace — analytics over recorded JSONL trace files *)

let load_trace path = or_exit (Goalcom_obs.Jsonl.of_file path)

module Span = Goalcom_obs.Span

let trace_stats_cmd =
  let run path =
    let events = load_trace path in
    let runs = Span.of_events events in
    let kinds = Hashtbl.create 16 in
    List.iter
      (fun ev ->
        let k = Goalcom_obs.Trace_diff.kind_name ev in
        Hashtbl.replace kinds k (1 + Option.value ~default:0 (Hashtbl.find_opt kinds k)))
      events;
    Printf.printf "%s: %d events, %d runs\n" path (List.length events)
      (List.length runs);
    let kind_rows =
      Hashtbl.fold (fun k n acc -> (k, n) :: acc) kinds []
      |> List.sort (fun (_, a) (_, b) -> compare (b : int) a)
      |> List.map (fun (k, n) -> [ k; string_of_int n ])
    in
    Table.print (Table.make ~title:"events" ~columns:[ "kind"; "count" ] kind_rows);
    Table.print (Span.runs_table runs)
  in
  Cmd.v
    (Cmd.info "stats" ~doc:"Event counts and per-run summary of a trace file.")
    Term.(const run $ file_arg "JSONL trace file to summarize.")

and trace_attribution_cmd =
  let run path csv =
    let events = load_trace path in
    let runs = Span.of_events events in
    if csv then print_string (Table.to_csv (Span.ledger_table (Span.ledger runs)))
    else begin
      Table.print (Span.runs_table runs);
      Table.print (Span.ledger_table (Span.ledger runs))
    end
  in
  Cmd.v
    (Cmd.info "attribution"
       ~doc:"Charge every round, message, sensing verdict and fault to the \
             enumerated candidate in charge; report the overhead ledger.")
    Term.(const run $ file_arg "JSONL trace file to attribute."
          $ csv_arg "Emit CSV instead of tables.")

and trace_diff_cmd =
  let run left right =
    let module Td = Goalcom_obs.Trace_diff in
    let llines = Goalcom_obs.Jsonl.read_lines left in
    let rlines = Goalcom_obs.Jsonl.read_lines right in
    match Td.lines llines rlines with
    | None ->
        Printf.printf "traces identical (%d events)\n" (List.length llines)
    | Some d ->
        print_endline
          (Td.to_string ~left_label:(Filename.basename left)
             ~right_label:(Filename.basename right) d);
        exit 1
  in
  Cmd.v
    (Cmd.info "diff"
       ~doc:"First divergence between two trace files (exit 1 if they \
             differ, with an event-kind-aware explanation).")
    Term.(const run $ file_arg ~docv:"LEFT" "First trace file."
          $ file_arg ~at:1 ~docv:"RIGHT" "Second trace file.")

and trace_export_cmd =
  let format_arg =
    Arg.(value
         & opt (enum [ ("chrome", `Chrome); ("csv", `Csv) ]) `Chrome
         & info [ "format" ] ~docv:"FMT"
             ~doc:"chrome (trace-event JSON for chrome://tracing / Perfetto) \
                   or csv (one row per attributed span).")
  in
  let out_arg =
    Arg.(value & opt (some string) None
         & info [ "o"; "output" ] ~docv:"OUT"
             ~doc:"Write to $(docv) instead of stdout.")
  in
  let run path format out =
    let events = load_trace path in
    let rendered =
      match format with
      | `Chrome -> Goalcom_obs.Profile.chrome_of_events events
      | `Csv -> Goalcom_obs.Profile.csv_of_events events
    in
    match out with
    | None -> print_string rendered
    | Some out_path ->
        write_file out_path rendered;
        Printf.printf "wrote %s (%d bytes)\n" out_path (String.length rendered)
  in
  Cmd.v
    (Cmd.info "export"
       ~doc:"Render a trace's attributed spans as a Chrome trace-event \
             profile (round numbers as logical time) or as CSV.")
    Term.(const run $ file_arg "JSONL trace file to export." $ format_arg
          $ out_arg)

and trace_sessions_cmd =
  let run path =
    let events = load_trace path in
    match Span.sessions_of_events events with
    | [] ->
        Printf.printf
          "%s: no Supervise events — not an engine trace (try `goalcom \
           trace attribution`)\n"
          path
    | sessions -> Table.print (Span.sessions_table sessions)
  in
  Cmd.v
    (Cmd.info "sessions"
       ~doc:"Per-session supervise attribution of an engine trace: one row \
             per session with its incarnations, restarts, kills, the \
             enumeration indices each restart resumed at, and the winning \
             candidate.")
    Term.(const run
          $ file_arg "JSONL engine trace (from `serve`/`chaos run --trace`).")

let trace_cmd =
  Cmd.group
    (Cmd.info "trace"
       ~doc:"Analytics over JSONL execution traces: stats, overhead \
             attribution, per-session supervision, structural diffing, \
             profile export.")
    [
      trace_stats_cmd; trace_attribution_cmd; trace_sessions_cmd;
      trace_diff_cmd; trace_export_cmd;
    ]

(* top — live fleet stats, htop-style *)

let top_cmd =
  let stats_file_arg =
    Arg.(value & opt (some string) None
         & info [ "stats" ] ~docv:"FILE"
             ~doc:"Watch the JSON snapshot file a concurrent `serve --stats \
                   FILE` (or `chaos run --stats FILE`) keeps rewriting, \
                   instead of serving an internal population.")
  in
  let interval_arg =
    Arg.(value & opt float 2.0
         & info [ "interval" ] ~docv:"SECONDS"
             ~doc:"Seconds between redraws when watching a --stats file.")
  in
  let refresh_arg =
    Arg.(value & opt non_negative 20
         & info [ "refresh-ticks" ] ~docv:"T"
             ~doc:"Scheduler ticks between redraws when serving the \
                   internal population.")
  in
  let once_arg =
    Arg.(value & flag
         & info [ "once" ] ~doc:"Render a single frame and exit (no ANSI \
                                 clearing; smoke tests and pipelines).")
  in
  let draw ~clear snap =
    if clear then print_string "\027[H\027[2J";
    Table.print (Rollup.table snap);
    flush stdout
  in
  let run stats sessions interval refresh once seed jobs =
    match stats with
    | Some path ->
        let frame () =
          Result.bind (Goalcom_obs.Json.of_file path) Rollup.snapshot_of_json
        in
        if once then draw ~clear:false (or_exit (frame ()))
        else
          while true do
            (match frame () with
            | Ok snap -> draw ~clear:true snap
            | Error e ->
                print_string "\027[H\027[2J";
                Printf.printf "goalcom top: waiting for %s (%s)\n%!" path e);
            Unix.sleepf interval
          done
    | None ->
        apply_jobs jobs;
        let specs = E18_chaos_matrix.specs ~sessions () in
        let rollup, on_supervise = live_rollup specs in
        let on_tick ~tick =
          if (not once) && refresh > 0 && tick mod refresh = 0 then
            draw ~clear:true (Rollup.snapshot rollup)
        in
        let report =
          Session.Engine.run
            ~config:(Session.Engine.config ~max_live:64 ())
            ~on_supervise ~on_tick ~specs ~seed ()
        in
        draw ~clear:(not once) (Rollup.snapshot rollup);
        Printf.printf "completed %d/%d, digest %s\n"
          report.Session.Engine.completed (Array.length specs)
          report.Session.Engine.digest
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:"Live fleet stats, htop-style: an in-place session rollup \
             table (per-class counters, rounds and latency percentiles, \
             sessions/sec).  With --stats FILE it watches a running \
             serve/chaos; without, it serves an internal population and \
             redraws as it runs.")
    Term.(const run $ stats_file_arg $ sessions_arg ~default:120
          $ interval_arg $ refresh_arg $ once_arg $ seed_arg $ jobs_arg)

let () =
  let info =
    Cmd.info "goalcom" ~version:"1.0.0"
      ~doc:"A theory of goal-oriented communication, executable (PODC 2011)."
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            list_cmd; run_cmd; all_cmd; demo_cmd; check_cmd; transcript_cmd;
            serve_cmd; chaos_cmd; warm_cmd; top_cmd; trace_golden_cmd;
            trace_cmd;
          ]))
