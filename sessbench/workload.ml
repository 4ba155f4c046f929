(* The four benchmark workloads, built from a seed.

   Every input comes from the public generators (E18's session mix and
   chaos grammar, E19's net population) plus the seed, which the engine
   uses for every random draw: per-session party RNGs, fault coins,
   backoff jitter and the open-loop arrival process.  [build] is the
   set-up the benchmark times as [setup_s]. *)

open Goalcom
module Session = Goalcom_session
module Engine = Session.Engine
module E18 = Goalcom_harness.E18_chaos_matrix
module E19 = Goalcom_harness.E19_net_matrix
module Rollup = Goalcom_obs.Rollup
module Ring = Goalcom_obs.Ring

type kind = Storm | Surge | Net | Capture

let kinds = [ ("storm", Storm); ("surge", Surge); ("net", Net); ("capture", Capture) ]
let name kind = fst (List.find (fun (_, k) -> k = kind) kinds)

let population = function
  | Storm -> 10_000
  | Surge -> 12_000
  | Net -> 4_000
  | Capture -> 3_000

(* Storm's schedule and settings are BENCH_session.json's storm row, so
   seed 1 must reproduce that file's counts. *)
let storm_schedule = "kill@2,4%5=0;crash:25@1..800%3=1;burst:0.25@1..150%7=2"

let storm_config =
  Engine.config ~quantum:32 ~max_live:256 ~queue_capacity:1_000_000
    ~round_budget:2_000 ~max_ticks:200_000 ()

(* Storm's schedule with a quarter of its slots: the full-load phase then
   covers most ticks, so the tick-time distribution has one mode instead
   of a load mode and a drain mode with its median between them. *)
let capture_config = { storm_config with Engine.max_live = 64 }

(* Open-loop bursts into a small waiting room: admission draws, promotes
   and sheds every tick while most of the population is still pending.
   The regimes hop every other tick on average and the mean rate is
   well past what 256 slots serve, so about 30% is shed at every seed;
   near the critical load the shed share swings with the seed. *)
let surge_config =
  let arrivals =
    match Session.Arrival.of_string "mmpp:40,140:0.5" with
    | Ok a -> a
    | Error e -> invalid_arg e
  in
  Engine.config ~quantum:32 ~max_live:256 ~queue_capacity:512 ~arrivals
    ~classes:[ ("printing", 3); ("maze-corridor", 1) ]
    ~max_ticks:200_000 ()

(* [goalcom serve --mix net]: quantum 1 makes a tick one medium slot. *)
let net_config =
  Engine.config ~quantum:1 ~max_live:256 ~queue_capacity:1_000_000 ()

(* Stations in shared-medium groups of four (E19 groups them). *)
let net_mac_users = 64

(* Events the capture ring keeps per domain; the rest are evicted. *)
let ring_capacity = 1 lsl 16

(* A regression planted into every session's user, for the benchmark's
   self-test: the bound check must reject each one. *)
type plant =
  | No_plant
  | Alloc  (** allocates extra words every round *)
  | Linger  (** stays on, silent, for extra rounds before it halts *)
  | Sabotage  (** every 4th session's user halts at once, goal unmet *)

let plants =
  [ ("none", No_plant); ("alloc", Alloc); ("linger", Linger); ("sabotage", Sabotage) ]

let linger_rounds = 64

let planted plant id (user : Strategy.user) : Strategy.user =
  let module I = Strategy.Instance in
  (* [after] counts the rounds since the wrapped user asked to halt. *)
  let wrap step =
    Strategy.make ~name:(Strategy.name user)
      ~init:(fun () -> (I.create user, ref 0))
      ~step:(fun rng ((inst, after) as st) obs -> (st, step rng inst after obs))
  in
  match plant with
  | No_plant -> user
  | Alloc ->
      wrap (fun rng inst _ obs ->
          ignore (Sys.opaque_identity (Array.make 64 0));
          I.step rng inst obs)
  | Linger ->
      wrap (fun rng inst after obs ->
          if !after > 0 then begin
            incr after;
            if !after > linger_rounds then Io.User.halt_act else Io.User.silent
          end
          else
            let act = I.step rng inst obs in
            if act.Io.User.halt then begin
              after := 1;
              { act with halt = false }
            end
            else act)
  | Sabotage when id mod 4 = 0 -> wrap (fun _ _ _ _ -> Io.User.halt_act)
  | Sabotage -> user

type t = {
  kind : kind;
  seed : int;
  plant : plant;
  chaos : Session.Chaos.t;
  config : Engine.config;
  specs : Engine.spec array;
  groups : Engine.group list;
  rollup : Rollup.t option;  (** fed live through [on_supervise] *)
  ring : Ring.t option;  (** ambient sink for the whole run *)
}

let build ?(plant = No_plant) kind ~seed =
  let n = population kind in
  let specs, groups =
    match kind with
    | Net -> E19.population ~mac_users:net_mac_users ~sessions:n ()
    | Storm | Surge | Capture -> (E18.specs ~sessions:n (), [])
  in
  let specs =
    if plant = No_plant then specs
    else
      Array.mapi
        (fun id (s : Engine.spec) ->
          {
            s with
            make_user = (fun ~checkpoint -> planted plant id (s.make_user ~checkpoint));
          })
        specs
  in
  let chaos, config =
    match kind with
    | Storm -> (E18.chaos_of storm_schedule, storm_config)
    | Capture -> (E18.chaos_of storm_schedule, capture_config)
    | Surge -> (Session.Chaos.none, surge_config)
    | Net -> (Session.Chaos.none, net_config)
  in
  let rollup =
    match kind with
    | Surge | Capture ->
        Some (Rollup.create ~class_of:(fun id -> specs.(id).Engine.server_class) ())
    | Storm | Net -> None
  in
  let ring =
    match kind with Capture -> Some (Ring.create ~capacity:ring_capacity) | _ -> None
  in
  { kind; seed; plant; chaos; config; specs; groups; rollup; ring }

(* The workload's own supervise hook: the live rollup, when it has one. *)
let supervise w =
  match w.rollup with
  | Some r -> Some (Rollup.supervise r)
  | None -> None

let run ?(jobs = 1) ?on_tick ?on_supervise ?(groups = fun g -> g) ?specs w =
  let specs = Option.value specs ~default:w.specs in
  let go () =
    Engine.run ~chaos:w.chaos ~config:w.config ~jobs ~groups:(groups w.groups)
      ?on_supervise ?on_tick ~specs ~seed:w.seed ()
  in
  match w.ring with
  | Some r -> Trace.with_sink (Ring.domain_sink r) go
  | None -> go ()
