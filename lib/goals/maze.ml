open Goalcom
open Goalcom_automata
open Goalcom_servers

let min_alphabet = Grid.num_directions

let check_alphabet alphabet =
  if alphabet < min_alphabet then
    invalid_arg "Maze: alphabet must have at least 4 symbols"

let driver ~alphabet =
  check_alphabet alphabet;
  Strategy.stateless ~name:"maze-driver" (fun (obs : Io.Server.obs) ->
      match obs.from_user with
      | Msg.Sym d when d >= 0 && d < Grid.num_directions ->
          Io.Server.say_world (Msg.Sym d)
      | _ -> Io.Server.silent)

let server ~alphabet d = Transform.with_dialect d (driver ~alphabet)

let server_class ~alphabet dialects =
  Transform.dialect_class ~base:(driver ~alphabet) dialects

(* Static per-scenario tables, indexed by cell [y * width + x]: the
   grid never changes, so every plan and every broadcast a session can
   need is computed once here and shared read-only by all worlds and
   users built from the scenario, across domains. *)
type tables = {
  routes : int list option array;
      (* [Grid.bfs_path grid cell target] for free cells, [None] for
         blocked ones (never read: {!route} checks [is_free] first) *)
  broadcasts : Msg.t array;  (* [Codec.pos_pair cell target] *)
  says : Io.World.act array;  (* [Io.World.say_user broadcasts.(cell)] *)
}

type scenario = {
  grid : Grid.t;
  start : Grid.pos;
  target : Grid.pos;
  tables : tables;
}

let cell (g : Grid.t) x y = (y * g.width) + x

let scenario ?blocked ~width ~height ~start ~target () =
  let grid = Grid.make ~width ~height ?blocked () in
  if not (Grid.is_free grid start) then invalid_arg "Maze.scenario: bad start";
  if not (Grid.is_free grid target) then invalid_arg "Maze.scenario: bad target";
  let pos_of i = (i mod width, i / width) in
  let routes =
    Array.init (width * height) (fun i ->
        let p = pos_of i in
        if Grid.is_free grid p then Grid.bfs_path grid p target else None)
  in
  (match routes.(cell grid (fst start) (snd start)) with
  | Some _ -> ()
  | None -> invalid_arg "Maze.scenario: target unreachable");
  let broadcasts =
    Array.init (width * height) (fun i -> Codec.pos_pair (pos_of i) target)
  in
  let says = Array.map Io.World.say_user broadcasts in
  { grid; start; target; tables = { routes; broadcasts; says } }

let route s ((x, y) as pos) ((tx, ty) as target) =
  let sx, sy = s.target in
  if tx = sx && ty = sy && Grid.is_free s.grid pos then
    s.tables.routes.(cell s.grid x y)
  else Grid.bfs_path s.grid pos target

(* World positions are always free cells (the start, then [Grid.move]
   results), so the broadcast tables cover every state. *)
let world_of_scenario s =
  World.make
    ~name:
      (Printf.sprintf "maze-world(%dx%d,%d walls)" s.grid.Grid.width
         s.grid.Grid.height
         (List.length s.grid.Grid.blocked))
    ~init:(fun () -> s.start)
    ~step:(fun _rng pos (obs : Io.World.obs) ->
      let pos =
        match obs.from_server with
        | Msg.Sym d when d >= 0 && d < Grid.num_directions ->
            Grid.move s.grid pos d
        | _ -> pos
      in
      let x, y = pos in
      (pos, s.tables.says.(cell s.grid x y)))
    ~view:(fun (x, y) -> s.tables.broadcasts.(cell s.grid x y))

let arrived = function
  | Msg.Pair (Msg.Pair (Msg.Int x, Msg.Int y), Msg.Pair (Msg.Int tx, Msg.Int ty))
    ->
      x = tx && y = ty
  | _ -> false

let referee = Referee.finite_exists "target-was-reached" arrived

let goal ~scenarios ~alphabet () =
  check_alphabet alphabet;
  if scenarios = [] then invalid_arg "Maze.goal: no scenarios";
  Goal.make
    ~name:(Printf.sprintf "maze(alphabet=%d)" alphabet)
    ~worlds:(List.map world_of_scenario scenarios)
    ~referee

(* The informed user plans a BFS path from the broadcast position and
   emits it one direction per round; when the plan is exhausted and the
   (lagging) broadcast still shows the agent away from the target it
   replans — which also recovers from moves garbled by earlier
   wrong-dialect sessions of a universal run. *)
type phase = Planless | Executing of int list | Settling of int

let settle_patience = 3

let informed_user ~alphabet ~scenario:s d =
  check_alphabet alphabet;
  let send dir = Io.User.say_server (Dialect_msg.encode d (Msg.Sym dir)) in
  Strategy.make
    ~name:(Printf.sprintf "maze-user@%s" (Format.asprintf "%a" Dialect.pp d))
    ~init:(fun () -> Planless)
    ~step:(fun _rng phase (obs : Io.User.obs) ->
      if arrived obs.from_world then (phase, Io.User.halt_act)
      else
        match phase with
        | Planless -> begin
            match Codec.pos_pair_opt obs.from_world with
            | None -> (Planless, Io.User.silent)
            | Some (pos, target) -> begin
                match route s pos target with
                | Some (dir :: rest) -> (Executing rest, send dir)
                | Some [] | None -> (Planless, Io.User.silent)
              end
          end
        | Executing (dir :: rest) -> (Executing rest, send dir)
        | Executing [] -> (Settling 0, Io.User.silent)
        | Settling k ->
            if k >= settle_patience then (Planless, Io.User.silent)
            else (Settling (k + 1), Io.User.silent))

let user_class ~alphabet ~scenario:s dialects =
  Enum.map
    ~name:(Printf.sprintf "maze-users(%s)" (Enum.name dialects))
    (fun d -> informed_user ~alphabet ~scenario:s d)
    dialects

(* Bounded-window scan: cheap per round, still safe (a positive means
   the target was reached) and viable (arrival is acted on within the
   window). *)
let sensing_window = 12

let sensing =
  Sensing.of_recent ~name:"target-reached" ~window:sensing_window (fun e ->
      arrived e.View.from_world)

let universal_user ?schedule ?stats ~alphabet ~scenario:s dialects =
  Universal.finite ?schedule ?stats
    ~enum:(user_class ~alphabet ~scenario:s dialects)
    ~sensing ()
