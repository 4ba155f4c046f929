(* Tests for the maze goal and the Grid substrate. *)

open Goalcom
open Goalcom_prelude
open Goalcom_automata
open Goalcom_goals

let alphabet = 5
let dialects = Dialect.enumerate_rotations ~size:alphabet
let dialect i = Enum.get_exn dialects i

let open_scenario =
  Maze.scenario ~width:6 ~height:6 ~start:(0, 0) ~target:(4, 3) ()

let walled_scenario =
  Maze.scenario
    ~blocked:[ (1, 0); (1, 1); (1, 2); (1, 3); (1, 4); (3, 5); (3, 4); (3, 3) ]
    ~width:6 ~height:6 ~start:(0, 0) ~target:(5, 5) ()

let run ~user ~server ~scenario ?(horizon = 400) seed =
  let goal = Maze.goal ~scenarios:[ scenario ] ~alphabet () in
  Exec.run_outcome
    ~config:(Exec.config ~horizon ())
    ~goal ~user ~server (Rng.make seed)

(* Grid substrate *)

let test_grid_moves () =
  let g = Grid.make ~width:3 ~height:3 ~blocked:[ (1, 1) ] () in
  Alcotest.(check (pair int int)) "east" (1, 0) (Grid.move g (0, 0) Grid.east);
  Alcotest.(check (pair int int)) "blocked" (1, 0) (Grid.move g (1, 0) Grid.south);
  Alcotest.(check (pair int int)) "wall" (0, 0) (Grid.move g (0, 0) Grid.west);
  Alcotest.(check (pair int int)) "north wall" (0, 0) (Grid.move g (0, 0) Grid.north)

let test_grid_bfs_open () =
  let g = Grid.make ~width:5 ~height:5 () in
  match Grid.bfs_path g (0, 0) (4, 4) with
  | None -> Alcotest.fail "path expected"
  | Some path ->
      Alcotest.(check int) "shortest length" 8 (List.length path);
      let final = List.fold_left (Grid.move g) (0, 0) path in
      Alcotest.(check (pair int int)) "arrives" (4, 4) final

let test_grid_bfs_walls () =
  let g = walled_scenario.Maze.grid in
  match Grid.bfs_path g (0, 0) (5, 5) with
  | None -> Alcotest.fail "path expected"
  | Some path ->
      let final = List.fold_left (Grid.move g) (0, 0) path in
      Alcotest.(check (pair int int)) "arrives" (5, 5) final;
      Alcotest.(check bool) "detour is longer than manhattan" true
        (List.length path > Grid.manhattan (0, 0) (5, 5))

let test_grid_bfs_unreachable () =
  let g =
    Grid.make ~width:3 ~height:3 ~blocked:[ (1, 0); (1, 1); (1, 2) ] ()
  in
  Alcotest.(check (option (list int)))
    "unreachable" None
    (Grid.bfs_path g (0, 0) (2, 0))

let test_grid_validation () =
  Alcotest.check_raises "bad dims"
    (Invalid_argument "Grid.make: non-positive dimensions") (fun () ->
      ignore (Grid.make ~width:0 ~height:3 ()));
  Alcotest.check_raises "oob wall"
    (Invalid_argument "Grid.make: blocked cell out of bounds") (fun () ->
      ignore (Grid.make ~width:2 ~height:2 ~blocked:[ (5, 5) ] ()));
  Alcotest.check_raises "negative wall"
    (Invalid_argument "Grid.make: blocked cell out of bounds") (fun () ->
      ignore (Grid.make ~width:2 ~height:2 ~blocked:[ (0, -1) ] ()))

(* The bitmap answers exactly what the blocked list says, on and off
   the grid (negative and past-the-edge coordinates included). *)
let prop_is_free_bitmap =
  QCheck.Test.make ~count:200 ~name:"Grid: bitmap is_free = list definition"
    Grid_gen.grid (fun g ->
      List.for_all
        (fun x ->
          List.for_all
            (fun y ->
              let p = (x, y) in
              Grid.is_free g p
              = (Grid.in_bounds g p && not (List.mem p g.Grid.blocked)))
            (Listx.range (-2) (g.Grid.height + 2)))
        (Listx.range (-2) (g.Grid.width + 2)))

(* Maze goal *)

let test_informed_reaches_target () =
  List.iter
    (fun scenario ->
      let user = Maze.informed_user ~alphabet ~scenario (dialect 0) in
      let server = Maze.server ~alphabet (dialect 0) in
      let outcome, _ = run ~user ~server ~scenario 5 in
      Alcotest.(check bool) "achieved" true outcome.Outcome.achieved)
    [ open_scenario; walled_scenario ]

let test_informed_all_dialects () =
  List.iter
    (fun i ->
      let user = Maze.informed_user ~alphabet ~scenario:open_scenario (dialect i) in
      let server = Maze.server ~alphabet (dialect i) in
      let outcome, _ = run ~user ~server ~scenario:open_scenario (50 + i) in
      Alcotest.(check bool)
        (Printf.sprintf "dialect %d" i)
        true outcome.Outcome.achieved)
    (Listx.range 0 alphabet)

let test_mismatch_fails () =
  let user = Maze.informed_user ~alphabet ~scenario:open_scenario (dialect 2) in
  let server = Maze.server ~alphabet (dialect 0) in
  let outcome, _ = run ~user ~server ~scenario:open_scenario 9 in
  Alcotest.(check bool) "not achieved" false outcome.Outcome.achieved

let test_universal_all_dialects () =
  List.iter
    (fun i ->
      let user =
        Maze.universal_user ~alphabet ~scenario:open_scenario dialects
      in
      let server = Maze.server ~alphabet (dialect i) in
      let outcome, _ =
        run ~user ~server ~scenario:open_scenario ~horizon:4000 (77 + i)
      in
      Alcotest.(check bool)
        (Printf.sprintf "universal vs dialect %d" i)
        true outcome.Outcome.achieved)
    (Listx.range 0 alphabet)

let test_universal_walled () =
  let user =
    Maze.universal_user ~alphabet ~scenario:walled_scenario dialects
  in
  let server = Maze.server ~alphabet (dialect 3) in
  let outcome, _ = run ~user ~server ~scenario:walled_scenario ~horizon:8000 3 in
  Alcotest.(check bool) "achieved" true outcome.Outcome.achieved

let test_sensing_safe () =
  let goal = Maze.goal ~scenarios:[ open_scenario ] ~alphabet () in
  let users =
    Enum.to_list (Maze.user_class ~alphabet ~scenario:open_scenario dialects)
  in
  let servers = Enum.to_list (Maze.server_class ~alphabet dialects) in
  let report =
    Sensing.check_safety_finite ~goal ~users ~servers Maze.sensing (Rng.make 4)
  in
  Alcotest.(check bool) "safety" true report.Sensing.holds

let test_scenario_validation () =
  Alcotest.check_raises "unreachable"
    (Invalid_argument "Maze.scenario: target unreachable") (fun () ->
      ignore
        (Maze.scenario
           ~blocked:[ (1, 0); (1, 1); (1, 2) ]
           ~width:3 ~height:3 ~start:(0, 0) ~target:(2, 2) ()))

(* Static scenario tables *)

(* E04's layout: an open 8x8 room. *)
let e04_scenario =
  Maze.scenario ~width:8 ~height:8 ~start:(0, 0) ~target:(5, 4) ()

let table_scenarios =
  [
    ("e18 corridor", Goalcom_harness.E18_chaos_matrix.corridor);
    ("e18 open room", Goalcom_harness.E18_chaos_matrix.open_room);
    ("e04 8x8", e04_scenario);
    ("open 6x6", open_scenario);
    ("walled 6x6", walled_scenario);
  ]

let free_cells (g : Grid.t) =
  List.concat_map
    (fun y ->
      List.filter_map
        (fun x -> if Grid.is_free g (x, y) then Some (x, y) else None)
        (Listx.range 0 g.width))
    (Listx.range 0 g.height)

let cell_name name (x, y) = Printf.sprintf "%s (%d,%d)" name x y

let test_route_table () =
  List.iter
    (fun (name, (s : Maze.scenario)) ->
      List.iter
        (fun c ->
          Alcotest.(check (option (list int)))
            (cell_name name c)
            (Grid.bfs_path s.grid c s.target)
            (Maze.route s c s.target))
        (free_cells s.grid))
    table_scenarios

(* Random grids: a scenario targeting a random free cell (start = target
   keeps it reachable); every free cell's route to the scenario target
   and to a second, non-scenario target equals a fresh BFS. *)
let prop_route_table =
  QCheck.Test.make ~count:200 ~name:"Maze: route table = Grid.bfs_path"
    QCheck.(pair Grid_gen.grid (int_bound 1_000_000))
    (fun (g, seed) ->
      let rng = Rng.make seed in
      let cells = Array.of_list (free_cells g) in
      let pick () = cells.(Rng.int rng (Array.length cells)) in
      let target = pick () and other = pick () in
      let s =
        Maze.scenario ~blocked:g.blocked ~width:g.width ~height:g.height
          ~start:target ~target ()
      in
      Array.for_all
        (fun c ->
          Maze.route s c target = Grid.bfs_path g c target
          && Maze.route s c other = Grid.bfs_path g c other)
        cells)

let test_route_fallback () =
  let s = walled_scenario in
  List.iter
    (fun c ->
      Alcotest.(check (option (list int)))
        (cell_name "non-scenario target" c)
        (Grid.bfs_path s.grid c (2, 0))
        (Maze.route s c (2, 0)))
    (free_cells s.grid);
  Alcotest.check_raises "blocked position"
    (Invalid_argument "Grid.bfs_path: bad source") (fun () ->
      ignore (Maze.route s (1, 0) s.target));
  Alcotest.check_raises "out-of-bounds position"
    (Invalid_argument "Grid.bfs_path: bad source") (fun () ->
      ignore (Maze.route s (-1, 0) s.target));
  Alcotest.check_raises "blocked target"
    (Invalid_argument "Grid.bfs_path: bad destination") (fun () ->
      ignore (Maze.route s (0, 0) (1, 0)))

(* Drive a world to every free cell along its BFS route: each round's
   act and the view afterwards are the cell's broadcast. *)
let test_world_broadcasts () =
  let msg = Alcotest.testable Msg.pp Msg.equal in
  List.iter
    (fun (name, (s : Maze.scenario)) ->
      List.iter
        (fun c ->
          let w = World.Instance.create (Maze.world_of_scenario s) in
          let rng = Rng.make 0 in
          Alcotest.check msg (cell_name name s.start ^ " initial view")
            (Codec.pos_pair s.start s.target) (World.Instance.view w);
          let path = Option.get (Grid.bfs_path s.grid s.start c) in
          let pos =
            List.fold_left
              (fun pos dir ->
                let pos = Grid.move s.grid pos dir in
                let act =
                  World.Instance.step rng w
                    { from_user = Msg.Silence; from_server = Msg.Sym dir }
                in
                let expect = Codec.pos_pair pos s.target in
                Alcotest.check msg (cell_name name pos ^ " act") expect
                  act.to_user;
                Alcotest.check msg (cell_name name pos ^ " act to server")
                  Msg.Silence act.to_server;
                Alcotest.check msg (cell_name name pos ^ " view") expect
                  (World.Instance.view w);
                pos)
              s.start path
          in
          Alcotest.(check (pair int int)) (cell_name name c) c pos)
        (free_cells s.grid))
    table_scenarios

(* The decode-based definition [arrived] replaced. *)
let arrived_by_decoding m =
  match Codec.pos_pair_opt m with
  | Some (pos, target) -> pos = target
  | None -> false

(* Messages of every constructor, nested, with small (negative
   included) ints so that equal coordinates are common, plus
   broadcast-shaped pairs. *)
let msg_gen =
  let open QCheck.Gen in
  let small = int_range (-2) 2 in
  let leaf =
    oneof
      [
        return Msg.Silence;
        map (fun s -> Msg.Sym s) small;
        map (fun i -> Msg.Int i) small;
        map (fun s -> Msg.Text s) (string_size ~gen:printable (int_bound 2));
      ]
  in
  let rec tree n =
    if n = 0 then leaf
    else
      frequency
        [
          (1, leaf);
          (3, map2 (fun a b -> Msg.Pair (a, b)) (tree (n - 1)) (tree (n - 1)));
          (1, map (fun l -> Msg.Seq l) (list_size (int_bound 2) (tree (n - 1))));
        ]
  in
  frequency
    [
      (2, int_bound 4 >>= tree);
      ( 1,
        map
          (fun (x, y, tx, ty) -> Codec.pos_pair (x, y) (tx, ty))
          (quad small small small small) );
    ]

let prop_arrived =
  QCheck.Test.make ~count:2000 ~name:"Maze: arrived = decode-based definition"
    (QCheck.make ~print:Msg.to_string msg_gen) (fun m ->
      Maze.arrived m = arrived_by_decoding m)

(* Allocation gate: a corridor-maze universal session whose server
   (identity dialect) speaks no candidate's dialect.  The candidates,
   rotations 4 and 5, turn every intended move into north, east, south
   or an inert padding symbol — never west — and the corridor's target
   is entered only from the east, so the session never ends and every
   round is Levin enumeration: fresh candidates planning from the
   broadcast.  At the dev profile the table-driven maze allocates 79
   words per round and per-candidate BFS replanning with fresh
   broadcasts 175; dropping any one of the route table (110), the
   broadcast table (119) or the pattern-matched arrival check (109)
   crosses the bound. *)
let alloc_rounds = 4_000
let alloc_words_per_round_max = 95.

let test_alloc_gate () =
  let alphabet = 6 in
  let scenario = Goalcom_harness.E18_chaos_matrix.corridor in
  let no_west =
    Enum.of_list ~name:"no-west"
      [ Dialect.rotation ~size:alphabet 4; Dialect.rotation ~size:alphabet 5 ]
  in
  let user =
    Universal.finite
      ~enum:(Maze.user_class ~alphabet ~scenario no_west)
      ~sensing:Maze.sensing ()
  in
  let server = Maze.server ~alphabet (Dialect.identity alphabet) in
  let goal = Maze.goal ~scenarios:[ scenario ] ~alphabet () in
  let st =
    Exec.Stepper.create
      ~config:(Exec.config ~horizon:(2 * alloc_rounds) ())
      ~goal ~user ~server (Rng.make 1)
  in
  let before = Gc.minor_words () in
  for _ = 1 to alloc_rounds do
    ignore (Exec.Stepper.step st)
  done;
  let per_round = (Gc.minor_words () -. before) /. float alloc_rounds in
  Alcotest.(check int) "never halts" alloc_rounds
    (Exec.Stepper.rounds_executed st);
  if per_round > alloc_words_per_round_max then
    Alcotest.failf "%.1f minor words/round > %.0f" per_round
      alloc_words_per_round_max

let () =
  Alcotest.run "maze"
    [
      ( "grid",
        [
          Alcotest.test_case "moves" `Quick test_grid_moves;
          Alcotest.test_case "bfs open" `Quick test_grid_bfs_open;
          Alcotest.test_case "bfs walls" `Quick test_grid_bfs_walls;
          Alcotest.test_case "bfs unreachable" `Quick test_grid_bfs_unreachable;
          Alcotest.test_case "validation" `Quick test_grid_validation;
          QCheck_alcotest.to_alcotest prop_is_free_bitmap;
        ] );
      ( "maze",
        [
          Alcotest.test_case "informed reaches target" `Quick test_informed_reaches_target;
          Alcotest.test_case "informed all dialects" `Quick test_informed_all_dialects;
          Alcotest.test_case "mismatch fails" `Quick test_mismatch_fails;
          Alcotest.test_case "universal all dialects" `Quick test_universal_all_dialects;
          Alcotest.test_case "universal walled maze" `Quick test_universal_walled;
          Alcotest.test_case "sensing safe" `Quick test_sensing_safe;
          Alcotest.test_case "scenario validation" `Quick test_scenario_validation;
        ] );
      ( "tables",
        [
          Alcotest.test_case "route table" `Quick test_route_table;
          QCheck_alcotest.to_alcotest prop_route_table;
          Alcotest.test_case "route fallback" `Quick test_route_fallback;
          Alcotest.test_case "world broadcasts" `Quick test_world_broadcasts;
          QCheck_alcotest.to_alcotest prop_arrived;
          Alcotest.test_case "allocation gate" `Quick test_alloc_gate;
        ] );
    ]
