(* The xor toy goal shared by test_machine_user and test_warm.

   Each round the world announces a bit; the user must answer with that
   bit XOR a secret b (the world's "convention").  The world broadcasts
   Int 2 forever once it has seen 6 consecutive correct answers.  Users
   are machines over input alphabet {announced 0, announced 1, done}
   and output alphabet {0,1}, read and written through [read] and
   [write]. *)

open Goalcom

let streak_needed = 6

(* The world compares the user's reply (arriving two rounds after the
   announcement it answers) against announcement XOR b; it tracks the
   round parity itself, so the comparison is exact, not heuristic. *)
let xor_world b =
  World.make
    ~name:(Printf.sprintf "xor-world(b=%d)" b)
    ~init:(fun () -> (0, 0, false))
    ~step:(fun _rng (round, streak, done_) (obs : Io.World.obs) ->
      let round = round + 1 in
      let expected = (round + b) mod 2 in
      let streak =
        match obs.from_user with
        | Msg.Sym s when s = expected -> streak + 1
        | Msg.Sym _ -> 0
        | _ -> streak (* silence doesn't reset: the user may be idle *)
      in
      let done_ = done_ || streak >= streak_needed in
      let announce = if done_ then 2 else round mod 2 in
      ((round, streak, done_), Io.World.say_user (Msg.Int announce)))
    ~view:(fun (_, _, done_) -> Msg.Int (if done_ then 2 else 0))

let xor_goal b =
  Goal.make
    ~name:(Printf.sprintf "xor(b=%d)" b)
    ~worlds:[ xor_world b ]
    ~referee:(Referee.finite_exists "converged" (Msg.equal (Msg.Int 2)))

let idle_server =
  Strategy.stateless ~name:"idle" (fun (_ : Io.Server.obs) -> Io.Server.silent)

let read = Machine_user.read_world_int ~cap:3
let write = Machine_user.write_world_sym

let sensing =
  Sensing.of_latest ~name:"done" ~empty:false (fun e ->
      e.View.from_world = Msg.Int 2)
