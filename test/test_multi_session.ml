(* Tests for multi-session goals: a finite goal repeated forever,
   judged by "all but finitely many sessions pass". *)

open Goalcom
open Goalcom_prelude
open Goalcom_automata
open Goalcom_goals

let alphabet = 4
let doc = [ 2; 5 ]
let session_length = 30
let dialects = Dialect.enumerate_rotations ~size:alphabet
let dialect i = Enum.get_exn dialects i

let base_goal = Printing.goal ~docs:[ doc ] ~alphabet ()
let ms_goal = Multi_session.goal ~session_length base_goal

let run ~user ~server ?(horizon = 3000) seed =
  Exec.run_outcome
    ~config:(Exec.config ~horizon ())
    ~goal:ms_goal ~user ~server (Rng.make seed)

let test_header_roundtrip () =
  let m =
    Msg.Pair (Msg.Pair (Msg.Int 3, Msg.Text "pass"), Msg.Int 7)
  in
  (match Multi_session.header_of_msg m with
  | Some (3, Multi_session.Pass, Msg.Int 7) -> ()
  | _ -> Alcotest.fail "header decode");
  Alcotest.(check bool) "garbage rejected" true
    (Multi_session.header_of_msg (Msg.Int 0) = None);
  Alcotest.(check string) "flag strings" "fail"
    (Multi_session.flag_to_string Multi_session.Fail)

let test_goal_validation () =
  Alcotest.check_raises "compact inner"
    (Invalid_argument "Multi_session.goal: inner goal must be finite")
    (fun () ->
      ignore (Multi_session.goal ~session_length:10 (Control.goal ~alphabet ())));
  Alcotest.check_raises "bad length"
    (Invalid_argument "Multi_session.goal: session_length must be positive")
    (fun () -> ignore (Multi_session.goal ~session_length:0 base_goal))

let test_informed_wrapped_passes_every_session () =
  let user = Multi_session.wrap_user (Printing.informed_user ~alphabet (dialect 0)) in
  let server = Printing.server ~alphabet (dialect 0) in
  let outcome, history = run ~user ~server 1 in
  Alcotest.(check bool) "achieved" true outcome.Outcome.achieved;
  let results = Multi_session.session_results history in
  Alcotest.(check bool) "many sessions" true (List.length results > 50);
  Alcotest.(check bool) "all pass" true (List.for_all Fun.id results)

let test_wrong_dialect_fails_every_session () =
  let user = Multi_session.wrap_user (Printing.informed_user ~alphabet (dialect 1)) in
  let server = Printing.server ~alphabet (dialect 0) in
  let outcome, history = run ~user ~server 2 in
  Alcotest.(check bool) "not achieved" false outcome.Outcome.achieved;
  let results = Multi_session.session_results history in
  Alcotest.(check bool) "no session passes" true
    (List.for_all not results)

let test_universal_converges () =
  List.iter
    (fun i ->
      let stats = Universal.new_stats () in
      let user =
        Universal.compact ~grace:1 ~stats
          ~enum:(Multi_session.wrap_class (Printing.user_class ~alphabet dialects))
          ~sensing:Multi_session.sensing ()
      in
      let server = Printing.server ~alphabet (dialect i) in
      let outcome, history = run ~user ~server ~horizon:6000 (10 + i) in
      let results = Multi_session.session_results history in
      let tail_ok =
        List.for_all Fun.id (Listx.drop (List.length results - 5) results)
      in
      Alcotest.(check bool)
        (Printf.sprintf "dialect %d achieved (switches=%d)" i stats.Universal.switches)
        true outcome.Outcome.achieved;
      Alcotest.(check bool)
        (Printf.sprintf "dialect %d: last sessions all pass" i)
        true tail_ok;
      if i > 0 then
        Alcotest.(check bool)
          (Printf.sprintf "dialect %d: some early session failed" i)
          true
          (List.exists not results))
    (Listx.range 0 alphabet)

let test_sensing_fires_once_per_failed_session () =
  (* A never-matching user: every session fails, and the sensing
     function reports exactly one negative per completed session. *)
  let user =
    Multi_session.wrap_user
      (Strategy.stateless ~name:"mute" (fun (_ : Io.User.obs) -> Io.User.silent))
  in
  let server = Printing.server ~alphabet (dialect 0) in
  (* +5 rounds so the last boundary's broadcast is still delivered and
     sensed within the horizon. *)
  let _, history = run ~user ~server ~horizon:((6 * session_length) + 5) 3 in
  let failed_sessions =
    Listx.count not (Multi_session.session_results history)
  in
  let negatives =
    Listx.count
      (fun (_, v) -> v = Sensing.Negative)
      (Sensing.verdicts Multi_session.sensing history)
  in
  Alcotest.(check bool) "some sessions completed" true (failed_sessions >= 4);
  Alcotest.(check int) "one negative per failed session" failed_sessions negatives

let test_session_results_of_empty_history () =
  let user = Multi_session.wrap_user (Printing.informed_user ~alphabet (dialect 0)) in
  let server = Printing.server ~alphabet (dialect 0) in
  let history =
    Exec.run
      ~config:(Exec.config ~horizon:(session_length / 2) ())
      ~goal:ms_goal ~user ~server (Rng.make 4)
  in
  Alcotest.(check (list bool)) "no completed sessions" []
    (Multi_session.session_results history)

(* --- the live-judge world vs the list-plus-decider world it replaced --- *)

(* The wrapped world as it was: it kept the running session's inner
   world views in a list and decided them all at the session boundary
   with a list predicate. *)
module Old = struct
  type state = {
    inner : World.Instance.t;
    round_in_session : int;
    completed : int;
    last : Multi_session.flag;
    session_views_rev : Msg.t list;
  }

  let header completed flag =
    Msg.Pair (Msg.Int completed, Msg.Text (Multi_session.flag_to_string flag))

  let wrap_world ~session_length ~decide base =
    World.make
      ~name:(World.name base ^ "/multi-session")
      ~init:(fun () ->
        let inner = World.Instance.create base in
        {
          inner;
          round_in_session = 0;
          completed = 0;
          last = Multi_session.No_session_yet;
          session_views_rev = [ World.Instance.view inner ];
        })
      ~step:(fun rng st (obs : Io.World.obs) ->
        let inner_act = World.Instance.step rng st.inner obs in
        let inner_view = World.Instance.view st.inner in
        let st =
          {
            st with
            round_in_session = st.round_in_session + 1;
            session_views_rev = inner_view :: st.session_views_rev;
          }
        in
        let st =
          if st.round_in_session < session_length then st
          else begin
            let passed = decide (List.rev st.session_views_rev) in
            let inner = World.Instance.create base in
            {
              inner;
              round_in_session = 0;
              completed = st.completed + 1;
              last = (if passed then Multi_session.Pass else Multi_session.Fail);
              session_views_rev = [ World.Instance.view inner ];
            }
          end
        in
        let act =
          {
            Io.World.to_user =
              Msg.Pair (header st.completed st.last, inner_act.Io.World.to_user);
            to_server = inner_act.Io.World.to_server;
          }
        in
        (st, act))
      ~view:(fun st ->
        Msg.Pair (header st.completed st.last, World.Instance.view st.inner))
end

(* An inner world whose view follows the user's numbers and the run's
   randomness, so sessions pass and fail in irregular patterns. *)
let drift_world =
  World.make ~name:"drift"
    ~init:(fun () -> 0)
    ~step:(fun rng n (obs : Io.World.obs) ->
      let n = match obs.from_user with Msg.Int k -> n + k | _ -> n in
      let n = n + Rng.int rng 3 - 1 in
      (n, Io.World.say_user (Msg.Int n)))
    ~view:(fun n -> Msg.Int n)

let drift_user =
  Strategy.stateless_random ~name:"drift" (fun rng (_ : Io.User.obs) ->
      Io.User.say_world (Msg.Int (Rng.int rng 5 - 2)))

let idle_server =
  Strategy.stateless ~name:"idle" (fun (_ : Io.Server.obs) -> Io.Server.silent)

(* Inner finite referees of three shapes, each with the list predicate
   the old world decided sessions with. *)
let inner_referee kind k =
  let p = function Msg.Int n -> (n + 64) mod (k + 2) = 0 | _ -> false in
  match kind with
  | 0 -> (Referee.finite_exists "seen" p, List.exists p)
  | 1 ->
      let decide views = Listx.count p views mod 2 = 0 in
      (Legacy.finite "parity" decide, decide)
  | _ ->
      let last v = ((), Referee.verdict_of_bool (p v)) in
      ( Referee.finite_incremental "last" ~init:last ~step:(fun () v -> last v),
        fun views -> p (Listx.last views) )

let prop_live_judge_eq_old_world =
  QCheck.Test.make ~count:200
    ~name:"live-judge world = list-plus-decider world"
    QCheck.(
      pair
        (triple (int_bound 2) (int_bound 4) (1 -- 8))
        (pair (1 -- 60) (int_bound 1_000_000)))
    (fun ((kind, k, session_length), (horizon, seed)) ->
      let referee, decide = inner_referee kind k in
      let base = Goal.make ~name:"drift" ~worlds:[ drift_world ] ~referee in
      let goal = Multi_session.goal ~session_length base in
      let old_goal =
        Goal.make ~name:"old"
          ~worlds:[ Old.wrap_world ~session_length ~decide drift_world ]
          ~referee:goal.Goal.referee
      in
      let run goal =
        Exec.run
          ~config:(Exec.config ~horizon ())
          ~goal ~user:drift_user ~server:idle_server (Rng.make seed)
      in
      let h = run goal and h_old = run old_goal in
      Multi_session.session_results h = Multi_session.session_results h_old
      && List.equal Msg.equal (History.world_views h) (History.world_views h_old)
      && Legacy.rounds h = Legacy.rounds h_old)

let () =
  Alcotest.run "multi_session"
    [
      ( "multi_session",
        [
          Alcotest.test_case "header roundtrip" `Quick test_header_roundtrip;
          Alcotest.test_case "validation" `Quick test_goal_validation;
          Alcotest.test_case "informed passes every session" `Quick
            test_informed_wrapped_passes_every_session;
          Alcotest.test_case "wrong dialect fails every session" `Quick
            test_wrong_dialect_fails_every_session;
          Alcotest.test_case "universal converges" `Quick test_universal_converges;
          Alcotest.test_case "one negative per failed session" `Quick
            test_sensing_fires_once_per_failed_session;
          Alcotest.test_case "no sessions yet" `Quick
            test_session_results_of_empty_history;
          QCheck_alcotest.to_alcotest prop_live_judge_eq_old_world;
        ] );
    ]
