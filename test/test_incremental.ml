(* Equivalence suite for the incremental referee/sensing engine.

   The O(n) folds ([Referee.violations], [Sensing.verdicts]) replaced a
   quadratic prefix re-evaluation; the refactor's contract is that they
   agree with the legacy evaluation prefix for prefix, on arbitrary
   histories.  The oracles live in the test-side [Legacy] module: the
   list-predicate referees and their quadratic prefix judges, and each
   sensor's whole-view function applied to every [Legacy.View.prefixes]
   element, plus [Legacy.sensing]-based reference twins of the library
   constructors. *)

open Goalcom
open Goalcom_prelude

let count = 80

(* --- random histories --- *)

let msg_gen =
  QCheck.Gen.(
    oneof
      [
        return Msg.Silence;
        map (fun n -> Msg.Sym n) (int_bound 4);
        map (fun n -> Msg.Int (n - 8)) (int_bound 16);
        map (fun s -> Msg.Text s) (oneofl [ "a"; "bb"; "solved"; "err" ]);
        map2
          (fun a b -> Msg.Pair (Msg.Int a, Msg.Sym b))
          (int_bound 4) (int_bound 3);
      ])

let round_of_msgs index halted = function
  | [ a; b; c; d; e; f; g ] ->
      {
        History.Round.index;
        user_to_server = a;
        user_to_world = b;
        server_to_user = c;
        server_to_world = d;
        world_to_user = e;
        world_to_server = f;
        world_view = g;
        user_halted = halted;
      }
  | _ -> assert false

(* Histories of 0..28 rounds with arbitrary channel contents, sometimes
   with a halted tail (as Exec.run's drain rounds produce). *)
let history_gen =
  QCheck.Gen.(
    int_bound 28 >>= fun n ->
    int_bound (n + 1) >>= fun halt_at ->
    list_repeat n (list_repeat 7 msg_gen) >>= fun rows ->
    msg_gen >|= fun v0 ->
    let rounds =
      List.mapi (fun i row -> round_of_msgs (i + 1) (i + 1 > halt_at) row) rows
    in
    History.make ~initial_world_view:v0 rounds)

let k_gen = QCheck.Gen.int_bound 3

(* A small family of message predicates indexed by [k], covering every
   constructor. *)
let view_pred k (m : Msg.t) =
  match m with
  | Msg.Silence -> true
  | Msg.Sym s -> s <> k
  | Msg.Int n -> (n + 16) mod (k + 2) <> 0
  | Msg.Text t -> String.length t <> k + 1
  | Msg.Pair (Msg.Int a, _) -> a <> k
  | Msg.Pair _ -> k mod 2 = 0
  | Msg.Seq _ -> k mod 3 <> 0

let hk_arb = QCheck.make QCheck.Gen.(pair history_gen k_gen)

(* --- referees: incremental folds vs the quadratic prefix oracle --- *)

(* Legacy list-predicate referee with a genuinely prefix-dependent
   predicate (a count over the whole most-recent-first list): its fold
   adapter must reproduce the one-predicate-call-per-prefix results
   exactly. *)
let prop_compact_legacy_fold_eq_prefix =
  QCheck.Test.make ~count
    ~name:"Referee: legacy compact fold = prefix oracle (list predicate)"
    hk_arb
    (fun (h, k) ->
      let acceptable views =
        Listx.count (fun v -> not (view_pred k v)) views <= k
      in
      let r = Legacy.compact "legacy-count" acceptable in
      Referee.violations r h = Legacy.compact_violations acceptable h)

(* Native incremental referee vs its legacy twin: stateless head check. *)
let prop_incr_stateless_eq_legacy =
  QCheck.Test.make ~count
    ~name:"Referee: incremental (stateless) = legacy twin" hk_arb
    (fun (h, k) ->
      let incr =
        Referee.compact_incremental "incr-head"
          ~init:(fun _v0 -> ((), `Ok))
          ~step:(fun () v -> ((), Referee.verdict_of_bool (view_pred k v)))
      in
      let head = function v :: _ -> view_pred k v | [] -> true in
      let legacy = Legacy.compact "legacy-head" head in
      let vs = Referee.violations incr h in
      vs = Referee.violations legacy h
      && vs = Legacy.compact_violations head h
      && vs = Legacy.violations_prefix incr h)

(* Native incremental referee vs its legacy twin: stateful count over
   the whole prefix (including the initial world view). *)
let prop_incr_stateful_eq_legacy =
  QCheck.Test.make ~count
    ~name:"Referee: incremental (stateful) = legacy twin" hk_arb
    (fun (h, k) ->
      let bad v = not (view_pred k v) in
      let incr =
        Referee.compact_incremental "incr-count"
          ~init:(fun v0 -> ((if bad v0 then 1 else 0), `Ok))
          ~step:(fun c v ->
            let c = if bad v then c + 1 else c in
            (c, Referee.verdict_of_bool (c <= k)))
      in
      let acceptable views = Listx.count bad views <= k in
      let legacy = Legacy.compact "legacy-count" acceptable in
      let vs = Referee.violations incr h in
      vs = Referee.violations legacy h
      && vs = Legacy.compact_violations acceptable h)

(* Violation lists are sorted round indices within 1..length. *)
let prop_violations_sorted_bounded =
  QCheck.Test.make ~count ~name:"Referee: violations sorted and in range"
    hk_arb
    (fun (h, k) ->
      let incr =
        Referee.compact_incremental "incr-head"
          ~init:(fun _v0 -> ((), `Ok))
          ~step:(fun () v -> ((), Referee.verdict_of_bool (view_pred k v)))
      in
      let vs = Referee.violations incr h in
      List.for_all (fun r -> r >= 1 && r <= History.length h) vs
      && List.sort compare vs = vs)

(* finite_exists = List.exists over the world views, and agrees with a
   legacy list-predicate twin. *)
let prop_finite_exists_eq_list_exists =
  QCheck.Test.make ~count ~name:"Referee: finite_exists = List.exists"
    hk_arb
    (fun (h, k) ->
      let p v = not (view_pred k v) in
      let incr = Referee.finite_exists "seen-bad" p in
      let legacy = Legacy.finite "seen-bad-legacy" (List.exists p) in
      let expected = List.exists p (History.world_views h) in
      Referee.decide_finite incr h = expected
      && Referee.decide_finite legacy h = expected
      && Referee.violations incr h
         = (if expected then [] else [ History.length h ]))

(* Stateful finite_incremental vs its list-predicate twin. *)
let prop_finite_incremental_eq_legacy =
  QCheck.Test.make ~count
    ~name:"Referee: finite_incremental (stateful) = legacy twin" hk_arb
    (fun (h, k) ->
      let bad v = not (view_pred k v) in
      let incr =
        Referee.finite_incremental "count-even"
          ~init:(fun v0 ->
            let c = if bad v0 then 1 else 0 in
            (c, Referee.verdict_of_bool (c mod 2 = 0)))
          ~step:(fun c v ->
            let c = if bad v then c + 1 else c in
            (c, Referee.verdict_of_bool (c mod 2 = 0)))
      in
      let decide views = Listx.count bad views mod 2 = 0 in
      let legacy = Legacy.finite "count-even-legacy" decide in
      let expected = decide (History.world_views h) in
      Referee.decide_finite incr h = expected
      && Referee.decide_finite legacy h = expected)

(* The legacy decider (the whole-list decision of a finite referee, as
   the multi-session oracle world uses it) folds the referee's judge. *)
let prop_decider_eq_exists =
  QCheck.Test.make ~count ~name:"Referee: decider = List.exists"
    (QCheck.make
       QCheck.Gen.(pair (list_size (1 -- 12) msg_gen) k_gen))
    (fun (views, k) ->
      let p v = not (view_pred k v) in
      Legacy.decider (Referee.finite_exists "seen" p) views
      = List.exists p views)

(* --- sensing: the fold vs the whole-view oracle --- *)

let event_pred k (e : View.event) = not (view_pred k e.View.from_world)

(* The library-wide sensing contract: the verdict stream of the fold
   equals the sensor's whole-view function applied to every prefix of
   the projected view, and the fold's final verdict equals that
   function on the whole view.  For [tolerant] the whole-view function
   is the legacy drop_latest re-evaluation, so this is exactly
   incremental-vs-legacy. *)
let sense_face_agrees sensor (sense : Legacy.sense) h =
  List.map snd (Sensing.verdicts sensor h) = Legacy.verdicts sense h
  && Sensing.final sensor h = sense (Legacy.View.of_history h)

let prop_of_latest_face =
  QCheck.Test.make ~count ~name:"Sensing: of_latest incremental = sense"
    hk_arb
    (fun (h, k) ->
      let empty = k mod 2 = 0 in
      sense_face_agrees
        (Sensing.of_latest ~name:"latest" ~empty (event_pred k))
        (Legacy.of_latest ~empty (event_pred k))
        h)

let prop_of_recent_face =
  QCheck.Test.make ~count ~name:"Sensing: of_recent incremental = sense"
    (QCheck.make QCheck.Gen.(triple history_gen k_gen (1 -- 6)))
    (fun (h, k, window) ->
      sense_face_agrees
        (Sensing.of_recent ~name:"recent" ~window (event_pred k))
        (Legacy.of_recent ~window (event_pred k))
        h)

let prop_incremental_face =
  QCheck.Test.make ~count
    ~name:"Sensing: incremental (stateful) = make twin" hk_arb
    (fun (h, k) ->
      (* "fewer than k+1 negative events so far" — genuinely stateful. *)
      let init () = (0, Sensing.Positive) in
      let step negs e =
        let negs = if event_pred k e then negs else negs + 1 in
        (negs, if negs <= k then Sensing.Positive else Sensing.Negative)
      in
      let incr = Sensing.incremental ~name:"few-negs" ~init ~step in
      let twin =
        Legacy.sensing ~name:"few-negs-twin" (fun view ->
            let negs =
              Listx.count
                (fun e -> not (event_pred k e))
                (Legacy.View.events view)
            in
            if negs <= k then Sensing.Positive else Sensing.Negative)
      in
      sense_face_agrees incr (Legacy.replay ~init ~step) h
      && Sensing.verdicts incr h = Sensing.verdicts twin h)

let prop_of_latest_eq_make_twin =
  QCheck.Test.make ~count ~name:"Sensing: of_latest = make twin" hk_arb
    (fun (h, k) ->
      let empty = k mod 2 = 0 in
      let native =
        Sensing.of_latest ~name:"latest" ~empty (event_pred k)
      in
      let twin =
        Legacy.sensing ~name:"latest-twin" (fun view ->
            match Legacy.View.latest view with
            | None -> if empty then Sensing.Positive else Sensing.Negative
            | Some e ->
                if event_pred k e then Sensing.Positive else Sensing.Negative)
      in
      Sensing.verdicts native h = Sensing.verdicts twin h)

let prop_of_recent_eq_make_twin =
  QCheck.Test.make ~count ~name:"Sensing: of_recent = make twin"
    (QCheck.make QCheck.Gen.(triple history_gen k_gen (1 -- 6)))
    (fun (h, k, window) ->
      let native = Sensing.of_recent ~name:"recent" ~window (event_pred k) in
      let twin =
        Legacy.sensing ~name:"recent-twin" (fun view ->
            if
              List.exists (event_pred k)
                (Listx.take window (Legacy.View.events_rev view))
            then Sensing.Positive
            else Sensing.Negative)
      in
      Sensing.verdicts native h = Sensing.verdicts twin h)

(* Tolerant masking: the ring-buffer face must agree both with the
   legacy drop_latest sense face (via sense_face_agrees) and with a
   from-scratch reference computed over the raw verdict stream — the
   masked verdict at position i is Negative iff the last [window] raw
   verdicts up to i contain at least [threshold] negatives. *)
let prop_tolerant_face_and_reference =
  QCheck.Test.make ~count ~name:"Sensing: tolerant ring = legacy + reference"
    (QCheck.make
       QCheck.Gen.(
         pair (pair history_gen k_gen) (1 -- 6) >>= fun ((h, k), window) ->
         1 -- window >|= fun threshold -> (h, k, window, threshold)))
    (fun (h, k, window, threshold) ->
      let base = Sensing.of_latest ~name:"base" ~empty:true (event_pred k) in
      let tolerant = Sensing.tolerant ~window ~threshold base in
      let raw = Array.of_list (List.map snd (Sensing.verdicts base h)) in
      let expected =
        List.init (Array.length raw) (fun i ->
            let lo = max 0 (i - window + 1) in
            let negs = ref 0 in
            for j = lo to i do
              if raw.(j) = Sensing.Negative then incr negs
            done;
            if !negs >= threshold then Sensing.Negative else Sensing.Positive)
      in
      sense_face_agrees tolerant
        (Legacy.tolerant ~window ~threshold
           (Legacy.of_latest ~empty:true (event_pred k)))
        h
      && List.map snd (Sensing.verdicts tolerant h) = expected)

(* The corruption wrapper as a fold draws exactly what the whole-view
   wrapper drew: one Bernoulli per Negative the base sensor reports, in
   round order, and the empty-view draw only when that verdict is read
   (here it is, before the first round, as [halt_on_positive] does). *)
let prop_corrupt_unsafe_eq_whole_view =
  QCheck.Test.make ~count ~name:"Sensing: corrupt_unsafe fold = whole-view"
    (QCheck.make QCheck.Gen.(triple history_gen k_gen (int_bound 1_000)))
    (fun (h, k, seed) ->
      let empty = k mod 2 = 0 in
      let base = Sensing.of_latest ~name:"base" ~empty (event_pred k) in
      let base_sense = Legacy.of_latest ~empty (event_pred k) in
      let flip_to_positive = 0.4 in
      let corrupt =
        Sensing.corrupt_unsafe ~flip_to_positive (Rng.make seed) base
      in
      let rng = Rng.make seed in
      let corrupt_sense view =
        match base_sense view with
        | Sensing.Positive -> Sensing.Positive
        | Sensing.Negative ->
            if Rng.bernoulli rng flip_to_positive then Sensing.Positive
            else Sensing.Negative
      in
      let st = Sensing.start corrupt in
      let v0 = Sensing.verdict st in
      let expected_v0 = corrupt_sense Legacy.View.empty in
      let _, got =
        Goalcom.View.fold_events h ~init:(st, []) ~f:(fun (st, acc) e ->
            let st = Sensing.observe st e in
            (st, Sensing.verdict st :: acc))
      in
      v0 = expected_v0 && List.rev got = Legacy.verdicts corrupt_sense h)

(* --- ring-buffer edge cases --- *)

let ev ~round ~fw =
  {
    View.round;
    from_server = Msg.Silence;
    from_world = fw;
    to_server = Msg.Silence;
    to_world = Msg.Silence;
    halted = false;
  }

let pos_msg = Msg.Int 1
let neg_msg = Msg.Int 0

let base_sensor =
  Sensing.of_latest ~name:"unit-base" ~empty:true (fun e ->
      Msg.equal e.View.from_world pos_msg)

(* Drive a tolerant instance over [msgs] and return the verdict after
   each observation. *)
let drive sensor msgs =
  let _, verdicts =
    List.fold_left
      (fun ((st, round), acc) fw ->
        let st = Sensing.observe st (ev ~round ~fw) in
        ((st, round + 1), Sensing.verdict st :: acc))
      ((Sensing.start sensor, 1), [])
      msgs
  in
  List.rev verdicts

let vl = Alcotest.(list (testable (Fmt.of_to_string (function
  | Sensing.Positive -> "+"
  | Sensing.Negative -> "-")) ( = )))

let test_tolerant_empty_positive () =
  let t = Sensing.tolerant ~window:8 ~threshold:3 base_sensor in
  Alcotest.(check bool)
    "empty view is Positive" true
    (Sensing.verdict (Sensing.start t) = Sensing.Positive)

let test_tolerant_window_one () =
  let t = Sensing.tolerant ~window:1 ~threshold:1 base_sensor in
  Alcotest.check vl "window=1 is the raw stream"
    Sensing.[ Negative; Positive; Negative; Negative ]
    (drive t [ neg_msg; pos_msg; neg_msg; neg_msg ])

let test_tolerant_threshold_eq_window () =
  let t = Sensing.tolerant ~window:3 ~threshold:3 base_sensor in
  Alcotest.check vl "negative only when the whole window is negative"
    Sensing.[ Positive; Positive; Negative; Negative; Positive ]
    (drive t [ neg_msg; neg_msg; neg_msg; neg_msg; pos_msg ])

let test_tolerant_window_exceeds_length () =
  let t = Sensing.tolerant ~window:8 ~threshold:8 base_sensor in
  Alcotest.check vl "threshold unreachable within a short run"
    Sensing.[ Positive; Positive; Positive ]
    (drive t [ neg_msg; neg_msg; neg_msg ])

let test_tolerant_eviction () =
  (* window=2, threshold=2: the r1 negative must be evicted by r3, so
     the two non-adjacent negatives never mask to Negative. *)
  let t = Sensing.tolerant ~window:2 ~threshold:2 base_sensor in
  Alcotest.check vl "evicted negatives stop counting"
    Sensing.[ Positive; Negative; Positive; Positive ]
    (drive t [ neg_msg; neg_msg; pos_msg; neg_msg ])

let test_tolerant_validation () =
  Alcotest.check_raises "window must be positive"
    (Invalid_argument "Sensing.tolerant: window must be positive") (fun () ->
      ignore (Sensing.tolerant ~window:0 ~threshold:1 base_sensor));
  Alcotest.check_raises "threshold must be in 1..window"
    (Invalid_argument "Sensing.tolerant: threshold must be in 1..window")
    (fun () -> ignore (Sensing.tolerant ~window:3 ~threshold:4 base_sensor))

let test_compact_rejected () =
  let r =
    Referee.compact_incremental "c"
      ~init:(fun _ -> ((), `Ok))
      ~step:(fun () _ -> ((), `Ok))
  in
  Alcotest.check_raises "decide_finite on compact"
    (Invalid_argument "Referee.decide_finite: compact referee") (fun () ->
      ignore (Referee.decide_finite r (History.make ~initial_world_view:Msg.Silence [])))

(* --- History length/prefix bookkeeping --- *)

let prop_history_length_prefix =
  QCheck.Test.make ~count ~name:"History: O(1) length and prefix agree"
    (QCheck.make QCheck.Gen.(pair history_gen (int_bound 32)))
    (fun (h, n) ->
      let p = History.prefix n h in
      History.length h = List.length (Legacy.rounds h)
      && Legacy.rounds p = Listx.take n (Legacy.rounds h)
      && History.length p = List.length (Legacy.rounds p))

(* --- the judging fold vs the whole-history judgement it replaced --- *)

(* [Outcome.judge] as it was before judging became one fold: a finite
   referee decides the whole history once, a compact one lists its
   violation rounds in one [Referee.violations] pass. *)
let legacy_judge ?tail_window (goal : Goal.t) history =
  let rounds = History.length history in
  let halted = History.halted history in
  let violation_rounds, achieved =
    if Referee.is_finite goal.referee then
      let accepted = Referee.decide_finite goal.referee history in
      ((if accepted then [] else [ rounds ]), halted && accepted)
    else
      let vs = Referee.violations goal.referee history in
      let window =
        match tail_window with Some w -> max 1 w | None -> max 1 (rounds / 5)
      in
      (vs, rounds > 0 && not (List.exists (fun r -> r > rounds - window) vs))
  in
  {
    Outcome.achieved;
    halted;
    halt_round = History.halt_round history;
    rounds;
    violations = List.length violation_rounds;
    violation_rounds;
    last_violation = Listx.last_opt violation_rounds;
  }

(* The session engine's former post-hoc achieved-view walk, replayed
   over a finished history.  It feeds the initial view to the referee
   twice (once to prime it, once more as position 0).  That is harmless
   for every library goal: their finite referees are [finite_exists]
   (re-feeding a view that was not accepted changes nothing) and their
   compact referees (control, prediction) accept the initial view, so
   the walk stops before the second feed.  A stateful referee that
   counts views (like the parity referee below) would see one view too
   many; the fold feeds each view once. *)
let achieved_view_walk (goal : Goal.t) history =
  let init = History.initial_world_view history in
  let len = History.length history in
  let view_at j =
    if j = 0 then init
    else (History.round_exn history (j - 1)).History.Round.world_view
  in
  match Referee.start goal.Goal.referee init with
  | _, `Ok -> init
  | judge, `Violation ->
      let rec go judge j =
        if j > len then view_at len
        else
          let judge, verdict = Referee.step judge (view_at j) in
          if verdict = `Ok then view_at j else go judge (j + 1)
      in
      go judge 0

let fold_over (goal : Goal.t) history =
  let f = Outcome.start goal (History.initial_world_view history) in
  History.iter_rounds history ~f:(fun (r : History.Round.t) ->
      Outcome.observe f ~halted:r.user_halted r.world_view);
  f

let some_world = Goalcom_goals.Password.world ()

(* Random histories under the referee shapes the library supports,
   legacy list predicates included. *)
let prop_fold_eq_legacy_judge =
  QCheck.Test.make ~count ~name:"Outcome: fold = legacy judge (random)"
    (QCheck.make QCheck.Gen.(triple history_gen k_gen (0 -- 9)))
    (fun (h, k, w) ->
      let bad v = not (view_pred k v) in
      let referees =
        [
          Legacy.finite "legacy-parity" (fun views ->
              Listx.count bad views mod 2 = 0);
          Legacy.compact "legacy-count" (fun views ->
              Listx.count bad views <= k);
          Referee.finite_exists "seen-bad" bad;
          Referee.compact_incremental "head"
            ~init:(fun _ -> ((), `Ok))
            ~step:(fun () v -> ((), Referee.verdict_of_bool (view_pred k v)));
        ]
      in
      let tail_window = if w = 0 then None else Some w in
      List.for_all
        (fun referee ->
          let goal = Goal.make ~name:"g" ~worlds:[ some_world ] ~referee in
          Outcome.judge ?tail_window goal h = legacy_judge ?tail_window goal h
          && Outcome.finish (fold_over goal h) = legacy_judge goal h)
        referees)

(* The achieved view agrees with the legacy walk for the referee shapes
   the library's goals use (see [achieved_view_walk]). *)
let prop_fold_achieved_view =
  QCheck.Test.make ~count ~name:"Outcome: achieved view = legacy walk"
    hk_arb
    (fun (h, k) ->
      let bad v = not (view_pred k v) in
      List.for_all
        (fun referee ->
          let goal = Goal.make ~name:"g" ~worlds:[ some_world ] ~referee in
          Msg.equal
            (Outcome.accepted_view (fold_over goal h))
            (achieved_view_walk goal h))
        [
          Referee.finite_exists "seen-bad" bad;
          Referee.compact_incremental "head"
            ~init:(fun _ -> ((), `Ok))
            ~step:(fun () v -> ((), Referee.verdict_of_bool (view_pred k v)));
        ])

(* Every lib/goals and lib/net goal family, each run with the informed
   user of the server's dialect, the informed user of a wrong dialect
   and the universal user.  [mk ~d] builds the goal, the three users,
   the server speaking dialect [d], and the per-round hook a
   shared-medium station needs (the slot resolution the engine's group
   arbiter does). *)
type family = {
  fam : string;
  dialects : int list;
  horizon : int;
  mk :
    d:int ->
    Goal.t * (string * Strategy.user) list * Strategy.server * (unit -> unit);
}

let families =
  let open Goalcom_goals in
  let module Net = Goalcom_net in
  let rot size = Goalcom_automata.Dialect.enumerate_rotations ~size in
  let nth size i = Goalcom_automata.Enum.get_exn (rot size) i in
  let std name ~alphabet ~goal ~informed ~universal ~server =
    {
      fam = name;
      dialects = [ 0; 1 ];
      horizon = 1_500;
      mk =
        (fun ~d ->
          let wrong = (d + 1) mod alphabet in
          ( goal,
            [
              ("informed", informed (nth alphabet d));
              ("wrong", informed (nth alphabet wrong));
              ("universal", universal (rot alphabet));
            ],
            server (nth alphabet d),
            ignore ));
    }
  in
  let maze_scenario =
    Maze.scenario ~blocked:[ (1, 0); (1, 1) ] ~width:3 ~height:3 ~start:(0, 0)
      ~target:(2, 0) ()
  in
  let topo_scenario = Net.Topo.line ~hops:2 ~payload_alphabet:4 ~payload:2 in
  let fwd_scenario = Net.Forward.scenario ~payload_alphabet:4 [ 2; 0; 3 ] in
  [
    (let alphabet = Printing.min_alphabet in
     std "printing" ~alphabet ~goal:(Printing.goal ~alphabet ())
       ~informed:(Printing.informed_user ~alphabet)
       ~universal:(Printing.universal_user ~alphabet)
       ~server:(Printing.server ~alphabet));
    (let alphabet = 6 in
     std "maze" ~alphabet
       ~goal:(Maze.goal ~scenarios:[ maze_scenario ] ~alphabet ())
       ~informed:(Maze.informed_user ~alphabet ~scenario:maze_scenario)
       ~universal:(Maze.universal_user ~alphabet ~scenario:maze_scenario)
       ~server:(Maze.server ~alphabet));
    (let alphabet = Control.min_alphabet in
     std "control" ~alphabet ~goal:(Control.goal ~alphabet ())
       ~informed:(Control.informed_user ~alphabet)
       ~universal:(Control.universal_user ~alphabet)
       ~server:(Control.server ~alphabet));
    (let alphabet = Delegation.min_alphabet in
     std "delegation" ~alphabet ~goal:(Delegation.goal ~alphabet ())
       ~informed:(Delegation.informed_user ~alphabet)
       ~universal:(Delegation.universal_user ~alphabet)
       ~server:(Delegation.server ~alphabet));
    (let alphabet = Counting.min_alphabet in
     std "counting" ~alphabet ~goal:(Counting.goal ~alphabet ())
       ~informed:(Counting.verifier_user ~alphabet)
       ~universal:(Counting.universal_user ~alphabet)
       ~server:(Counting.server ~alphabet));
    (let alphabet = Prediction.min_alphabet in
     std "prediction" ~alphabet ~goal:(Prediction.goal ~alphabet ())
       ~informed:(Prediction.teacher_user ~alphabet)
       ~universal:(Prediction.universal_user ~alphabet)
       ~server:(Prediction.server ~alphabet));
    (let alphabet = Transfer.min_alphabet in
     std "transfer" ~alphabet ~goal:(Transfer.goal ~alphabet ())
       ~informed:(Transfer.informed_user ~alphabet)
       ~universal:(Transfer.universal_user ~alphabet)
       ~server:(Transfer.server ~alphabet));
    {
      fam = "password";
      dialects = [ 3; 6 ];
      horizon = 200;
      mk =
        (fun ~d ->
          ( Password.goal (),
            [
              ("informed", Password.informed_user d);
              ("wrong", Password.informed_user (d + 1));
              ("universal", Password.universal_user ~space:8 ());
            ],
            Password.server_with_password d,
            ignore ));
    };
    (let alphabet = 5 in
     std "topo" ~alphabet
       ~goal:(Net.Topo.goal ~scenarios:[ topo_scenario ] ~alphabet ())
       ~informed:(Net.Topo.informed_user ~alphabet ~scenario:topo_scenario)
       ~universal:(Net.Topo.universal_user ~alphabet ~scenario:topo_scenario)
       ~server:(Net.Topo.server ~alphabet));
    (let alphabet = 5 in
     std "forward" ~alphabet
       ~goal:(Net.Forward.goal ~scenarios:[ fwd_scenario ] ~alphabet ())
       ~informed:(Net.Forward.informed_user ~alphabet)
       ~universal:(Net.Forward.universal_user ~alphabet)
       ~server:(Net.Forward.server ~alphabet ~payload_alphabet:4));
    {
      fam = "mac";
      dialects = [ 0; 1 ];
      horizon = 400;
      mk =
        (fun ~d ->
          let medium = Net.Medium.create ~ports:1 in
          ( Net.Mac.goal ~payload_alphabet:4 [ 1; 3 ],
            [
              ("informed", Net.Mac.policy ~period:(d + 1) ~offset:d);
              ("universal", Net.Mac.universal_user ~shift:d ~max_period:3 ());
            ],
            Net.Medium.port medium 0,
            fun () -> Net.Medium.resolve medium ));
    };
  ]

let capture f =
  let events = ref [] in
  let r = Trace.with_sink (fun ev -> events := ev :: !events) f in
  (r, List.rev !events)

(* One run driven round by round, the way the session engine drives
   it: step, feed the fold, then the per-round hook.  The rounds are
   recorded from [Stepper.last_round] only to compare against the
   history-based paths. *)
let live_run ~config ~goal ~user ~server ~between seed =
  capture (fun () ->
      let st = Exec.Stepper.create ~config ~goal ~user ~server (Rng.make seed) in
      let v0 = Exec.Stepper.world_view st in
      let fold = Outcome.start goal v0 in
      let rounds = ref [] in
      while Exec.Stepper.step st do
        Outcome.observe fold ~halted:(Exec.Stepper.halted st)
          (Exec.Stepper.world_view st);
        rounds := Exec.Stepper.last_round st :: !rounds;
        between ()
      done;
      (fold, History.make ~initial_world_view:v0 (List.rev !rounds)))

let same_history a b =
  Msg.equal (History.initial_world_view a) (History.initial_world_view b)
  && Legacy.rounds a = Legacy.rounds b

let test_fold_every_family () =
  List.iter
    (fun fam ->
      List.iter
        (fun d ->
          List.iteri
            (fun ui (uname, _) ->
              List.iter
                (fun seed ->
                  let label =
                    Printf.sprintf "%s d=%d %s seed=%d" fam.fam d uname seed
                  in
                  (* Fresh parties per run: a medium port's state lives
                     in its medium. *)
                  let fresh () =
                    let goal, users, server, between = fam.mk ~d in
                    (goal, snd (List.nth users ui), server, between)
                  in
                  let config = Exec.config ~horizon:fam.horizon () in
                  let goal, user, server, between = fresh () in
                  let (fold, h), live_events =
                    live_run ~config ~goal ~user ~server ~between seed
                  in
                  let check what ok =
                    if not ok then Alcotest.failf "%s: %s" label what
                  in
                  check "fold = legacy judge"
                    (Outcome.finish fold = legacy_judge goal h);
                  check "judge = legacy judge"
                    (Outcome.judge goal h = legacy_judge goal h);
                  check "judge = legacy judge (tail window 7)"
                    (Outcome.judge ~tail_window:7 goal h
                    = legacy_judge ~tail_window:7 goal h);
                  check "achieved view = legacy walk"
                    (Msg.equal (Outcome.accepted_view fold)
                       (achieved_view_walk goal h));
                  (* A station's medium needs its slot resolved between
                     rounds, which neither [Exec.run] nor [run_to_end]
                     do; the remaining families run all three ways. *)
                  if fam.fam <> "mac" then begin
                    let goal, user, server, _ = fresh () in
                    let h_run, run_events =
                      capture (fun () ->
                          Exec.run ~config ~goal ~user ~server (Rng.make seed))
                    in
                    let goal, user, server, _ = fresh () in
                    let h_end, end_events =
                      capture (fun () ->
                          Exec.Stepper.run_to_end
                            (Exec.Stepper.create ~config ~goal ~user ~server
                               (Rng.make seed)))
                    in
                    check "run_to_end history = Exec.run" (same_history h_end h_run);
                    check "run_to_end events = Exec.run" (end_events = run_events);
                    check "live history = Exec.run" (same_history h h_run);
                    check "live events = Exec.run" (live_events = run_events)
                  end)
                [ 1; 2; 3 ])
            (let _, users, _, _ = fam.mk ~d in
             users))
        fam.dialects)
    families

let test_stepper_guards () =
  let goal = Goalcom_goals.Password.goal () in
  let st =
    Exec.Stepper.create ~goal ~user:(Goalcom_goals.Password.informed_user 2)
      ~server:(Goalcom_goals.Password.server_with_password 2) (Rng.make 1)
  in
  Alcotest.check_raises "no round yet"
    (Invalid_argument "Exec.Stepper.last_round: no round executed") (fun () ->
      ignore (Exec.Stepper.last_round st));
  ignore (Exec.Stepper.step st);
  Alcotest.(check int) "last round index" 1
    (Exec.Stepper.last_round st).History.Round.index;
  Alcotest.check_raises "run_to_end wants a fresh stepper"
    (Invalid_argument "Exec.Stepper.run_to_end: stepper already stepped")
    (fun () -> ignore (Exec.Stepper.run_to_end st))

let suite =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_compact_legacy_fold_eq_prefix;
      prop_incr_stateless_eq_legacy;
      prop_incr_stateful_eq_legacy;
      prop_violations_sorted_bounded;
      prop_finite_exists_eq_list_exists;
      prop_finite_incremental_eq_legacy;
      prop_decider_eq_exists;
      prop_of_latest_face;
      prop_of_recent_face;
      prop_incremental_face;
      prop_of_latest_eq_make_twin;
      prop_of_recent_eq_make_twin;
      prop_tolerant_face_and_reference;
      prop_corrupt_unsafe_eq_whole_view;
      prop_history_length_prefix;
      prop_fold_eq_legacy_judge;
      prop_fold_achieved_view;
    ]

let () =
  Alcotest.run "incremental"
    [
      ("equivalence", suite);
      ( "judge fold",
        [
          Alcotest.test_case "every goal family" `Quick test_fold_every_family;
          Alcotest.test_case "stepper guards" `Quick test_stepper_guards;
        ] );
      ( "ring buffer",
        [
          Alcotest.test_case "empty view" `Quick test_tolerant_empty_positive;
          Alcotest.test_case "window=1" `Quick test_tolerant_window_one;
          Alcotest.test_case "threshold=window" `Quick
            test_tolerant_threshold_eq_window;
          Alcotest.test_case "window > length" `Quick
            test_tolerant_window_exceeds_length;
          Alcotest.test_case "eviction" `Quick test_tolerant_eviction;
          Alcotest.test_case "validation" `Quick test_tolerant_validation;
          Alcotest.test_case "compact rejected" `Quick
            test_compact_rejected;
        ] );
    ]
