(* Tests for lib/net: topology goals, probabilistic forwarding, the
   shared-medium arbiter, and the multi-user session-group semantics. *)

open Goalcom
open Goalcom_prelude
open Goalcom_automata
module Net = Goalcom_net
module Fault = Goalcom_faults.Fault

let alphabet = 5 (* command alphabet for topo/forward dialect classes *)
let dialects = Dialect.enumerate_rotations ~size:alphabet
let dialect i = Enum.get_exn dialects i

let contains ~affix s =
  let n = String.length affix and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = affix || go (i + 1)) in
  go 0

(* --- link builders ---------------------------------------------------- *)

let test_link_builders () =
  let a = 4 in
  Alcotest.(check (list int))
    "clean" [ 0; 3; 2 ]
    (Mealy.run (Net.Link.clean ~alphabet:a) [ 0; 3; 2 ]);
  Alcotest.(check (list int))
    "relabel wraps" [ 1; 0 ]
    (Mealy.run (Net.Link.relabel ~alphabet:a 1) [ 0; 3 ]);
  Alcotest.(check (list int))
    "relabel composes to identity" [ 2 ]
    (Mealy.run
       (Mealy.cascade (Net.Link.relabel ~alphabet:a 1)
          (Net.Link.relabel ~alphabet:a 3))
       [ 2 ]);
  Alcotest.(check (list int))
    "stuck" [ 1; 1; 1 ]
    (Mealy.run (Net.Link.stuck ~alphabet:a 1) [ 0; 2; 3 ]);
  Alcotest.(check (list int))
    "sticky remembers its first symbol" [ 2; 2; 2 ]
    (Mealy.run (Net.Link.sticky ~alphabet:a) [ 2; 0; 3 ])

let test_link_imperfection_spec () =
  (match Net.Link.imperfection ~alphabet "loss:0.25+dup" with
  | Ok f ->
      Alcotest.(check string) "loss parses as drop" "drop(0.25)+dup"
        (Fault.name f)
  | Error e -> Alcotest.fail e);
  match Net.Link.imperfection ~alphabet "loss:not-a-prob" with
  | Ok _ -> Alcotest.fail "malformed probability must not parse"
  | Error e ->
      Alcotest.(check bool) "error names the grammar" true
        (contains ~affix:"loss:P" e)

(* --- topology --------------------------------------------------------- *)

let run_topo ~scenario ~user ~server ?(horizon = 400) seed =
  let goal = Net.Topo.goal ~scenarios:[ scenario ] ~alphabet () in
  Exec.run_outcome ~config:(Exec.config ~horizon ()) ~goal ~user ~server
    (Rng.make seed)

let test_topo_scenarios () =
  let line = Net.Topo.line ~hops:3 ~payload_alphabet:4 ~payload:2 in
  Alcotest.(check (list int)) "line route" [ 0; 0; 0 ] (Net.Topo.route line);
  let diamond = Net.Topo.diamond ~payload_alphabet:4 ~payload:2 in
  Alcotest.(check (list int))
    "diamond routes around the stuck decoy" [ 0; 0 ]
    (Net.Topo.route diamond);
  let ring = Net.Topo.ring ~nodes:5 ~sink:3 ~payload_alphabet:4 ~payload:1 in
  Alcotest.(check (list int))
    "ring avoids the stuck chord" [ 1; 0; 0 ]
    (Net.Topo.route ring);
  Alcotest.check_raises "unroutable scenario rejected"
    (Invalid_argument "Topo.scenario: no intact route from source to sink")
    (fun () ->
      let net =
        Net.Topo.net ~payload_alphabet:4 ~nodes:2
          [ (0, 1, Net.Link.stuck ~alphabet:4 0) ]
      in
      ignore (Net.Topo.scenario ~net ~source:0 ~sink:1 ~payload:2))

let test_topo_informed_delivers () =
  List.iter
    (fun (name, scenario) ->
      List.iter
        (fun di ->
          let d = dialect di in
          let outcome, _ =
            run_topo ~scenario
              ~user:(Net.Topo.informed_user ~alphabet ~scenario d)
              ~server:(Net.Topo.server ~alphabet d)
              (42 + di)
          in
          Alcotest.(check bool)
            (Printf.sprintf "%s via dialect %d" name di)
            true outcome.Outcome.achieved)
        [ 0; 2; 4 ])
    [
      ("line", Net.Topo.line ~hops:3 ~payload_alphabet:4 ~payload:2);
      ("diamond", Net.Topo.diamond ~payload_alphabet:4 ~payload:2);
      ("ring", Net.Topo.ring ~nodes:5 ~sink:3 ~payload_alphabet:4 ~payload:1);
    ]

let test_topo_wrong_dialect_fails_universal_recovers () =
  let scenario = Net.Topo.diamond ~payload_alphabet:4 ~payload:2 in
  let outcome, _ =
    run_topo ~scenario
      ~user:(Net.Topo.informed_user ~alphabet ~scenario (dialect 1))
      ~server:(Net.Topo.server ~alphabet (dialect 0))
      7
  in
  Alcotest.(check bool) "wrong dialect stalls" false outcome.Outcome.achieved;
  List.iter
    (fun di ->
      let outcome, _ =
        run_topo ~scenario ~horizon:4_000
          ~user:(Net.Topo.universal_user ~alphabet ~scenario dialects)
          ~server:(Net.Topo.server ~alphabet (dialect di))
          11
      in
      Alcotest.(check bool)
        (Printf.sprintf "universal conquers dialect %d" di)
        true outcome.Outcome.achieved)
    [ 0; 1; 4 ]

(* --- forwarding ------------------------------------------------------- *)

let payload_alphabet = 4
let fwd_doc = [ 2; 0; 3; 1 ]
let fwd_scenario = Net.Forward.scenario ~payload_alphabet fwd_doc

let run_forward ?wire ?(fault = Fault.nop) ?(horizon = 600) ~user_d ~server_d
    seed =
  let goal = Net.Forward.goal ~scenarios:[ fwd_scenario ] ~alphabet () in
  let server =
    Fault.apply fault
      (Net.Forward.server ?wire ~alphabet ~payload_alphabet (dialect server_d))
  in
  Exec.run_outcome ~config:(Exec.config ~horizon ()) ~goal
    ~user:(Net.Forward.informed_user ~alphabet (dialect user_d))
    ~server (Rng.make seed)

let test_forward_clean () =
  let outcome, history = run_forward ~user_d:2 ~server_d:2 5 in
  Alcotest.(check bool) "delivered" true outcome.Outcome.achieved;
  Alcotest.(check bool)
    "final view shows the payload" true
    (Net.Forward.delivered
       (match History.world_views_rev history with v :: _ -> v | [] -> Msg.Silence))

let test_forward_wrong_dialect_stalls () =
  let outcome, _ = run_forward ~user_d:1 ~server_d:2 5 in
  Alcotest.(check bool) "stalls" false outcome.Outcome.achieved

let test_forward_lossy_dup () =
  let fault =
    match Fault.stack_of_string ~alphabet "loss:0.3+dup" with
    | Ok f -> f
    | Error e -> Alcotest.fail e
  in
  List.iter
    (fun seed ->
      let outcome, _ = run_forward ~fault ~user_d:0 ~server_d:0 seed in
      Alcotest.(check bool)
        (Printf.sprintf "ARQ survives loss+dup (seed %d)" seed)
        true outcome.Outcome.achieved)
    [ 1; 2; 3; 4; 5 ]

let test_forward_noisy_wire () =
  let wire = Net.Link.wire ~flip_prob:0.15 ~alphabet:payload_alphabet in
  List.iter
    (fun seed ->
      let outcome, _ = run_forward ~wire ~user_d:0 ~server_d:0 seed in
      Alcotest.(check bool)
        (Printf.sprintf "ARQ resets through wire noise (seed %d)" seed)
        true outcome.Outcome.achieved)
    [ 1; 2; 3 ]

let test_forward_universal () =
  let wire = Net.Link.wire ~flip_prob:0.05 ~alphabet:payload_alphabet in
  let goal = Net.Forward.goal ~scenarios:[ fwd_scenario ] ~alphabet () in
  let server =
    Net.Forward.server ~wire ~alphabet ~payload_alphabet (dialect 3)
  in
  let outcome, _ =
    Exec.run_outcome
      ~config:(Exec.config ~horizon:6_000 ())
      ~goal
      ~user:(Net.Forward.universal_user ~alphabet dialects)
      ~server (Rng.make 9)
  in
  Alcotest.(check bool) "universal forwards" true outcome.Outcome.achieved

(* --- the medium ------------------------------------------------------- *)

module Session = Goalcom_session
module E19 = Goalcom_harness.E19_net_matrix

let frame seq sym = Msg.Pair (Msg.Int seq, Msg.Int sym)

let test_medium_slot_semantics () =
  Alcotest.check_raises "no ports"
    (Invalid_argument "Medium.create: need at least one port") (fun () ->
      ignore (Net.Medium.create ~ports:0));
  let m = Net.Medium.create ~ports:3 in
  let rng = Rng.make 1 in
  let p = Array.init 3 (fun i -> Strategy.Instance.create (Net.Medium.port m i)) in
  let step i from_user : Io.Server.act =
    Strategy.Instance.step rng p.(i)
      { Io.Server.from_user; from_world = Msg.Silence }
  in
  (* slot 1: ports 0 and 1 clash, port 2 stays quiet *)
  List.iter
    (fun (i, attempt) ->
      let a = step i attempt in
      Alcotest.(check bool)
        (Printf.sprintf "port %d starts quiet" i)
        true
        (a.Io.Server.to_user = Msg.Sym 0 && a.Io.Server.to_world = Msg.Silence))
    [ (0, frame 0 2); (1, frame 0 3); (2, Msg.Silence) ];
  Net.Medium.resolve m;
  (* slot 2: the clashers read their collision; only port 2 transmits *)
  Alcotest.(check bool) "0 collided" true
    ((step 0 Msg.Silence).Io.Server.to_user = Msg.Sym 2);
  Alcotest.(check bool) "1 collided" true
    ((step 1 Msg.Silence).Io.Server.to_user = Msg.Sym 2);
  Alcotest.(check bool) "2 still quiet" true
    ((step 2 (frame 0 1)).Io.Server.to_user = Msg.Sym 0);
  Net.Medium.resolve m;
  (* slot 3: port 2's frame was granted — ack plus world delivery *)
  let a = step 2 Msg.Silence in
  Alcotest.(check bool) "2 delivered" true (a.Io.Server.to_user = Msg.Sym 1);
  Alcotest.(check bool) "frame forwarded" true
    (a.Io.Server.to_world = frame 0 1);
  Net.Medium.resolve m;
  (* slot 3 staged nothing: an idle slot *)
  Alcotest.(check int) "slots" 3 (Net.Medium.slots m);
  Alcotest.(check int) "successes" 1 (Net.Medium.successes m);
  Alcotest.(check int) "collisions" 1 (Net.Medium.collisions m);
  Alcotest.(check int) "idles" 1 (Net.Medium.idles m);
  Alcotest.(check int) "port 2 delivered" 1 (Net.Medium.delivered m 2);
  Alcotest.(check int) "port 0 delivered" 0 (Net.Medium.delivered m 0)

let test_medium_first_attempt_sticks_and_restart_clears () =
  let m = Net.Medium.create ~ports:1 in
  let rng = Rng.make 2 in
  let p = Strategy.Instance.create (Net.Medium.port m 0) in
  let step from_user : Io.Server.act =
    Strategy.Instance.step rng p
      { Io.Server.from_user; from_world = Msg.Silence }
  in
  ignore (step (frame 0 2));
  ignore (step (frame 0 3));
  (* same slot: the first attempt sticks *)
  Net.Medium.resolve m;
  let a = step Msg.Silence in
  Alcotest.(check bool) "first attempt won" true
    (a.Io.Server.to_world = frame 0 2);
  (* a granted-but-unread frame dies with the incarnation *)
  ignore (step (frame 1 1));
  Net.Medium.resolve m;
  Strategy.Instance.restart p;
  let a = step Msg.Silence in
  Alcotest.(check bool) "restart starts from a quiet port" true
    (a.Io.Server.to_user = Msg.Sym 0 && a.Io.Server.to_world = Msg.Silence);
  (* medium-level counters survive the incarnation *)
  Alcotest.(check int) "successes persist" 2 (Net.Medium.successes m)

(* --- multiple access through the session-group engine ------------------ *)

let test_mac_group_completes () =
  let r = E19.run_mac ~users:2 ~seed:3 () in
  Alcotest.(check int) "both stations finish" 2
    r.E19.report.Session.Engine.completed;
  (* each station's word has two symbols: at least four granted frames *)
  Alcotest.(check bool) "deliveries happened" true (r.E19.successes >= 4);
  Alcotest.(check bool) "slot accounting" true
    (r.E19.successes + r.E19.collisions + r.E19.idles = r.E19.slots)

(* Satellite: shared-medium determinism.  The first multi-user step
   semantics must preserve the engine's contract — outcomes, digest and
   medium counters bit-identical across jobs counts and repeats. *)
let prop_mac_jobs_deterministic =
  QCheck.Test.make ~count:6
    ~name:"net: shared-medium run is jobs- and repeat-deterministic"
    QCheck.(pair (2 -- 5) (int_bound 1000))
    (fun (users, seed) ->
      let base = E19.run_mac ~jobs:1 ~users ~seed () in
      List.for_all
        (fun jobs ->
          let r = E19.run_mac ~jobs ~users ~seed () in
          r.E19.report.Session.Engine.digest
          = base.E19.report.Session.Engine.digest
          && r.E19.report.Session.Engine.outcomes
             = base.E19.report.Session.Engine.outcomes
          && (r.E19.slots, r.E19.successes, r.E19.collisions, r.E19.idles)
             = (base.E19.slots, base.E19.successes, base.E19.collisions,
                base.E19.idles))
        [ 1; 2; 4 ])

(* Satellite: crash-restart equivalence for session groups.  A station
   fleet interrupted by chaos kills reaches the same goal states as the
   uninterrupted fleet — the medium is part of the world, not of any
   incarnation, and checkpoints survive restarts. *)
let final_states (r : E19.mac_run) =
  Array.map
    (function
      | Session.Engine.Done { state; _ } -> Some state
      | _ -> None)
    r.E19.report.Session.Engine.outcomes

let prop_mac_crash_restart_reaches_same_state =
  QCheck.Test.make ~count:6
    ~name:"net: killed+restarted stations = uninterrupted (jobs 1/2/4)"
    QCheck.(pair (1 -- 30) (1 -- 30))
    (fun (k1, k2) ->
      let users = 3 in
      let baseline = E19.run_mac ~users ~seed:17 () in
      let states = final_states baseline in
      if Array.exists (( = ) None) states then
        QCheck.Test.fail_report "baseline did not complete";
      let chaos =
        match
          Session.Chaos.of_string ~alphabet:5
            (Printf.sprintf "kill@%d,%d%%2=0" k1 (k1 + k2))
        with
        | Ok c -> c
        | Error e -> QCheck.Test.fail_report e
      in
      List.for_all
        (fun jobs ->
          final_states (E19.run_mac ~jobs ~chaos ~users ~seed:17 ()) = states)
        [ 1; 2; 4 ])

(* --- equivalence with the decoding definitions -------------------------- *)

module Codec = Goalcom_goals.Codec
module Dialect_msg = Goalcom_servers.Dialect_msg

(* The net predicates, users and worlds as they were written before the
   broadcasts were tabled: every reader decodes the view through
   [Codec], every world rebuilds its broadcast.  The library must agree
   with these on every input. *)
module Oracle = struct
  let forward_delivered view =
    match Codec.pair_of_ints_opt view with
    | Some (doc, received) -> doc <> [] && received = doc
    | None -> false

  let topo_delivered view =
    match Codec.ints_opt view with
    | Some [ node; sym; sink; payload ] -> node = sink && sym = payload
    | _ -> false

  let rec is_prefix xs ys =
    match (xs, ys) with
    | [], _ -> true
    | x :: xs, y :: ys -> x = y && is_prefix xs ys
    | _ :: _, [] -> false

  let arq_act d (obs : Io.User.obs) =
    let send m = Io.User.say_server (Dialect_msg.encode d m) in
    match Codec.pair_of_ints_opt obs.from_world with
    | None -> Io.User.silent
    | Some (doc, received) ->
        if received = doc then Io.User.halt_act
        else if is_prefix received doc then
          let k = List.length received in
          send
            (Msg.Pair
               ( Msg.Sym Net.Forward.data_cmd,
                 Msg.Pair (Msg.Int k, Msg.Int (List.nth doc k)) ))
        else send (Msg.Sym Net.Forward.reset_cmd)

  let mac_act ~period ~offset (obs : Io.User.obs) =
    match Codec.pair_of_ints_opt obs.from_world with
    | None -> Io.User.silent
    | Some (doc, received) ->
        if received = doc then Io.User.halt_act
        else if obs.round mod period = offset then
          let k = List.length received in
          match List.nth_opt doc k with
          | Some sym -> Io.User.say_server (Msg.Pair (Msg.Int k, Msg.Int sym))
          | None -> Io.User.silent
        else Io.User.silent

  let forward_world doc =
    let len = List.length doc in
    World.make ~name:"oracle-forward"
      ~init:(fun () -> [])
      ~step:(fun _rng received (obs : Io.World.obs) ->
        let received =
          match obs.from_server with
          | Msg.Pair (Msg.Int seq, Msg.Int sym)
            when seq = List.length received && seq < len ->
              received @ [ sym ]
          | Msg.Sym c when c = Net.Forward.reset_cmd -> []
          | _ -> received
        in
        (received, Io.World.say_user (Codec.pair_of_ints doc received)))
      ~view:(fun received -> Codec.pair_of_ints doc received)

  type packet = { node : int; sym : int; estate : int array }

  (* Ports numbered in edge-list order, as [Topo.net] numbers them. *)
  let topo_world ~nodes ~edges ~source ~sink ~payload =
    let edges = Array.of_list edges in
    let outs =
      Array.init nodes (fun u ->
          List.filter
            (fun e ->
              let src, _, _ = edges.(e) in
              src = u)
            (List.init (Array.length edges) Fun.id)
          |> Array.of_list)
    in
    let reset = Array.fold_left (fun acc o -> max acc (Array.length o)) 0 outs in
    let fresh () =
      { node = source; sym = payload; estate = Array.make (Array.length edges) 0 }
    in
    let view p = Codec.ints [ p.node; p.sym; sink; payload ] in
    World.make ~name:"oracle-topo" ~init:fresh
      ~step:(fun _rng p (obs : Io.World.obs) ->
        let p =
          match obs.from_server with
          | Msg.Sym c when c = reset -> fresh ()
          | Msg.Sym c when c >= 0 && c < Array.length outs.(p.node) ->
              let e = outs.(p.node).(c) in
              let _, v, m = edges.(e) in
              let st', o = Mealy.step m p.estate.(e) p.sym in
              let estate = Array.copy p.estate in
              estate.(e) <- st';
              { node = v; sym = o; estate }
          | _ -> p
        in
        (p, Io.World.say_user (view p)))
      ~view
end

let gen_leaf =
  QCheck.Gen.(
    frequency
      [
        (1, return Msg.Silence);
        (2, map (fun i -> Msg.Sym i) (int_range (-1) 4));
        (4, map (fun i -> Msg.Int i) (int_range (-3) 5));
        (1, map (fun s -> Msg.Text s) (string_size ~gen:printable (int_range 0 3)));
      ])

(* Arbitrary trees: nested pairs, sequences of any elements. *)
let gen_tree =
  QCheck.Gen.(
    sized_size (int_bound 3)
    @@ fix (fun self n ->
           if n = 0 then gen_leaf
           else
             frequency
               [
                 (2, gen_leaf);
                 (1, map2 (fun a b -> Msg.Pair (a, b)) (self (n - 1)) (self (n - 1)));
                 (1, map (fun l -> Msg.Seq l) (list_size (int_range 0 4) (self (n - 1))));
               ]))

(* Sequence elements: mostly [Int]s (negative ones included), sometimes
   a symbol, a text or a nested message. *)
let gen_elem =
  QCheck.Gen.(
    frequency
      [
        (16, map (fun i -> Msg.Int i) (int_range (-2) 4));
        (1, map (fun i -> Msg.Sym i) (int_range 0 3));
        (1, return (Msg.Text "1"));
        (1, gen_tree);
      ])

let gen_ints =
  QCheck.Gen.(list_size (int_range 0 5) (map (fun i -> Msg.Int i) (int_range (-2) 4)))

let gen_elems = QCheck.Gen.(list_size (int_range 0 5) gen_elem)

(* [received] drawn relative to [doc], so that equal, prefix, derailed,
   longer and unrelated lists are all common. *)
let gen_received doc =
  let n = List.length doc in
  QCheck.Gen.(
    frequency
      [
        (3, map (fun k -> List.filteri (fun i _ -> i < k) doc) (int_range 0 n));
        (2, return doc);
        ( 2,
          map2
            (fun k e -> List.mapi (fun i x -> if i = k then e else x) doc)
            (int_range 0 (max 0 (n - 1)))
            gen_elem );
        (1, map (fun extra -> doc @ extra) gen_elems);
        (2, gen_elems);
      ])

let gen_forward_view =
  QCheck.Gen.(
    frequency
      [
        ( 10,
          frequency [ (4, gen_ints); (1, gen_elems) ] >>= fun doc ->
          gen_received doc >|= fun received ->
          Msg.Pair (Msg.Seq doc, Msg.Seq received) );
        (1, gen_tree);
      ])

let gen_topo_view =
  QCheck.Gen.(
    frequency
      [
        ( 6,
          map (fun l -> Msg.Seq (List.map (fun i -> Msg.Int i) l))
            (list_repeat 4 (int_range (-1) 2)) );
        (2, map (fun l -> Msg.Seq l) (list_size (int_range 3 5) gen_elem));
        (1, gen_tree);
      ])

let arb_msg gen = QCheck.make ~print:Msg.to_string gen

let user_act_equal (a : Io.User.act) (b : Io.User.act) =
  Msg.equal a.to_server b.to_server
  && Msg.equal a.to_world b.to_world
  && a.halt = b.halt

let user_obs ?(round = 1) from_world =
  { Io.User.from_server = Msg.Silence; from_world; round }

let prop_forward_delivered =
  QCheck.Test.make ~count:2000 ~name:"net: Forward.delivered = decoding oracle"
    (arb_msg gen_forward_view) (fun v ->
      Net.Forward.delivered v = Oracle.forward_delivered v)

let prop_topo_delivered =
  QCheck.Test.make ~count:2000 ~name:"net: Topo.delivered = decoding oracle"
    (arb_msg gen_topo_view) (fun v ->
      Net.Topo.delivered v = Oracle.topo_delivered v)

let prop_arq_act =
  let users =
    List.map
      (fun di ->
        let d = dialect di in
        (d, Strategy.Instance.create (Net.Forward.informed_user ~alphabet d)))
      [ 0; 1; 3 ]
  in
  let rng = Rng.make 1 in
  QCheck.Test.make ~count:2000 ~name:"net: ARQ user's act = decoding oracle"
    (arb_msg gen_forward_view) (fun v ->
      let obs = user_obs v in
      List.for_all
        (fun (d, u) ->
          user_act_equal (Strategy.Instance.step rng u obs) (Oracle.arq_act d obs))
        users)

let prop_mac_act =
  let rng = Rng.make 1 in
  QCheck.Test.make ~count:2000 ~name:"net: Mac policy's act = decoding oracle"
    QCheck.(
      triple (arb_msg gen_forward_view)
        (pair (int_range 1 4) (int_range 0 3))
        (int_range 1 12))
    (fun (v, (period, offset), round) ->
      let offset = offset mod period in
      let u = Strategy.Instance.create (Net.Mac.policy ~period ~offset) in
      let obs = user_obs ~round v in
      user_act_equal (Strategy.Instance.step rng u obs)
        (Oracle.mac_act ~period ~offset obs))

let world_act_equal (a : Io.World.act) (b : Io.World.act) =
  Msg.equal a.to_user b.to_user && Msg.equal a.to_server b.to_server

(* Step two worlds through the same server messages; every act and view
   must agree. *)
let same_worlds w1 w2 stream =
  let rng = Rng.make 3 in
  let a = World.Instance.create w1 and b = World.Instance.create w2 in
  Msg.equal (World.Instance.view a) (World.Instance.view b)
  && List.for_all
       (fun from_server ->
         let obs = { Io.World.from_user = Msg.Silence; from_server } in
         let act_a = World.Instance.step rng a obs in
         let act_b = World.Instance.step rng b obs in
         world_act_equal act_a act_b
         && Msg.equal (World.Instance.view a) (World.Instance.view b))
       stream

let gen_frame ~len =
  QCheck.Gen.(
    frequency
      [
        ( 8,
          map2
            (fun seq sym -> Msg.Pair (Msg.Int seq, Msg.Int sym))
            (int_range (-1) (len + 1))
            (int_range (-1) 4) );
        (1, return (Msg.Sym Net.Forward.reset_cmd));
        (1, map (fun c -> Msg.Sym c) (int_range (-1) 3));
        (1, return Msg.Silence);
        (1, gen_tree);
      ])

let prop_forward_world =
  QCheck.Test.make ~count:300
    ~name:"net: Forward world = list-based world, step for step"
    QCheck.(
      make
        ~print:(fun (doc, stream) ->
          Printf.sprintf "doc=[%s] stream=%s"
            (String.concat ";" (List.map string_of_int doc))
            (String.concat " " (List.map Msg.to_string stream)))
        Gen.(
          list_size (int_range 1 5) (int_range 0 (payload_alphabet - 1))
          >>= fun doc ->
          list_size (int_range 0 80) (gen_frame ~len:(List.length doc))
          >|= fun stream -> (doc, stream)))
    (fun (doc, stream) ->
      same_worlds
        (Net.Forward.world_of_scenario
           (Net.Forward.scenario ~payload_alphabet doc))
        (Oracle.forward_world doc) stream)

(* Edge lists as Topo's canned builders lay them out (so each case also
   checks the builder), plus a sticky-link net: its first traversal
   changes an edge's machine state, which the copy-on-write edge states
   must keep per world state.  The 2 -> 0 edge brings the packet back
   to the sticky edge with another symbol. *)
let topo_cases =
  let a = 4 in
  let clean = Net.Link.clean ~alphabet:a in
  [
    ( "line",
      Net.Topo.line ~hops:4 ~payload_alphabet:a ~payload:2,
      (5, List.init 4 (fun i -> (i, i + 1, clean)), 0, 4, 2) );
    ( "diamond",
      Net.Topo.diamond ~payload_alphabet:a ~payload:2,
      ( 4,
        [
          (0, 1, Net.Link.relabel ~alphabet:a 1);
          (0, 2, clean);
          (1, 3, Net.Link.relabel ~alphabet:a (a - 1));
          (2, 3, Net.Link.stuck ~alphabet:a 0);
        ],
        0, 3, 2 ) );
    ( "ring",
      Net.Topo.ring ~nodes:6 ~sink:4 ~payload_alphabet:a ~payload:1,
      ( 6,
        (0, 4, Net.Link.stuck ~alphabet:a 0)
        :: List.init 6 (fun i -> (i, (i + 1) mod 6, clean)),
        0, 4, 1 ) );
  ]
  @
  let sticky_edges =
    [
      (0, 1, Net.Link.sticky ~alphabet:a);
      (0, 2, Net.Link.relabel ~alphabet:a 1);
      (1, 2, clean);
      (2, 0, Net.Link.relabel ~alphabet:a 2);
      (1, 0, clean);
    ]
  in
  let net = Net.Topo.net ~payload_alphabet:a ~nodes:3 sticky_edges in
  [
    ( "sticky",
      Net.Topo.scenario ~net ~source:0 ~sink:2 ~payload:3,
      (3, sticky_edges, 0, 2, 3) );
  ]

let prop_topo_world =
  let gen =
    QCheck.Gen.(
      int_range 0 (List.length topo_cases - 1) >>= fun i ->
      list_size (int_range 0 80)
        (frequency
           [
             (10, map (fun c -> Msg.Sym c) (int_range (-1) 4));
             (1, return Msg.Silence);
             (1, gen_tree);
           ])
      >|= fun stream -> (i, stream))
  in
  QCheck.Test.make ~count:300
    ~name:"net: Topo world = copying world, step for step (sticky link too)"
    (QCheck.make
       ~print:(fun (i, stream) ->
         let name, _, _ = List.nth topo_cases i in
         name ^ ": " ^ String.concat " " (List.map Msg.to_string stream))
       gen)
    (fun (i, stream) ->
      let _, canned, (nodes, edges, source, sink, payload) =
        List.nth topo_cases i
      in
      let net = Net.Topo.net ~payload_alphabet:4 ~nodes edges in
      let tabled =
        Net.Topo.world_of_scenario (Net.Topo.scenario ~net ~source ~sink ~payload)
      in
      let oracle = Oracle.topo_world ~nodes ~edges ~source ~sink ~payload in
      same_worlds tabled oracle stream
      && same_worlds (Net.Topo.world_of_scenario canned) oracle stream)

(* The sticky scenario's copy-on-write path, spelled out: a world that
   crossed the sticky edge keeps its remembered symbol, while a reset
   world — and a second world of the same scenario — start pristine. *)
let test_topo_sticky_copy_on_write () =
  let _, scenario, _ = List.nth topo_cases 3 in
  let world = Net.Topo.world_of_scenario scenario in
  let rng = Rng.make 1 in
  let step w c =
    ignore
      (World.Instance.step rng w
         { Io.World.from_user = Msg.Silence; from_server = Msg.Sym c })
  in
  let view w = World.Instance.view w in
  let ints l = Msg.Seq (List.map (fun i -> Msg.Int i) l) in
  let a = World.Instance.create world in
  (* 0 -sticky-> 1 -> 2 -> 0, then across the sticky edge again *)
  step a 0;
  Alcotest.(check bool) "crossed sticky intact" true
    (Msg.equal (view a) (ints [ 1; 3; 2; 3 ]));
  step a 0;
  step a 0;
  Alcotest.(check bool) "back at the source carrying 1" true
    (Msg.equal (view a) (ints [ 0; 1; 2; 3 ]));
  step a 0;
  Alcotest.(check bool) "sticky replays its first symbol" true
    (Msg.equal (view a) (ints [ 1; 3; 2; 3 ]));
  (* 0 -> 2 -> 0 carrying 2, then across a pristine sticky edge *)
  let b = World.Instance.create world in
  step b 1;
  step b 0;
  step b 0;
  Alcotest.(check bool) "a second world's sticky edge is pristine" true
    (Msg.equal (view b) (ints [ 1; 2; 2; 3 ]));
  step a (Net.Topo.reset_sym scenario);
  step a 1;
  step a 0;
  step a 0;
  Alcotest.(check bool) "reset restores the pristine fabric" true
    (Msg.equal (view a) (ints [ 1; 2; 2; 3 ]))

(* --- allocation gates and the engine digest ----------------------------- *)

(* Allocation gates: the E19 serve population's forward and topo
   sessions, each run to the end the way the engine runs it (an
   Exec.Stepper plus the live Outcome fold), must stay under a minor
   words/round ceiling at the dev profile.  Most of their rounds go to
   losing Levin candidates, whose world does not change: the tabled
   broadcasts and the in-place predicates make those rounds cheap.
   Measured at the dev profile: forward 121, topo 107 words/round.
   With the list-based worlds and decoding predicates (the [Oracle]
   module's definitions) in the library, this test measured 329 and
   260, failing both gates. *)
let alloc_words_per_round ~server_class =
  let specs, _ = E19.population ~mac_users:0 ~sessions:12 () in
  let words = ref 0. and rounds = ref 0 in
  Array.iteri
    (fun i (spec : Session.Engine.spec) ->
      if spec.server_class = server_class then begin
        let user = spec.make_user ~checkpoint:(Universal.new_checkpoint ()) in
        let st =
          Exec.Stepper.create ~config:spec.exec_config ~goal:spec.goal ~user
            ~server:spec.server (Rng.make (i + 1))
        in
        let verdict = Outcome.start spec.goal (Exec.Stepper.world_view st) in
        let before = Gc.minor_words () in
        while Exec.Stepper.step st do
          Outcome.observe verdict ~halted:(Exec.Stepper.halted st)
            (Exec.Stepper.world_view st)
        done;
        words := !words +. (Gc.minor_words () -. before);
        rounds := !rounds + Exec.Stepper.rounds_executed st;
        if not (Outcome.finish verdict).Outcome.achieved then
          Alcotest.failf "%s did not achieve its goal" spec.sname
      end)
    specs;
  !words /. float !rounds

let alloc_gate ~server_class ~max () =
  let per_round = alloc_words_per_round ~server_class in
  if per_round > max then
    Alcotest.failf "%s: %.1f minor words/round > %.0f" server_class per_round
      max

(* The net serve population through the engine: its digest is pinned
   to the value the list-based worlds and decoding predicates gave, at
   jobs 1 and 2. *)
let net_digest = "e9eb143d61aafa0c41761c6eea455576"

let test_net_engine_digest () =
  let specs, groups = E19.population ~mac_users:16 ~sessions:400 () in
  let config = Session.Engine.config ~quantum:1 ~max_live:256 () in
  List.iter
    (fun jobs ->
      let r = Session.Engine.run ~config ~jobs ~groups ~specs ~seed:1 () in
      Alcotest.(check int)
        (Printf.sprintf "jobs %d: every session completes" jobs)
        400 r.Session.Engine.completed;
      Alcotest.(check string)
        (Printf.sprintf "jobs %d digest" jobs)
        net_digest r.Session.Engine.digest)
    [ 1; 2 ]

(* --- suite ------------------------------------------------------------ *)

let () =
  Alcotest.run "net"
    [
      ( "link",
        [
          Alcotest.test_case "builders" `Quick test_link_builders;
          Alcotest.test_case "imperfection spec" `Quick
            test_link_imperfection_spec;
        ] );
      ( "topo",
        [
          Alcotest.test_case "scenarios and routes" `Quick test_topo_scenarios;
          Alcotest.test_case "informed delivers" `Quick
            test_topo_informed_delivers;
          Alcotest.test_case "universal recovers" `Quick
            test_topo_wrong_dialect_fails_universal_recovers;
        ] );
      ( "forward",
        [
          Alcotest.test_case "clean" `Quick test_forward_clean;
          Alcotest.test_case "wrong dialect stalls" `Quick
            test_forward_wrong_dialect_stalls;
          Alcotest.test_case "lossy+dup" `Quick test_forward_lossy_dup;
          Alcotest.test_case "noisy wire" `Quick test_forward_noisy_wire;
          Alcotest.test_case "universal" `Quick test_forward_universal;
        ] );
      ( "medium",
        [
          Alcotest.test_case "slot semantics" `Quick
            test_medium_slot_semantics;
          Alcotest.test_case "sticky attempts, quiet restarts" `Quick
            test_medium_first_attempt_sticks_and_restart_clears;
        ] );
      ( "mac",
        [
          Alcotest.test_case "group completes" `Quick test_mac_group_completes;
          QCheck_alcotest.to_alcotest prop_mac_jobs_deterministic;
          QCheck_alcotest.to_alcotest prop_mac_crash_restart_reaches_same_state;
        ] );
      ( "tables",
        [
          QCheck_alcotest.to_alcotest prop_forward_delivered;
          QCheck_alcotest.to_alcotest prop_topo_delivered;
          QCheck_alcotest.to_alcotest prop_arq_act;
          QCheck_alcotest.to_alcotest prop_mac_act;
          QCheck_alcotest.to_alcotest prop_forward_world;
          QCheck_alcotest.to_alcotest prop_topo_world;
          Alcotest.test_case "sticky edge copy-on-write" `Quick
            test_topo_sticky_copy_on_write;
          Alcotest.test_case "allocation gate (forward)" `Quick
            (alloc_gate ~server_class:"net-forward" ~max:180.);
          Alcotest.test_case "allocation gate (topo)" `Quick
            (alloc_gate ~server_class:"net-topo" ~max:140.);
          Alcotest.test_case "engine digest" `Quick test_net_engine_digest;
        ] );
    ]
