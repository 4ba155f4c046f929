open Goalcom
open Goalcom_automata
open Goalcom_servers
open Goalcom_goals

(* --- networks --------------------------------------------------------- *)

type net = {
  n_nodes : int;
  alpha : int; (* payload alphabet *)
  edges : (int * int * Mealy.t) array;
  outs : int array array; (* outs.(u) = indices into edges, port order *)
}

let net ~payload_alphabet ~nodes edges =
  if nodes < 1 then invalid_arg "Topo.net: need at least one node";
  if payload_alphabet < 1 then invalid_arg "Topo.net: empty payload alphabet";
  let edges = Array.of_list edges in
  Array.iter
    (fun (u, v, m) ->
      if u < 0 || u >= nodes || v < 0 || v >= nodes then
        invalid_arg "Topo.net: edge endpoint out of range";
      if m.Mealy.inputs <> payload_alphabet || m.Mealy.outputs <> payload_alphabet
      then invalid_arg "Topo.net: edge machine alphabet mismatch")
    edges;
  let outs = Array.make nodes [] in
  Array.iteri
    (fun e (u, _, _) -> outs.(u) <- e :: outs.(u))
    edges;
  {
    n_nodes = nodes;
    alpha = payload_alphabet;
    edges;
    outs = Array.map (fun l -> Array.of_list (List.rev l)) outs;
  }

let nodes n = n.n_nodes
let payload_alphabet n = n.alpha

let max_out_degree n =
  Array.fold_left (fun acc o -> max acc (Array.length o)) 0 n.outs

(* --- scenarios -------------------------------------------------------- *)

(* World state: the packet (node, carried symbol) plus every edge
   machine's state.  [estate] is never written in place: a step that
   changes an edge's state copies it, so states share arrays freely —
   every reset returns the scenario's one [pristine] packet. *)
type packet = { node : int; sym : int; estate : int array }

type scenario = {
  net : net;
  source : int;
  sink : int;
  payload : int;
  route : int list;
  (* Every reachable packet's broadcast, indexed [node * alpha + sym]:
     the view [[node; sym; sink; payload]] and its [say_user] act.
     Nodes are edge endpoints and symbols Mealy outputs, both
     range-checked by [net], so the tables cover every state. *)
  views : Msg.t array;
  says : Io.World.act array;
  pristine : packet;
}

(* Plan a simple path delivering the payload intact.  Along a post-reset
   simple path every edge is traversed for the first time, so each hop's
   transform is taken from machine state 0 — which is exactly what the
   world computes after the informed user's leading reset. *)
let find_route net ~source ~sink ~payload =
  let rec go node sym visited =
    if node = sink && sym = payload then Some []
    else
      Array.to_list (Array.mapi (fun p e -> (p, e)) net.outs.(node))
      |> List.find_map (fun (p, e) ->
             let _, v, m = net.edges.(e) in
             if List.mem v visited then None
             else
               let _, o = Mealy.step m 0 sym in
               Option.map (fun rest -> p :: rest) (go v o (v :: visited)))
  in
  go source payload [ source ]

let scenario ~net ~source ~sink ~payload =
  if source < 0 || source >= net.n_nodes || sink < 0 || sink >= net.n_nodes
  then invalid_arg "Topo.scenario: endpoint out of range";
  if payload < 0 || payload >= net.alpha then
    invalid_arg "Topo.scenario: payload out of range";
  match find_route net ~source ~sink ~payload with
  | None -> invalid_arg "Topo.scenario: no intact route from source to sink"
  | Some route ->
      let views =
        Array.init (net.n_nodes * net.alpha) (fun i ->
            Codec.ints [ i / net.alpha; i mod net.alpha; sink; payload ])
      in
      let pristine =
        {
          node = source;
          sym = payload;
          estate = Array.make (Array.length net.edges) 0;
        }
      in
      {
        net;
        source;
        sink;
        payload;
        route;
        views;
        says = Array.map Io.World.say_user views;
        pristine;
      }

let scenario_net s = s.net
let route s = s.route
let min_alphabet s = max_out_degree s.net + 1
let reset_sym s = max_out_degree s.net

let line ~hops ~payload_alphabet ~payload =
  if hops < 1 then invalid_arg "Topo.line: need at least one hop";
  let edges =
    List.init hops (fun i -> (i, i + 1, Link.clean ~alphabet:payload_alphabet))
  in
  let net = net ~payload_alphabet ~nodes:(hops + 1) edges in
  scenario ~net ~source:0 ~sink:hops ~payload

(* 0 -> 1 -> 3 scrambles and unscrambles (rot k then rot -k); 0 -> 2 -> 3
   looks direct but the second hop is stuck at symbol 0. *)
let diamond ~payload_alphabet ~payload =
  if payload_alphabet < 2 then invalid_arg "Topo.diamond: alphabet too small";
  if payload = 0 then
    invalid_arg "Topo.diamond: payload 0 defeats the stuck decoy";
  let a = payload_alphabet in
  let edges =
    [
      (0, 1, Link.relabel ~alphabet:a 1);
      (0, 2, Link.clean ~alphabet:a);
      (1, 3, Link.relabel ~alphabet:a (a - 1));
      (2, 3, Link.stuck ~alphabet:a 0);
    ]
  in
  let net = net ~payload_alphabet ~nodes:4 edges in
  scenario ~net ~source:0 ~sink:3 ~payload

let ring ~nodes:k ~sink ~payload_alphabet ~payload =
  if k < 3 then invalid_arg "Topo.ring: need at least three nodes";
  if sink <= 0 || sink >= k then invalid_arg "Topo.ring: sink out of range";
  if payload = 0 then
    invalid_arg "Topo.ring: payload 0 defeats the stuck decoy";
  let a = payload_alphabet in
  let cycle = List.init k (fun i -> (i, (i + 1) mod k, Link.clean ~alphabet:a)) in
  let chord = (0, sink, Link.stuck ~alphabet:a 0) in
  let net = net ~payload_alphabet ~nodes:k (chord :: cycle) in
  scenario ~net ~source:0 ~sink ~payload

(* --- the goal --------------------------------------------------------- *)

let packet_index s p = (p.node * s.net.alpha) + p.sym

let world_of_scenario s =
  let reset = reset_sym s in
  World.make
    ~name:
      (Printf.sprintf "net-world(%dn,%de,%d->%d)" s.net.n_nodes
         (Array.length s.net.edges) s.source s.sink)
    ~init:(fun () -> s.pristine)
    ~step:(fun _rng p (obs : Io.World.obs) ->
      let p =
        match obs.from_server with
        | Msg.Sym c when c = reset -> s.pristine
        | Msg.Sym c when c >= 0 && c < Array.length s.net.outs.(p.node) ->
            let e = s.net.outs.(p.node).(c) in
            let _, v, m = s.net.edges.(e) in
            let st = p.estate.(e) in
            let st' = m.Mealy.next.(st).(p.sym) in
            let estate =
              if st' = st then p.estate
              else begin
                let estate = Array.copy p.estate in
                estate.(e) <- st';
                estate
              end
            in
            { node = v; sym = m.Mealy.out.(st).(p.sym); estate }
        | _ -> p
      in
      (p, s.says.(packet_index s p)))
    ~view:(fun p -> s.views.(packet_index s p))

let delivered = function
  | Msg.Seq [ Msg.Int node; Msg.Int sym; Msg.Int sink; Msg.Int payload ] ->
      node = sink && sym = payload
  | _ -> false

let referee = Referee.finite_exists "payload-delivered" delivered

let check_alphabet ~alphabet scenarios =
  List.iter
    (fun s ->
      if alphabet < min_alphabet s then
        invalid_arg "Topo: alphabet too small for a scenario's out-degree")
    scenarios

let goal ~scenarios ~alphabet () =
  if scenarios = [] then invalid_arg "Topo.goal: no scenarios";
  check_alphabet ~alphabet scenarios;
  Goal.make
    ~name:(Printf.sprintf "net-topo(alphabet=%d)" alphabet)
    ~worlds:(List.map world_of_scenario scenarios)
    ~referee

(* --- servers ---------------------------------------------------------- *)

let driver ~alphabet =
  if alphabet < 2 then invalid_arg "Topo.driver: alphabet too small";
  Strategy.stateless ~name:"net-switch" (fun (obs : Io.Server.obs) ->
      match obs.from_user with
      | Msg.Sym c when c >= 0 && c < alphabet -> Io.Server.say_world (Msg.Sym c)
      | _ -> Io.Server.silent)

let server ~alphabet d = Transform.with_dialect d (driver ~alphabet)

let server_class ~alphabet dialects =
  Transform.dialect_class ~base:(driver ~alphabet) dialects

(* --- users ------------------------------------------------------------ *)

(* Reset-then-route: every plan starts with the reset symbol, so the
   packet and the edge machines are in the exact state the route was
   planned against — including recovery from moves garbled by earlier
   wrong-dialect sessions of a universal run. *)
type phase = Planless | Executing of int list | Settling of int

let settle_patience = 3

let informed_user ~alphabet ~scenario:s d =
  check_alphabet ~alphabet [ s ];
  let plan = reset_sym s :: s.route in
  let sends =
    Array.init alphabet (fun c ->
        Io.User.say_server (Dialect_msg.encode d (Msg.Sym c)))
  in
  let send c = sends.(c) in
  Strategy.make
    ~name:(Printf.sprintf "net-user@%s" (Format.asprintf "%a" Dialect.pp d))
    ~init:(fun () -> Planless)
    ~step:(fun _rng phase (obs : Io.User.obs) ->
      if delivered obs.from_world then (phase, Io.User.halt_act)
      else
        match phase with
        | Planless ->
            if Msg.is_silence obs.from_world then (Planless, Io.User.silent)
            else begin
              match plan with
              | c :: rest -> (Executing rest, send c)
              | [] -> (Settling 0, Io.User.silent)
            end
        | Executing (c :: rest) -> (Executing rest, send c)
        | Executing [] -> (Settling 0, Io.User.silent)
        | Settling k ->
            if k >= settle_patience then (Planless, Io.User.silent)
            else (Settling (k + 1), Io.User.silent))

let user_class ~alphabet ~scenario:s dialects =
  Enum.map
    ~name:(Printf.sprintf "net-users(%s)" (Enum.name dialects))
    (fun d -> informed_user ~alphabet ~scenario:s d)
    dialects

let sensing_window = 12

let sensing =
  Sensing.of_recent ~name:"payload-delivered" ~window:sensing_window (fun e ->
      delivered e.View.from_world)

let universal_user ?schedule ?checkpoint ?stats ~alphabet ~scenario:s dialects =
  Universal.finite ?schedule ?checkpoint ?stats
    ~enum:(user_class ~alphabet ~scenario:s dialects)
    ~sensing ()
