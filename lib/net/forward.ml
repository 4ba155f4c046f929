open Goalcom
open Goalcom_automata
open Goalcom_servers
open Goalcom_goals

let data_cmd = 0
let reset_cmd = 1
let min_alphabet = 2

let check_alphabet alphabet =
  if alphabet < min_alphabet then
    invalid_arg "Forward: alphabet must have at least 2 symbols"

(* The world's state: the received prefix, its length, and the
   broadcast built from them — the view [(payload, received)] and the
   [say_user] act carrying it.  A round that appends nothing returns the
   same record, so its broadcast is shared and allocates nothing. *)
type state = {
  received : int list;
  len : int;
  view : Msg.t;
  act : Io.World.act;
}

type scenario = {
  doc : int list;
  doc_msg : Msg.t; (* [Codec.ints doc], shared by every view *)
  doc_len : int;
  empty : state; (* nothing received: every world's start and reset *)
}

let state_of doc_msg received len =
  let view = Msg.Pair (doc_msg, Codec.ints received) in
  { received; len; view; act = Io.World.say_user view }

let scenario ~payload_alphabet doc =
  if doc = [] then invalid_arg "Forward.scenario: empty payload";
  if payload_alphabet < 1 then invalid_arg "Forward.scenario: empty alphabet";
  List.iter
    (fun s ->
      if s < 0 || s >= payload_alphabet then
        invalid_arg "Forward.scenario: payload symbol out of range")
    doc;
  let doc_msg = Codec.ints doc in
  { doc; doc_msg; doc_len = List.length doc; empty = state_of doc_msg [] 0 }

let payload s = s.doc

(* --- the relay -------------------------------------------------------- *)

(* The relay holds only the wire machine's state.  The wire is stepped
   with the per-step RNG — never one captured at construction — so a
   relay shared by repeated runs (or incarnations) stays bit-identical
   for every jobs count; see the PR 1 Channel.drop_inbound audit. *)
let relay ?wire ~alphabet ~payload_alphabet () =
  check_alphabet alphabet;
  (match wire with
  | Some (w : Prob_mealy.t) ->
      if w.Prob_mealy.inputs <> payload_alphabet
         || w.Prob_mealy.outputs <> payload_alphabet
      then invalid_arg "Forward.relay: wire alphabet mismatch"
  | None -> ());
  let reset = Io.Server.say_world (Msg.Sym reset_cmd) in
  Strategy.make
    ~name:
      (match wire with
      | None -> "net-relay"
      | Some _ -> "net-relay(wire)")
    ~init:(fun () -> 0 (* wire state *))
    ~step:(fun rng wstate (obs : Io.Server.obs) ->
      match obs.from_user with
      | Msg.Pair (Msg.Sym c, (Msg.Pair (Msg.Int seq, Msg.Int sym) as frame))
        when c = data_cmd && seq >= 0 && sym >= 0 && sym < payload_alphabet -> (
          match wire with
          | None -> (wstate, Io.Server.say_world frame)
          | Some w ->
              let wstate, sym = Prob_mealy.step rng w wstate sym in
              (wstate, Io.Server.say_world (Msg.Pair (Msg.Int seq, Msg.Int sym))))
      | Msg.Sym c when c = reset_cmd -> (wstate, reset)
      | _ -> (wstate, Io.Server.silent))

let server ?wire ~alphabet ~payload_alphabet d =
  Transform.with_dialect d (relay ?wire ~alphabet ~payload_alphabet ())

let server_class ?wire ~alphabet ~payload_alphabet dialects =
  Transform.dialect_class
    ~base:(relay ?wire ~alphabet ~payload_alphabet ())
    dialects

(* --- the goal --------------------------------------------------------- *)

let world_of_scenario s =
  World.make
    ~name:(Printf.sprintf "net-forward-world(%d syms)" s.doc_len)
    ~init:(fun () -> s.empty)
    ~step:(fun _rng st (obs : Io.World.obs) ->
      let st =
        match obs.from_server with
        | Msg.Pair (Msg.Int seq, Msg.Int sym) when seq = st.len && seq < s.doc_len
          ->
            state_of s.doc_msg (st.received @ [ sym ]) (st.len + 1)
        | Msg.Sym c when c = reset_cmd -> s.empty
        | _ -> st
      in
      (st, st.act))
    ~view:(fun st -> st.view)

(* Both walks below read the broadcast [Pair (Seq doc, Seq received)]
   in place.  They accept exactly what [Codec.pair_of_ints_opt] decodes
   — two sequences of [Int]s — and allocate nothing. *)
let rec all_ints = function
  | [] -> true
  | Msg.Int _ :: rest -> all_ints rest
  | _ -> false

let rec same_ints doc received =
  match (doc, received) with
  | [], [] -> true
  | Msg.Int x :: doc, Msg.Int y :: received -> x = y && same_ints doc received
  | _ -> false

let delivered = function
  | Msg.Pair (Msg.Seq (_ :: _ as doc), Msg.Seq received) ->
      same_ints doc received
  | _ -> false

(* [k] elements of both sequences read so far, all [Int]s; [prefix]
   says whether they agreed. *)
let rec walk k prefix doc received ~malformed ~complete ~beyond ~next =
  match (doc, received) with
  | [], [] -> if prefix then complete else beyond
  | Msg.Int x :: doc, [] ->
      if all_ints doc then next ~prefix k x else malformed
  | [], _ :: _ -> if all_ints received then beyond else malformed
  | Msg.Int x :: doc, Msg.Int y :: received ->
      walk (k + 1) (prefix && x = y) doc received ~malformed ~complete ~beyond
        ~next
  | _ -> malformed

let read_broadcast view ~malformed ~complete ~beyond ~next =
  match view with
  | Msg.Pair (Msg.Seq doc, Msg.Seq received) ->
      walk 0 true doc received ~malformed ~complete ~beyond ~next
  | _ -> malformed

let referee = Referee.finite_exists "payload-forwarded" delivered

let goal ~scenarios ~alphabet () =
  check_alphabet alphabet;
  if scenarios = [] then invalid_arg "Forward.goal: no scenarios";
  Goal.make
    ~name:(Printf.sprintf "net-forward(alphabet=%d)" alphabet)
    ~worlds:(List.map world_of_scenario scenarios)
    ~referee

(* --- users ------------------------------------------------------------ *)

(* Stop-and-wait: the latest broadcast alone decides the next frame, so
   losses retransmit, duplicates dedup at the world's sequence check,
   and a derailed prefix (wire corruption that slipped through) is
   cleared and resent.  The user remembers the broadcast it last
   decided on: the world hands out one shared broadcast until its state
   changes, so a retransmission reuses the frame it already encoded. *)
type decision = { seen : Msg.t; act : Io.User.act }

(* Silence decodes to no broadcast at all: the user stays silent. *)
let no_decision = { seen = Msg.Silence; act = Io.User.silent }

let informed_user ~alphabet d =
  check_alphabet alphabet;
  let send m = Io.User.say_server (Dialect_msg.encode d m) in
  let reset = send (Msg.Sym reset_cmd) in
  let next ~prefix k sym =
    if prefix then
      send (Msg.Pair (Msg.Sym data_cmd, Msg.Pair (Msg.Int k, Msg.Int sym)))
    else reset
  in
  Strategy.make
    ~name:(Printf.sprintf "net-arq@%s" (Format.asprintf "%a" Dialect.pp d))
    ~init:(fun () -> no_decision)
    ~step:(fun _rng last (obs : Io.User.obs) ->
      if obs.from_world == last.seen then (last, last.act)
      else
        let act =
          read_broadcast obs.from_world ~malformed:Io.User.silent
            ~complete:Io.User.halt_act ~beyond:reset ~next
        in
        ({ seen = obs.from_world; act }, act))

let user_class ~alphabet dialects =
  Enum.map
    ~name:(Printf.sprintf "net-arq-users(%s)" (Enum.name dialects))
    (fun d -> informed_user ~alphabet d)
    dialects

let sensing_window = 12

let sensing =
  Sensing.of_recent ~name:"payload-forwarded" ~window:sensing_window (fun e ->
      delivered e.View.from_world)

let universal_user ?schedule ?checkpoint ?stats ~alphabet dialects =
  Universal.finite ?schedule ?checkpoint ?stats
    ~enum:(user_class ~alphabet dialects)
    ~sensing ()
