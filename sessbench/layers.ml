(* Rung replays: the per-layer cost of one session-round.

   A deterministic sample of the workload's sessions is replayed outside
   the engine, one rung at a time, each rung adding one layer:

   - exec: a silent user against the session's server (lib/core Exec
     stepper, History and World), for as many rounds as the universal
     rung takes;
   - universal: the session's own [make_user] (Levin enumeration and
     sensing), minus exec;
   - judge: [Outcome.judge] on the universal rung's history;
   - faults: the universal rung with the session's chaos stack applied
     to its server, minus universal;
   - ring: the faults rung with a ring sink ambient, minus faults.

   Shared-medium group members are left out of the sample: their
   servers are ports of a medium only the engine's arbiter advances. *)

open Goalcom
open Goalcom_prelude
module Engine = Goalcom_session.Engine
module Chaos = Goalcom_session.Chaos
module Ring = Goalcom_obs.Ring

let sample_target = 384

let rec gcd a b = if b = 0 then a else gcd b (a mod b)

(* A stride coprime to every modulus the mix cycles on (goal family 3,
   dialects 4 and 6, chaos targets 3, 5 and 7), so the sample cuts
   across all of them. *)
let sample ~n ~excluded =
  let rec coprime s = if gcd s 420 = 1 then s else coprime (s + 1) in
  let stride = coprime (max 1 (n / sample_target)) in
  List.filter (fun id -> not (excluded id)) (List.init ((n + stride - 1) / stride) (fun k -> k * stride))

type cost = { mutable ns : int; mutable words : float; mutable rounds : int }

let cost () = { ns = 0; words = 0.; rounds = 0 }

(* Time and minor words of [f ()], charged to [c] and to a span. *)
let measure spans ~root kind ~id c f =
  let w0 = Gc.minor_words () in
  let t0 = Clock.now () in
  let r = f () in
  let t1 = Clock.now () in
  let w1 = Gc.minor_words () in
  c.ns <- c.ns + (t1 - t0);
  c.words <- c.words +. (w1 -. w0);
  Spans.add spans ~kind ~req:id ~parent:root ~start:t0 t1;
  r

type result = {
  sessions : int;
  exec : cost;
  universal : cost;
  judge : cost;
  faults : cost;
  ring : cost;
  ring_events : int;  (** emitted into the ring *)
  ring_bytes : int;  (** encoded size of the events it retained *)
  ring_retained : int;  (** events the ring still held at the end *)
  ledger_total : int;  (** rounds in the traced universal replays *)
  ledger_wasted : int;  (** of which charged to losing candidates *)
}

let silent : Strategy.user = Strategy.stateless ~name:"silent" (fun _ -> Io.User.silent)

let rounds_of st = Exec.Stepper.rounds_executed st

let replay spans ~root ~seed ~chaos ~(specs : Engine.spec array) ~excluded =
  let ids = sample ~n:(Array.length specs) ~excluded in
  let exec = cost () and universal = cost () and judge = cost () in
  let faults = cost () and ring = cost () in
  let ring_events = ref 0 and ring_bytes = ref 0 and ring_retained = ref 0 in
  let ledger_total = ref 0 and ledger_wasted = ref 0 in
  let sink = Ring.create ~capacity:(1 lsl 16) in
  List.iter
    (fun id ->
      let spec = specs.(id) in
      let rng () = Rng.make ((seed * 1_000_003) + id) in
      let stepper ?(config = spec.exec_config) ?(user = fun () ->
          spec.make_user ~checkpoint:(Universal.new_checkpoint ())) server =
        Exec.Stepper.create ~config ~goal:spec.goal ~user:(user ()) ~server (rng ())
      in
      let to_end c st =
        let h = Exec.Stepper.run_to_end st in
        c.rounds <- c.rounds + rounds_of st;
        h
      in
      let history =
        measure spans ~root Spans.Universal ~id universal (fun () ->
            to_end universal (stepper spec.server))
      in
      let r = History.length history in
      ignore
        (measure spans ~root Spans.Exec ~id exec (fun () ->
             let config = { spec.exec_config with Exec.horizon = max 1 r } in
             to_end exec (stepper ~config ~user:(fun () -> silent) spec.server)));
      ignore
        (measure spans ~root Spans.Judge ~id judge (fun () ->
             judge.rounds <- judge.rounds + r;
             Outcome.judge spec.goal history));
      let faulty () = Goalcom_faults.Fault.apply (Chaos.stack_for chaos ~id) spec.server in
      ignore
        (measure spans ~root Spans.Faults ~id faults (fun () ->
             to_end faults (stepper (faulty ()))));
      Ring.clear sink;
      ignore
        (measure spans ~root Spans.Ring ~id ring (fun () ->
             Trace.with_sink (Ring.domain_sink sink) (fun () ->
                 to_end ring (stepper (faulty ())))));
      ring_events := !ring_events + Ring.length sink + Ring.evicted sink;
      ring_retained := !ring_retained + Ring.length sink;
      List.iter
        (fun ev -> ring_bytes := !ring_bytes + String.length (Goalcom_obs.Binary.event_to_string ev))
        (Ring.events sink);
      (* Untimed: the enumeration ledger of the universal rung. *)
      let buf = ref [] in
      Trace.with_sink
        (fun ev -> buf := ev :: !buf)
        (fun () -> ignore (Exec.Stepper.run_to_end (stepper spec.server)));
      let ledger = Goalcom_obs.Span.ledger_of_events (List.rev !buf) in
      ledger_total := !ledger_total + ledger.Goalcom_obs.Span.total_rounds;
      ledger_wasted := !ledger_wasted + ledger.Goalcom_obs.Span.wasted_rounds)
    ids;
  {
    sessions = List.length ids;
    exec;
    universal;
    judge;
    faults;
    ring;
    ring_events = !ring_events;
    ring_bytes = !ring_bytes;
    ring_retained = !ring_retained;
    ledger_total = !ledger_total;
    ledger_wasted = !ledger_wasted;
  }

let per_round_ns c = float_of_int c.ns /. float_of_int (max 1 c.rounds)
let per_round_words c = c.words /. float_of_int (max 1 c.rounds)

(* Layer figures per session-round: each rung minus the one below it. *)
type split = {
  exec_ns : float;
  exec_words : float;
  universal_ns : float;
  universal_words : float;
  judge_ns : float;
  judge_words : float;
  faults_ns : float;
  faults_words : float;
  ring_ns : float;
  ring_words : float;
}

let split r =
  let ns = per_round_ns and w = per_round_words in
  {
    exec_ns = ns r.exec;
    exec_words = w r.exec;
    universal_ns = ns r.universal -. ns r.exec;
    universal_words = w r.universal -. w r.exec;
    judge_ns = ns r.judge;
    judge_words = w r.judge;
    faults_ns = ns r.faults -. ns r.universal;
    faults_words = w r.faults -. w r.universal;
    ring_ns = ns r.ring -. ns r.faults;
    ring_words = w r.ring -. w r.faults;
  }
