open Goalcom_prelude

type verdict = Positive | Negative

(* A live sensing instance: per-round state plus the verdict on the
   prefix absorbed so far.  The state type is existential so sensors
   with different state shapes share one type; [last] is lazy so that
   spawning a sensor with effects in its empty-view verdict (e.g. an
   rng-drawing corruption wrapper) performs them only when the verdict
   is actually read. *)
type state =
  | State : {
      s : 's;
      last : verdict Lazy.t;
      step : 's -> View.event -> 's * verdict;
    }
      -> state

type t = { name : string; spawn : unit -> state }

let start t = t.spawn ()

let observe st e =
  match st with
  | State { s; step; last = _ } ->
      let s, v = step s e in
      State { s; last = Lazy.from_val v; step }

let verdict (State { last; _ }) = Lazy.force last

let incremental ~name ~init ~step =
  {
    name;
    spawn =
      (fun () ->
        let s, v = init () in
        State { s; last = Lazy.from_val v; step });
  }

(* Most goal sensors only inspect the latest event: O(1) per round. *)
let of_latest ~name ~empty p =
  let empty_v = if empty then Positive else Negative in
  let judge e = if p e then Positive else Negative in
  {
    name;
    spawn =
      (fun () ->
        State
          {
            s = ();
            last = Lazy.from_val empty_v;
            step = (fun () e -> ((), judge e));
          });
  }

(* Positive iff some event within the last [window] satisfies [p]:
   state is (events seen, index of the most recent hit). *)
let of_recent ~name ~window p =
  if window <= 0 then invalid_arg "Sensing.of_recent: window must be positive";
  let verdict_of seen last_hit =
    match last_hit with
    | Some h when h > seen - window -> Positive
    | _ -> Negative
  in
  {
    name;
    spawn =
      (fun () ->
        State
          {
            s = (0, None);
            last = Lazy.from_val Negative;
            step =
              (fun (seen, last_hit) e ->
                let seen = seen + 1 in
                let last_hit = if p e then Some seen else last_hit in
                ((seen, last_hit), verdict_of seen last_hit));
          });
  }

let constant v =
  let name =
    match v with Positive -> "always-positive" | Negative -> "always-negative"
  in
  {
    name;
    spawn =
      (fun () ->
        State { s = (); last = Lazy.from_val v; step = (fun () _ -> ((), v)) });
  }

let verdicts t history =
  let _, acc =
    View.fold_events history
      ~init:(start t, [])
      ~f:(fun (st, acc) e ->
        let st = observe st e in
        (st, (e.View.round, verdict st) :: acc))
  in
  List.rev acc

let final t history =
  verdict (View.fold_events history ~init:(start t) ~f:observe)

let negatives_after t history round =
  let _, n =
    View.fold_events history ~init:(start t, 0) ~f:(fun (st, n) e ->
        let st = observe st e in
        let n =
          if e.View.round > round && verdict st = Negative then n + 1 else n
        in
        (st, n))
  in
  n

(* The verdict at round r is the raw verdict on the view as it stood at
   round r; the tolerant verdict looks at the raw verdicts over the last
   [window] rounds and only reports Negative when at least [threshold]
   of them are Negative.  This keeps compact safety for persistent
   failures (a failing execution eventually makes every recent raw
   verdict Negative, so tolerant negatives also recur forever) while a
   transient fault — one bad round inside a healthy stretch — no longer
   evicts the correct strategy.  Do NOT use this with finite-goal
   halting: making Negative harder makes Positive easier, which is the
   unsafe direction when positives trigger halting.

   The instance keeps the last [window] raw verdicts in a ring buffer
   alongside a live instance of the base sensor, so each round costs
   one base observation plus O(1) ring maintenance. *)
let tolerant ~window ~threshold t =
  if window <= 0 then invalid_arg "Sensing.tolerant: window must be positive";
  if threshold <= 0 || threshold > window then
    invalid_arg "Sensing.tolerant: threshold must be in 1..window";
  let name = Printf.sprintf "%s/tolerant(%d-of-%d)" t.name threshold window in
  let mask_event ~round ~negs =
    (* A raw negative masked by a healthy recent window is the
       interesting tolerant-sensing event: record it when tracing (every
       unmasked verdict is already visible to the universal user's own
       [Sense] emission). *)
    match Trace.current () with
    | None -> ()
    | Some sink ->
        sink
          (Trace.Sense
             {
               round;
               sensor = name ^ "/mask";
               positive = true;
               clock = negs;
               patience = threshold;
             })
  in
  let spawn () =
    (* Ring of the last [window] raw verdicts; [negs] counts the
       Negatives currently in the ring, so the masked/unmasked decision
       is O(1) regardless of how long the execution has run. *)
    let ring = Array.make window Positive in
    let inner = ref (start t) in
    let filled = ref 0 in
    let pos = ref 0 in
    let negs = ref 0 in
    let step () e =
      inner := observe !inner e;
      let raw0 = verdict !inner in
      if !filled = window then begin
        if ring.(!pos) = Negative then decr negs
      end
      else incr filled;
      ring.(!pos) <- raw0;
      if raw0 = Negative then incr negs;
      pos := (!pos + 1) mod window;
      if !negs >= threshold then ((), Negative)
      else begin
        if raw0 = Negative then mask_event ~round:e.View.round ~negs:!negs;
        ((), Positive)
      end
    in
    State { s = (); last = Lazy.from_val Positive; step }
  in
  { name; spawn }

(* One Bernoulli draw per Negative the inner sensor reports.  The
   empty-view verdict stays lazy, so its draw happens only if it is read
   before the first observation (as [halt_on_positive] does). *)
let corrupt_unsafe ~flip_to_positive rng t =
  let corrupt = function
    | Positive -> Positive
    | Negative ->
        if Rng.bernoulli rng flip_to_positive then Positive else Negative
  in
  {
    name = Printf.sprintf "%s/unsafe(%.2f)" t.name flip_to_positive;
    spawn =
      (fun () ->
        let inner = start t in
        State
          {
            s = inner;
            last = lazy (corrupt (verdict inner));
            step =
              (fun inner e ->
                let inner = observe inner e in
                (inner, corrupt (verdict inner)));
          });
  }

let corrupt_unviable t = { (constant Negative) with name = t.name ^ "/unviable" }

(* A user that runs [inner] but halts as soon as sensing turns positive.
   Sensing state is fed exactly the events {!View.fold_events} yields:
   the event for round r pairs the round-r sends with the
   messages received when acting at round r (i.e. emitted at round r-1);
   sensing therefore sees the rounds completed so far.  One observation
   per round — the engine never re-steps a halted user, so the verdict
   of the live instance is always current. *)
let halt_on_positive sensing inner =
  let module I = Strategy.Instance in
  Strategy.make
    ~name:(Printf.sprintf "halt-on-%s(%s)" sensing.name (Strategy.name inner))
    ~init:(fun () -> (I.create inner, start sensing, None))
    ~step:(fun rng (inst, st, pending) (obs : Io.User.obs) ->
      let st =
        match pending with
        | None -> st
        | Some (prev_obs, (prev_act : Io.User.act)) ->
            observe st
              {
                View.round = prev_obs.Io.User.round;
                from_server = prev_obs.Io.User.from_server;
                from_world = prev_obs.Io.User.from_world;
                to_server = prev_act.to_server;
                to_world = prev_act.to_world;
                halted = false;
              }
      in
      match verdict st with
      | Positive -> ((inst, st, None), Io.User.halt_act)
      | Negative ->
          let act = { (I.step rng inst obs) with Io.User.halt = false } in
          ((inst, st, Some (obs, act)), act))

type report = {
  property : string;
  holds : bool;
  checked : int;
  counterexamples : string list;
}

let pp_report ppf r =
  Format.fprintf ppf "@[<v>%s: %s (%d cases checked)%a@]" r.property
    (if r.holds then "HOLDS" else "VIOLATED")
    r.checked
    (fun ppf -> function
      | [] -> ()
      | exs ->
          List.iter (fun e -> Format.fprintf ppf "@,  counterexample: %s" e) exs)
    r.counterexamples

let max_counterexamples = 5

let build_report property checked counterexamples =
  {
    property;
    holds = counterexamples = [];
    checked;
    counterexamples = Listx.take max_counterexamples counterexamples;
  }

let tail_cutoff ?tail_window history =
  let rounds = History.length history in
  let window =
    match tail_window with Some w -> max 1 w | None -> max 1 (rounds / 5)
  in
  rounds - window

(* Each trial is paired with a different non-deterministic world of the
   goal, so the validators quantify (by sampling) over the world choice
   as well. *)
let config_for_trial ?config ~goal trial =
  let base = match config with Some c -> c | None -> Exec.config () in
  Exec.{ base with world_choice = trial mod Goal.num_worlds goal }

let check_safety_compact ?config ?tail_window ?(trials = 3) ~goal ~users
    ~servers t rng =
  let trials = max trials (Goal.num_worlds goal) in
  let checked = ref 0 in
  let counterexamples = ref [] in
  List.iter
    (fun user ->
      List.iter
        (fun server ->
          for trial = 1 to trials do
            incr checked;
            let trial_rng = Rng.split rng in
            let config = config_for_trial ?config ~goal trial in
            let outcome, history =
              Exec.run_outcome ~config ?tail_window ~goal ~user ~server
                trial_rng
            in
            if not outcome.Outcome.achieved then begin
              let cutoff = tail_cutoff ?tail_window history in
              let late_negatives = negatives_after t history cutoff in
              if late_negatives = 0 then
                counterexamples :=
                  Printf.sprintf
                    "user=%s server=%s trial=%d: goal failed but no negative \
                     indication after round %d"
                    (Strategy.name user) (Strategy.name server) trial cutoff
                  :: !counterexamples
            end
          done)
        servers)
    users;
  build_report
    (Printf.sprintf "compact safety of %s for %s" t.name (Goal.name goal))
    !checked (List.rev !counterexamples)

let check_viability_compact ?config ?tail_window ?(trials = 3) ~goal ~user_for
    ~servers t rng =
  let trials = max trials (Goal.num_worlds goal) in
  let checked = ref 0 in
  let counterexamples = ref [] in
  List.iter
    (fun server ->
      let user = user_for server in
      for trial = 1 to trials do
        incr checked;
        let trial_rng = Rng.split rng in
        let config = config_for_trial ?config ~goal trial in
        let outcome, history =
          Exec.run_outcome ~config ?tail_window ~goal ~user ~server trial_rng
        in
        let cutoff = tail_cutoff ?tail_window history in
        let late_negatives = negatives_after t history cutoff in
        if not outcome.Outcome.achieved then
          counterexamples :=
            Printf.sprintf "server=%s trial=%d: designated user %s failed the goal"
              (Strategy.name server) trial (Strategy.name user)
            :: !counterexamples
        else if late_negatives > 0 then
          counterexamples :=
            Printf.sprintf
              "server=%s trial=%d: %d negative indications after round %d"
              (Strategy.name server) trial late_negatives cutoff
            :: !counterexamples
      done)
    servers;
  build_report
    (Printf.sprintf "compact viability of %s for %s" t.name (Goal.name goal))
    !checked (List.rev !counterexamples)

let check_safety_finite ?config ?(trials = 3) ~goal ~users ~servers t rng =
  let trials = max trials (Goal.num_worlds goal) in
  let checked = ref 0 in
  let counterexamples = ref [] in
  List.iter
    (fun user ->
      let wrapped = halt_on_positive t user in
      List.iter
        (fun server ->
          for trial = 1 to trials do
            incr checked;
            let trial_rng = Rng.split rng in
            let config = config_for_trial ?config ~goal trial in
            let outcome, _ =
              Exec.run_outcome ~config ~goal ~user:wrapped ~server trial_rng
            in
            (* If the wrapped user halted, it was on a positive indication;
               safety demands the referee then accepts. *)
            if outcome.Outcome.halted && not outcome.Outcome.achieved then
              counterexamples :=
                Printf.sprintf
                  "user=%s server=%s trial=%d: halted on a positive indication \
                   at round %s but the referee rejects"
                  (Strategy.name user) (Strategy.name server) trial
                  (match outcome.Outcome.halt_round with
                  | Some r -> string_of_int r
                  | None -> "?")
                :: !counterexamples
          done)
        servers)
    users;
  build_report
    (Printf.sprintf "finite safety of %s for %s" t.name (Goal.name goal))
    !checked (List.rev !counterexamples)

let check_viability_finite ?config ?(trials = 3) ~goal ~user_for ~servers t rng
    =
  let trials = max trials (Goal.num_worlds goal) in
  let checked = ref 0 in
  let counterexamples = ref [] in
  List.iter
    (fun server ->
      let user = user_for server in
      for trial = 1 to trials do
        incr checked;
        let trial_rng = Rng.split rng in
        let config = config_for_trial ?config ~goal trial in
        let history = Exec.run ~config ~goal ~user ~server trial_rng in
        let got_positive =
          List.exists (fun (_, v) -> v = Positive) (verdicts t history)
        in
        if not got_positive then
          counterexamples :=
            Printf.sprintf
              "server=%s trial=%d: user %s never received a positive indication"
              (Strategy.name server) trial (Strategy.name user)
            :: !counterexamples
      done)
    servers;
  build_report
    (Printf.sprintf "finite viability of %s for %s" t.name (Goal.name goal))
    !checked (List.rev !counterexamples)
