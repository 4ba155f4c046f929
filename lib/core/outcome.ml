open Goalcom_prelude

type t = {
  achieved : bool;
  halted : bool;
  halt_round : int option;
  rounds : int;
  violations : int;
  violation_rounds : int list;
  last_violation : int option;
}

(* The judgement as a fold over the world-state sequence: O(1) state
   besides the compact violation rounds the outcome reports.  [view]
   tracks the latest view until the referee first accepts, then stays
   on that view. *)
type fold = {
  finite : bool;
  mutable judge : Referee.judge;
  mutable verdict : Referee.verdict;
  mutable rounds : int;
  mutable halt_round : int;  (* 0 = the user has not halted *)
  mutable violations_rev : int list;  (* compact referees only *)
  mutable accepted : bool;
  mutable view : Msg.t;
}

let start (goal : Goal.t) v0 =
  let judge, verdict = Referee.start goal.referee v0 in
  {
    finite = Referee.is_finite goal.referee;
    judge;
    verdict;
    rounds = 0;
    halt_round = 0;
    violations_rev = [];
    accepted = verdict = `Ok;
    view = v0;
  }

let observe f ~halted v =
  let judge, verdict = Referee.step f.judge v in
  f.judge <- judge;
  f.verdict <- verdict;
  f.rounds <- f.rounds + 1;
  if halted && f.halt_round = 0 then f.halt_round <- f.rounds;
  if (not f.finite) && verdict = `Violation then
    f.violations_rev <- f.rounds :: f.violations_rev;
  if not f.accepted then begin
    f.view <- v;
    if verdict = `Ok then f.accepted <- true
  end

let accepted_view f = f.view

let outcome ~tail_window f =
  let rounds = f.rounds and halted = f.halt_round > 0 in
  (* Finite referees decide once, on the final verdict (violations are
     derived from the decision); compact referees count the rounds
     whose prefix was unacceptable, and achieve when none falls in the
     tail window. *)
  let violation_rounds, achieved =
    if f.finite then
      let accepted = f.verdict = `Ok in
      ((if accepted then [] else [ rounds ]), halted && accepted)
    else begin
      let window =
        match tail_window with
        | Some w -> max 1 w
        | None -> max 1 (rounds / 5)
      in
      let late =
        match f.violations_rev with
        | last :: _ -> last > rounds - window
        | [] -> false
      in
      (List.rev f.violations_rev, rounds > 0 && not late)
    end
  in
  {
    achieved;
    halted;
    halt_round = (if halted then Some f.halt_round else None);
    rounds;
    violations = List.length violation_rounds;
    violation_rounds;
    last_violation = Listx.last_opt violation_rounds;
  }

let finish f = outcome ~tail_window:None f

let judge ?tail_window goal history =
  let f = start goal (History.initial_world_view history) in
  History.iter_rounds history ~f:(fun (r : History.Round.t) ->
      observe f ~halted:r.user_halted r.world_view);
  outcome ~tail_window f

let pp ppf t =
  Format.fprintf ppf
    "@[<h>{achieved=%b; halted=%b; rounds=%d; violations=%d; last_violation=%s}@]"
    t.achieved t.halted t.rounds t.violations
    (match t.last_violation with None -> "-" | Some r -> string_of_int r)
