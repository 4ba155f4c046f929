type verdict = [ `Ok | `Violation ]

let verdict_of_bool ok = if ok then `Ok else `Violation

(* A referee is a spawnable incremental judge: [init] consumes the
   initial world view and yields the empty-prefix verdict, [step] one
   round's world view.  The state type is existential so referees of
   different state shapes live in one [t]. *)
type t =
  | Spawn : {
      name : string;
      finite_ : bool;
      init : Msg.t -> 's * verdict;
      step : 's -> Msg.t -> 's * verdict;
    }
      -> t

let name (Spawn { name; _ }) = name
let is_finite (Spawn { finite_; _ }) = finite_

let finite_incremental name ~init ~step =
  Spawn { name; finite_ = true; init; step }

let compact_incremental name ~init ~step =
  Spawn { name; finite_ = false; init; step }

(* The common finite-referee shape — accepted once some world view
   satisfies the predicate — needs only a seen-it bool.  [||] stops
   consulting the predicate after the first hit, like [List.exists]. *)
let finite_exists name p =
  finite_incremental name
    ~init:(fun v0 ->
      let seen = p v0 in
      (seen, verdict_of_bool seen))
    ~step:(fun seen v ->
      let seen = seen || p v in
      (seen, verdict_of_bool seen))

type judge =
  | Judge : { s : 's; step : 's -> Msg.t -> 's * verdict } -> judge

let start (Spawn { init; step; _ }) v0 =
  let s, verdict = init v0 in
  (Judge { s; step }, verdict)

let step j v =
  match j with
  | Judge { s; step } ->
      let s, verdict = step s v in
      (Judge { s; step }, verdict)

let decide_finite t history =
  if not (is_finite t) then
    invalid_arg "Referee.decide_finite: compact referee";
  (* One fold: prime with the initial world view, absorb one world view
     per round, keep the last verdict. *)
  let j, verdict = start t (History.initial_world_view history) in
  let _, verdict =
    History.fold_rounds history
      ~f:(fun (j, _) (r : History.Round.t) -> step j r.world_view)
      ~init:(j, verdict)
  in
  verdict = `Ok

let violations t history =
  if is_finite t then
    if decide_finite t history then [] else [ History.length history ]
  else begin
    (* The init verdict (empty prefix) is discarded; each round's
       verdict judges the prefix ending there. *)
    let j, _ = start t (History.initial_world_view history) in
    let _, acc =
      History.fold_rounds history
        ~f:(fun (j, acc) (r : History.Round.t) ->
          let j, verdict = step j r.world_view in
          (j, if verdict = `Violation then r.index :: acc else acc))
        ~init:(j, [])
    in
    List.rev acc
  end
