(* The second representation of referees and sensors, kept as oracles.

   The library judges one way: a referee is a fold over world views and
   a sensor is a fold over view events.  Before that, a referee could
   also be a list predicate (a finite one deciding the chronological
   world views, a compact one judging each prefix given its views most
   recent first), and every sensor carried a whole-view [sense]
   function over a materialised [View.t].  Those definitions live here,
   unchanged, so the equivalence suites can keep comparing each library
   fold against the evaluation it replaced.  Shared by every test
   executable. *)

open Goalcom
open Goalcom_prelude

(* --- round lists --- *)

(* A history's rounds as a chronological list: the accessor the library
   dropped in favour of [History.fold_rounds]/[iter_rounds]. *)
let rounds h =
  List.rev (History.fold_rounds h ~init:[] ~f:(fun acc r -> r :: acc))

(* --- whole views --- *)

(* The user's view as a value: events most recent first, so extension
   is O(1). *)
module View = struct
  type t = { rev : Goalcom.View.event list; len : int }

  let empty = { rev = []; len = 0 }
  let extend t e = { rev = e :: t.rev; len = t.len + 1 }
  let length t = t.len
  let events t = List.rev t.rev
  let events_rev t = t.rev
  let latest t = match t.rev with [] -> None | e :: _ -> Some e
  let last_n n t = List.rev (Listx.take n t.rev)

  (* The view as it was [k] rounds ago. *)
  let drop_latest k t =
    if k <= 0 then t
    else begin
      let rec go k rev =
        if k = 0 then rev
        else match rev with [] -> [] | _ :: rest -> go (k - 1) rest
      in
      { rev = go k t.rev; len = max 0 (t.len - k) }
    end

  let of_history h = Goalcom.View.fold_events h ~init:empty ~f:extend

  (* Views after round 1, 2, ..., in order. *)
  let prefixes h =
    let _, acc =
      Goalcom.View.fold_events h ~init:(empty, []) ~f:(fun (view, acc) e ->
          let view = extend view e in
          (view, view :: acc))
    in
    List.rev acc
end

(* --- list-predicate referees --- *)

(* A finite list predicate as a referee: the judge accumulates the
   world views and re-decides the whole prefix every step. *)
let finite name decide =
  Referee.finite_incremental name
    ~init:(fun v0 -> ([ v0 ], Referee.verdict_of_bool (decide [ v0 ])))
    ~step:(fun views v ->
      let views = v :: views in
      (views, Referee.verdict_of_bool (decide (List.rev views))))

(* A compact list predicate as a referee: the judge conses each view
   and calls the predicate once per round.  The initial view is
   recorded without judging it (the 0-round prefix was never submitted
   to a compact predicate). *)
let compact name acceptable =
  Referee.compact_incremental name
    ~init:(fun v0 -> ([ v0 ], `Ok))
    ~step:(fun views v ->
      let views = v :: views in
      (views, Referee.verdict_of_bool (acceptable views)))

(* The compact predicate's violation rounds, judging every prefix from
   scratch over a freshly built most-recent-first list: one predicate
   call per prefix, O(n^2) in all. *)
let compact_violations acceptable history =
  let n = History.length history in
  let rounds = Array.init n (History.round_exn history) in
  let acc = ref [] in
  for i = n - 1 downto 0 do
    let views = ref [ History.initial_world_view history ] in
    for k = 0 to i do
      views := rounds.(k).History.Round.world_view :: !views
    done;
    if not (acceptable !views) then
      acc := rounds.(i).History.Round.index :: !acc
  done;
  !acc

(* [Referee.violations] re-derived by replaying a fresh judge over every
   prefix — O(n^2). *)
let violations_prefix referee history =
  if Referee.is_finite referee then Referee.violations referee history
  else begin
    let n = History.length history in
    let rounds = Array.init n (History.round_exn history) in
    let acc = ref [] in
    let v0 = History.initial_world_view history in
    for i = n - 1 downto 0 do
      let j = ref (fst (Referee.start referee v0)) in
      let verdict = ref `Ok in
      for k = 0 to i do
        let j', v = Referee.step !j rounds.(k).History.Round.world_view in
        j := j';
        verdict := v
      done;
      if !verdict = `Violation then
        acc := rounds.(i).History.Round.index :: !acc
    done;
    !acc
  end

(* A finite referee's decision as a list predicate over chronological
   world views, initial first. *)
let decider referee = function
  | [] -> invalid_arg "Legacy.decider: empty world-view list"
  | v0 :: rest ->
      let j, verdict = Referee.start referee v0 in
      let _, verdict =
        List.fold_left (fun (j, _) v -> Referee.step j v) (j, verdict) rest
      in
      verdict = `Ok

(* --- whole-view sensors --- *)

type sense = View.t -> Sensing.verdict

let of_bool b = if b then Sensing.Positive else Sensing.Negative

let of_latest ~empty p view =
  match View.latest view with None -> of_bool empty | Some e -> of_bool (p e)

let of_recent ~window p view =
  of_bool (List.exists p (Listx.take window (View.events_rev view)))

(* The derived whole-view face of a fold sensor: replay the view's
   events through [step]. *)
let replay ~init ~step view =
  let s0, v0 = init () in
  snd (List.fold_left (fun (s, _) e -> step s e) (s0, v0) (View.events view))

(* Tolerant masking by re-sensing up to [window] recent prefixes of the
   view: Negative iff at least [threshold] of them are Negative. *)
let tolerant ~window ~threshold (sense : sense) view =
  let depth = min window (View.length view) in
  if depth = 0 then Sensing.Positive
  else begin
    let raw0 = sense view in
    let rec negs k acc =
      if k >= depth || acc >= threshold then acc
      else
        let v = sense (View.drop_latest k view) in
        negs (k + 1) (if v = Sensing.Negative then acc + 1 else acc)
    in
    let n = negs 1 (if raw0 = Sensing.Negative then 1 else 0) in
    if n >= threshold then Sensing.Negative else Sensing.Positive
  end

(* A whole-view sensor as a library sensor: the instance accumulates
   the view and calls [sense] once per observed event. *)
let sensing ~name (sense : sense) =
  Sensing.incremental ~name
    ~init:(fun () -> (View.empty, sense View.empty))
    ~step:(fun view e ->
      let view = View.extend view e in
      (view, sense view))

let of_predicate ~name p = sensing ~name (fun view -> of_bool (p view))

(* The whole-view verdict on every prefix of a history's view. *)
let verdicts (sense : sense) history = List.map sense (View.prefixes history)
