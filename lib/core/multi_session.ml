open Goalcom_automata

type flag = No_session_yet | Pass | Fail

let flag_to_string = function
  | No_session_yet -> "none"
  | Pass -> "pass"
  | Fail -> "fail"

let flag_of_string = function
  | "none" -> Some No_session_yet
  | "pass" -> Some Pass
  | "fail" -> Some Fail
  | _ -> None

let header completed flag = Msg.Pair (Msg.Int completed, Msg.Text (flag_to_string flag))

let header_of_msg = function
  | Msg.Pair (Msg.Pair (Msg.Int completed, Msg.Text s), inner) -> begin
      match flag_of_string s with
      | Some flag -> Some (completed, flag, inner)
      | None -> None
    end
  | _ -> None

(* Each inner session is judged live: [judge] has absorbed the running
   session's world views, and the verdict of the step that ends a
   session is that session's result. *)
type state = {
  inner : World.Instance.t;
  round_in_session : int;
  completed : int;
  last : flag;
  judge : Referee.judge;
}

let wrap_world ~session_length ~referee base =
  let fresh ~completed ~last =
    let inner = World.Instance.create base in
    let judge, _ = Referee.start referee (World.Instance.view inner) in
    { inner; round_in_session = 0; completed; last; judge }
  in
  World.make
    ~name:(World.name base ^ "/multi-session")
    ~init:(fun () -> fresh ~completed:0 ~last:No_session_yet)
    ~step:(fun rng st (obs : Io.World.obs) ->
      let inner_act = World.Instance.step rng st.inner obs in
      let judge, verdict =
        Referee.step st.judge (World.Instance.view st.inner)
      in
      let st =
        if st.round_in_session + 1 < session_length then
          { st with round_in_session = st.round_in_session + 1; judge }
        else
          (* Session boundary: its verdict is final; restart the inner
             world. *)
          fresh ~completed:(st.completed + 1)
            ~last:(if verdict = `Ok then Pass else Fail)
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

(* Acceptability of a prefix depends only on its latest world view, so
   the incremental form is stateless. *)
let referee =
  let judge v =
    match v with
    | Msg.Pair (Msg.Pair (_, Msg.Text "fail"), _) -> `Violation
    | _ -> `Ok
  in
  Referee.compact_incremental "all-but-finitely-many-sessions-pass"
    ~init:(fun _v0 -> ((), `Ok))
    ~step:(fun () v -> ((), judge v))

let goal ~session_length (g : Goal.t) =
  if session_length <= 0 then
    invalid_arg "Multi_session.goal: session_length must be positive";
  if not (Referee.is_finite g.Goal.referee) then
    invalid_arg "Multi_session.goal: inner goal must be finite";
  Goal.make
    ~name:(Goal.name g ^ "/multi-session")
    ~worlds:
      (List.map
         (wrap_world ~session_length ~referee:g.Goal.referee)
         g.Goal.worlds)
    ~referee

let wrap_user inner =
  let module I = Strategy.Instance in
  Strategy.make
    ~name:("multi-session(" ^ Strategy.name inner ^ ")")
    ~init:(fun () -> (I.create inner, 0))
    ~step:(fun rng (inst, seen_completed) (obs : Io.User.obs) ->
      let seen_completed, inner_from_world =
        match header_of_msg obs.Io.User.from_world with
        | Some (completed, _, payload) ->
            if completed <> seen_completed then I.restart inst;
            (completed, payload)
        | None -> (seen_completed, obs.Io.User.from_world)
      in
      let act =
        I.step rng inst { obs with Io.User.from_world = inner_from_world }
      in
      ((inst, seen_completed), { act with Io.User.halt = false }))

let wrap_class cls =
  Enum.map ~name:("multi-session(" ^ Enum.name cls ^ ")") wrap_user cls

(* Negative only on the first round a session failure becomes visible:
   the previous event carries a different completed-session count.  The
   incremental state is just the previous event's world message. *)
let sensing =
  Sensing.incremental ~name:"session-just-failed"
    ~init:(fun () -> (None, Sensing.Positive))
    ~step:(fun prev (e : View.event) ->
      let v =
        match header_of_msg e.View.from_world with
        | Some (c1, Fail, _) -> begin
            match prev with
            | Some prev_msg -> begin
                match header_of_msg prev_msg with
                | Some (c2, _, _) when c2 = c1 -> Sensing.Positive
                | _ -> Sensing.Negative
              end
            | None -> Sensing.Negative
          end
        | _ -> Sensing.Positive
      in
      (Some e.View.from_world, v))

let session_results history =
  (* Scan world views for completed-count transitions and record the
     flag that each transition publishes. *)
  let _, results =
    List.fold_left
      (fun (seen, acc) view ->
        match view with
        | Msg.Pair (Msg.Pair (Msg.Int completed, Msg.Text s), _) -> begin
            match flag_of_string s with
            | Some flag when completed > seen && flag <> No_session_yet ->
                (completed, (flag = Pass) :: acc)
            | _ -> (seen, acc)
          end
        | _ -> (seen, acc))
      (0, [])
      (History.world_views history)
  in
  List.rev results
