(** Multi-session goals.

    The full version of the paper treats {e multi-session} goals: a
    finite goal played over and over, forever, where overall success
    means all but finitely many sessions succeed.  This is the natural
    bridge from finite to compact goals — and the setting in which the
    compact universal construction shines: early sessions fail while
    the enumeration explores, and once the right strategy is adopted
    every subsequent session passes.

    [goal ~session_length g] wraps a {e finite} goal [g]: each world of
    [g] is restarted every [session_length] rounds, the finite referee
    judges each session live on that session's world views (one
    {!Referee.step} per round, read at the session boundary), and
    the compact referee deems a prefix unacceptable exactly when the
    most recently completed session failed.

    Wire protocol: the wrapped world prefixes its messages to the user
    (and its state views) with a session header
    [Pair (Pair (Int completed_sessions, Text flag), inner)], where
    flag is ["none"], ["pass"] or ["fail"].  {!wrap_user} strips the
    header, forwards the inner payload to a base-goal user, and
    restarts it at session boundaries; {!sensing} reports a negative
    indication exactly when a session has just completed with a
    failure — so the compact universal user switches at most once per
    failed session. *)

type flag = No_session_yet | Pass | Fail

val flag_to_string : flag -> string

val header_of_msg : Msg.t -> (int * flag * Msg.t) option
(** Decode [(completed_sessions, flag, inner_payload)] from a wrapped
    message. *)

val goal : session_length:int -> Goal.t -> Goal.t
(** @raise Invalid_argument if the inner goal is compact or
    [session_length <= 0]. *)

val wrap_user : Strategy.user -> Strategy.user
(** Adapt a base-goal user to the wrapped wire protocol: strip headers,
    restart the inner strategy whenever the completed-session counter
    changes, and suppress its halts (multi-session executions run
    forever). *)

val wrap_class :
  Strategy.user Goalcom_automata.Enum.t ->
  Strategy.user Goalcom_automata.Enum.t

val sensing : Sensing.t
(** Negative exactly on the round where a failed session's result first
    becomes visible. *)

val session_results : History.t -> bool list
(** The pass/fail outcome of every completed session, in order —
    the statistic experiments report. *)
