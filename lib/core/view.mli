(** The user's view of an execution.

    Sensing functions (§3) are functions of "the history of the portion
    of the system visible to the user": the messages the user received
    and sent, round by round.  The view grows by one {!event} per round,
    and sensing consumes it that way — one event at a time, never as a
    materialised whole (see {!Sensing}). *)

type event = {
  round : int;
  from_server : Msg.t;
  from_world : Msg.t;  (** received by the user this round *)
  to_server : Msg.t;
  to_world : Msg.t;  (** sent by the user this round *)
  halted : bool;
}

val fold_events : History.t -> init:'a -> f:('a -> event -> 'a) -> 'a
(** Fold over the user-visible events of a history in chronological
    order, one per round: the event for round r pairs the user's round-r
    sends with the messages it received when acting at round r (emitted
    at round r-1).  This is the single pass incremental sensing rides
    on. *)
