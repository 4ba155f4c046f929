(** Judging a (truncated) execution against a goal.

    Compact goals are defined over infinite executions; a horizon-bounded
    run is judged by the standard truncation: the goal counts as achieved
    iff no prefix in the last [tail_window] rounds is unacceptable (the
    violations "stopped happening").  Finite goals are achieved iff the
    user halted and the referee accepts the history at that point. *)

type t = {
  achieved : bool;
  halted : bool;
  halt_round : int option;
  rounds : int;  (** rounds actually executed *)
  violations : int;  (** compact: number of unacceptable prefixes *)
  violation_rounds : int list;  (** ascending round indices *)
  last_violation : int option;
}

(** {2 Judging as a fold}

    One judging path: a fold primed with the initial world view
    absorbs one round at a time, in O(1) state (plus the violation
    rounds of a compact referee), so a live run can be judged as it
    executes and never needs its {!History.t}.  {!judge} is the same
    fold run over a recorded history. *)

type fold

val start : Goal.t -> Msg.t -> fold
(** A fold for [goal]'s referee, primed with the initial world view. *)

val observe : fold -> halted:bool -> Msg.t -> unit
(** Absorb the next round: the world view after it, and whether the
    user had halted by then. *)

val finish : fold -> t
(** The outcome of the rounds observed so far, judging a compact goal
    over the default tail window (see {!judge}).  Pure: the fold may
    keep observing afterwards. *)

val accepted_view : fold -> Msg.t
(** The earliest world view (the initial one included) whose prefix
    the referee accepts — for the monotone finite referees, the state
    that achieved the goal.  The last view observed while no prefix
    has been accepted. *)

val judge : ?tail_window:int -> Goal.t -> History.t -> t
(** The fold run over the history's rounds.  [tail_window] defaults to
    [max 1 (length / 5)]; for finite goals it is ignored. *)

val pp : Format.formatter -> t -> unit
