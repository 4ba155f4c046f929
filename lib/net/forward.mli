(** Probabilistic forwarding: payload transfer over an imperfect link.

    The server is a {e relay}: it forwards the user's framed payload
    symbols to the world, which accumulates them.  The link is where
    the trouble lives — the relay may push every symbol through a noisy
    {!Link.wire} (symbol corruption via
    {!Goalcom_automata.Prob_mealy}), and fault stacks from
    {!Goalcom_faults.Fault} (spelled with the [loss:P] alias, plus
    [dup], [burst:...]) wrap the relay into a lossy, duplicating
    channel.  The goal is achieved when the world has received the
    whole payload word intact.

    The protocol is a stop-and-wait ARQ that tolerates all of it:
    frames carry a sequence number ([Pair (Sym data_cmd, Pair (Int
    seq, Int sym))]), the world appends a frame only when its sequence
    number is next (so duplicates are no-ops), and the world broadcasts
    [(payload, received)] every round, so the user retransmits until
    the prefix advances and issues [reset_cmd] when corruption has
    driven the prefix off course.  Command symbols — DATA and RESET —
    are what the server's dialect relabels; sequence numbers and
    payload travel as [Int]s, untouched by dialects. *)

open Goalcom
open Goalcom_automata

val data_cmd : int
val reset_cmd : int

val min_alphabet : int
(** 2: DATA and RESET. *)

type scenario

val scenario : payload_alphabet:int -> int list -> scenario
(** The payload word the world wants delivered.  The scenario also
    holds the empty world's state and broadcast, built once here and
    shared by every world of the scenario.
    @raise Invalid_argument on an empty word or out-of-range
    symbols. *)

val payload : scenario -> int list

(** {1 Servers (the relay, behind a dialect)} *)

val relay :
  ?wire:Prob_mealy.t -> alphabet:int -> payload_alphabet:int -> unit ->
  Strategy.server
(** The canonical-dialect relay.  [wire] (e.g. {!Link.wire}) is
    stepped once per forwarded frame with the per-step RNG — symbol
    corruption on the forward path.  @raise Invalid_argument if
    [alphabet < min_alphabet] or the wire's alphabet does not match. *)

val server :
  ?wire:Prob_mealy.t -> alphabet:int -> payload_alphabet:int -> Dialect.t ->
  Strategy.server

val server_class :
  ?wire:Prob_mealy.t -> alphabet:int -> payload_alphabet:int ->
  Dialect.t Enum.t -> Strategy.server Enum.t

(** {1 The goal} *)

val world_of_scenario : scenario -> World.t
(** State view [(payload, received)].  The view and its [say_user] act
    are rebuilt only when a frame is appended or a reset arrives; any
    other round returns the same state, view and act. *)

val delivered : Msg.t -> bool
(** The referee's predicate: the view decodes as [(payload, received)]
    ({!Goalcom_goals.Codec.pair_of_ints_opt}) with a non-empty payload
    equal to [received].  Reads the view in place and does not
    allocate. *)

val read_broadcast :
  Msg.t ->
  malformed:'a ->
  complete:'a ->
  beyond:'a ->
  next:(prefix:bool -> int -> int -> 'a) ->
  'a
(** One allocation-free walk over a broadcast [(payload, received)]:
    - [malformed] when it does not decode as two sequences of [Int]s;
    - [complete] when [received] equals the payload;
    - [next ~prefix k sym] when [received] has length [k], shorter than
      the payload, whose [k]-th symbol is [sym]; [prefix] says whether
      [received] is a prefix of the payload;
    - [beyond] otherwise: [received] differs from the payload and is at
      least as long.

    The ARQ user and {!Mac.policy} decide with it. *)

val referee : Referee.t
val goal : scenarios:scenario list -> alphabet:int -> unit -> Goal.t

(** {1 Users} *)

val informed_user : alphabet:int -> Dialect.t -> Strategy.user
(** Dialect-informed ARQ sender: retransmits the first missing symbol
    until the broadcast prefix advances, resets when the prefix
    derails, halts on completion.  Every decision is a function of the
    latest broadcast; the user keeps only its last decision, reused
    while the broadcast is physically the same. *)

val user_class : alphabet:int -> Dialect.t Enum.t -> Strategy.user Enum.t
val sensing : Sensing.t

val universal_user :
  ?schedule:Levin.slot Seq.t ->
  ?checkpoint:Universal.checkpoint ->
  ?stats:Universal.stats ->
  alphabet:int ->
  Dialect.t Enum.t ->
  Strategy.user
