(** The maze (navigation) goal — a finite goal for the Levin experiments.

    The {b world} is a grid with an agent position and a target; the
    {b server} is the "robot driver" that understands movement commands
    in its own dialect and forwards them to the world.  The world
    broadcasts (position, target) each round.  The goal is achieved once
    the agent has reached the target (monotone: reaching it counts even
    if later commands move the agent away).

    Canonical commands: directions 0..3 ({!Grid.north} etc.), plus
    [alphabet - 4] inert padding symbols for larger dialect classes. *)

open Goalcom
open Goalcom_automata

val min_alphabet : int
(** 4. *)

val driver : alphabet:int -> Strategy.server
(** Forwards canonical direction symbols to the world, ignores
    everything else.  @raise Invalid_argument on a small alphabet. *)

val server : alphabet:int -> Dialect.t -> Strategy.server
val server_class : alphabet:int -> Dialect.t Enum.t -> Strategy.server Enum.t

type tables
(** A scenario's static tables, indexed by cell [y * width + x]:
    - the route from every free cell to the target
      ([Grid.bfs_path grid cell target], the very list it returns);
    - every cell's broadcast [Codec.pos_pair cell target] and the world
      act [Io.World.say_user] carrying it.

    Built once by {!scenario} (at most [width * height] BFS runs),
    immutable afterwards, and shared read-only by every world and user
    built from the scenario — safely across domains.  Never rebuilt per
    goal, world, session spec or candidate user. *)

type scenario = private {
  grid : Grid.t;
  start : Grid.pos;
  target : Grid.pos;
  tables : tables;
}
(** Private: only {!scenario} builds one, so the tables always match
    the grid and target. *)

val scenario :
  ?blocked:(int * int) list ->
  width:int -> height:int -> start:Grid.pos -> target:Grid.pos -> unit ->
  scenario
(** Builds the grid and the scenario's {!tables}.
    @raise Invalid_argument if start or target is not free, or the
    target is unreachable. *)

val route : scenario -> Grid.pos -> Grid.pos -> int list option
(** [route s pos target] equals [Grid.bfs_path s.grid pos target].  When
    [target] is the scenario's target and [pos] is a free cell it is a
    table lookup; every other case (a garbled or corrupted broadcast)
    falls through to [Grid.bfs_path], so [None] results and
    [Invalid_argument] on a blocked or out-of-bounds endpoint are
    unchanged. *)

val world_of_scenario : scenario -> World.t
(** State view: [Pair (Pair (position), Pair (target))].  Each round's
    broadcast and act come from the scenario's tables, not fresh
    messages. *)

val arrived : Msg.t -> bool
(** [true] iff the message is [Pair (Pair (Int x, Int y), Pair (Int x,
    Int y))] — a broadcast showing position = target.  Allocation-free:
    a pattern match and two int compares.  The referee, {!sensing} and
    the informed user's halt check all use it. *)

val goal : scenarios:scenario list -> alphabet:int -> unit -> Goal.t

val informed_user : alphabet:int -> scenario:scenario -> Dialect.t -> Strategy.user
(** Knows the grid and the dialect: plans a shortest path from the
    broadcast position ({!route}, a table lookup for the scenario's
    target), replans when progress stalls, halts on arrival
    ({!arrived}). *)

val user_class :
  alphabet:int -> scenario:scenario -> Dialect.t Enum.t -> Strategy.user Enum.t

val sensing : Sensing.t
(** Positive iff some broadcast showed position = target. *)

val universal_user :
  ?schedule:Levin.slot Seq.t ->
  ?stats:Universal.stats ->
  alphabet:int ->
  scenario:scenario ->
  Dialect.t Enum.t ->
  Strategy.user
