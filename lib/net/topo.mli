(** Topology goals: end-to-end delivery through an unknown network.

    The server is the switch fabric of a directed graph whose edges
    carry payload symbols through per-edge Mealy machines ({!Link}):
    a clean edge forwards the payload intact, a scrambler relabels it,
    a stuck edge destroys it.  The world holds one packet — a node and
    the payload symbol it currently carries, plus every edge machine's
    state — and moves it along the out-edge the server names.  The goal
    is achieved when the packet sits at the sink carrying the {e
    original} payload, so a route is only good if the edge transforms
    along it compose to the identity on that symbol.

    The user's command alphabet is out-port selection: symbol [p] means
    "forward along the current node's [p]-th out-edge", and the
    distinguished symbol {!reset_sym} teleports the packet back to the
    source with fresh edge states (the recovery command — a universal
    user's wrong-dialect probes wander the packet into unrecoverable
    corners otherwise).  Servers face the user through a dialect, as
    everywhere in the library: the class the universal user conquers is
    {!server_class}. *)

open Goalcom
open Goalcom_automata

(** {1 Networks and scenarios} *)

type net

val net :
  payload_alphabet:int -> nodes:int -> (int * int * Mealy.t) list -> net
(** [net ~payload_alphabet ~nodes edges] builds a directed graph.  Each
    edge is [(src, dst, machine)]; machines must be
    [payload_alphabet]-in/out.  A node's out-ports are numbered in
    edge-list order.  @raise Invalid_argument on bad dimensions. *)

val nodes : net -> int
val payload_alphabet : net -> int
val max_out_degree : net -> int

type scenario

val scenario : net:net -> source:int -> sink:int -> payload:int -> scenario
(** Also builds, once, every reachable packet's world broadcast (view
    and act, one per node and carried symbol) and the pristine packet,
    shared read-only by every world of the scenario.
    @raise Invalid_argument if endpoints or payload are out of range,
    or no simple path delivers the payload intact (edge states are 0
    along a post-reset simple path, which is how routes are planned and
    validated). *)

val scenario_net : scenario -> net
val route : scenario -> int list
(** The validated port route (shortest first by DFS order, not
    necessarily globally shortest). *)

val min_alphabet : scenario -> int
(** Ports plus the reset symbol: [max_out_degree + 1]. *)

val reset_sym : scenario -> int

(** Canned scenarios (used by E19 and the test-suite):
    - [line]: [hops] clean edges in a row;
    - [diamond]: two branches, of which only the doubly-scrambled one
      composes back to the identity (the clean-looking branch is
      stuck);
    - [ring]: a clean directed cycle with a stuck decoy chord from the
      source straight to the sink. *)

val line : hops:int -> payload_alphabet:int -> payload:int -> scenario
val diamond : payload_alphabet:int -> payload:int -> scenario
val ring : nodes:int -> sink:int -> payload_alphabet:int -> payload:int -> scenario

(** {1 The goal} *)

val world_of_scenario : scenario -> World.t
(** View [[node; sym; sink; payload]], taken from the scenario's table.
    Edge machine states are copied only when a step changes one, so a
    reset returns the shared pristine packet. *)

val delivered : Msg.t -> bool
(** The referee's predicate on world views: exactly four [Int]s with
    the packet at the sink carrying the payload.  Reads the view in
    place and does not allocate. *)

val referee : Referee.t
val goal : scenarios:scenario list -> alphabet:int -> unit -> Goal.t

(** {1 Servers (the switch, behind a dialect)} *)

val driver : alphabet:int -> Strategy.server
val server : alphabet:int -> Dialect.t -> Strategy.server
val server_class : alphabet:int -> Dialect.t Enum.t -> Strategy.server Enum.t

(** {1 Users} *)

val informed_user : alphabet:int -> scenario:scenario -> Dialect.t -> Strategy.user
(** Knows the topology and the dialect: emits reset followed by the
    planned route, then replans if the (lagging) world broadcast still
    shows the packet undelivered. *)

val user_class :
  alphabet:int -> scenario:scenario -> Dialect.t Enum.t -> Strategy.user Enum.t

val sensing : Sensing.t
(** Bounded-window scan for a delivered view — safe (a positive means
    the payload reached the sink intact) and viable (delivery is seen
    within the window). *)

val universal_user :
  ?schedule:Levin.slot Seq.t ->
  ?checkpoint:Universal.checkpoint ->
  ?stats:Universal.stats ->
  alphabet:int ->
  scenario:scenario ->
  Dialect.t Enum.t ->
  Strategy.user
