(** The supervised concurrent session engine.

    Multiplexes thousands of goal-oriented sessions — each a resumable
    {!Goalcom.Exec.Stepper} run — over an event-driven scheduler with
    supervision: restart policies with exponential backoff
    ({!Policy}), per-server-class circuit breakers ({!Breaker}),
    bounded admission with load shedding ({!Admission}), per-session
    round budgets and deadlines, and a deterministic chaos schedule
    ({!Chaos}).

    {b Scheduler.}  Time advances in {e ticks}.  Each tick: chaos
    kills fire, due restarts are retried through their class breaker,
    new arrivals are admitted / queued / shed, queued sessions are
    promoted into free slots, every running session advances by up to
    [quantum] rounds {e in parallel} over the domain pool, and then
    all supervision verdicts (completion judging, wedge detection,
    deadlines, failure handling) are made sequentially in session-id
    order.

    {b Determinism.}  Everything that consumes randomness or mutates
    shared state (admission, breakers, backoff jitter) happens in the
    sequential phase in session-id order; the parallel phase only
    advances disjoint state machines.  A run is therefore bit-identical
    — outcomes, digest and merged trace — for every [jobs] count and
    across repeats with the same seed and chaos schedule.

    {b Judging.}  A running session keeps its stepper and an
    {!Goalcom.Outcome.fold}, never a history: the parallel quantum
    feeds the fold every round it executes, and the sequential phase
    reads the verdict and the achieved goal state from it.  Live
    memory per session is bounded however long its runs.

    {b Tracing.}  When a sink is ambient at {!run} entry, each
    session's events (its incarnations' run events plus the engine's
    [Trace.Supervise] decisions) are buffered per session and replayed
    into the sink in session-id order, so [Trace.split_runs] on one
    session's slice segments its incarnations exactly as for a single
    crash-resume run.  The replay runs as the sessions settle: at the
    end of every tick (before [on_tick]) the buffers of the longest
    prefix of session ids that are terminal are replayed and dropped —
    a group member counts only once its whole group is terminal, since
    its arbiter may still report for it — and whatever remains is
    replayed when the run ends.  The sink sees the same events in the
    same order as a single replay at the end, while the engine holds
    only the buffers of sessions past the settled prefix. *)

(** What one session runs: a goal, a user factory (fresh strategy per
    incarnation, all sharing one {!Goalcom.Universal.checkpoint} so
    restarts resume the enumeration where the crash left it), the
    server it talks to, and the per-run execution config.
    [server_class] names the breaker the session trips and obeys. *)
type spec = {
  sname : string;
  server_class : string;
  goal : Goalcom.Goal.t;
  make_user : checkpoint:Goalcom.Universal.checkpoint -> Goalcom.Strategy.user;
  server : Goalcom.Strategy.server;
  exec_config : Goalcom.Exec.config;
}

(** A shared-world session group: [members] are session ids whose
    servers are ports of one shared arbiter (a
    [Goalcom_net.Medium], typically).  Each tick, after the parallel
    quantum and before any supervision verdict, the engine calls
    [arbitrate] for every group with a non-terminal member — on the
    supervising domain, in group list order — so one scheduler tick is
    one arbitration slot.  The contract that keeps multi-user runs
    bit-identical across jobs counts: during the parallel quantum a
    member's server may touch only its own per-member cells of the
    shared state; everything cross-member (winner selection, collision
    feedback, counters) belongs in [arbitrate].  [report] feeds
    supervision observations (e.g. ["deliver"], ["collide"]) into the
    supervise stream attributed to a member session; like every
    supervise hook it is an observer — outcomes never depend on it. *)
type group = {
  gname : string;
  members : int array;
  arbitrate :
    tick:int ->
    report:(session:int -> action:string -> detail:string -> unit) ->
    unit;
}

type config = {
  quantum : int;  (** rounds per session per tick *)
  max_live : int;  (** concurrently running sessions *)
  queue_capacity : int;  (** waiting room (shared by all classes); overflow is shed *)
  arrivals : Arrival.t;  (** how many sessions arrive per tick *)
  classes : (string * int) list;
      (** fair-share [(server_class, weight)] admission classes; see
          {!Admission}.  [[]] = one FIFO queue, as before *)
  round_budget : int;  (** rounds per incarnation before a wedge kill; 0 = off *)
  deadline : int;  (** ticks from arrival to forced termination; 0 = off *)
  max_ticks : int;  (** scheduler runs at most this many ticks *)
  policy : Policy.t;  (** restart policy, shared by all sessions *)
  breaker_threshold : int;  (** consecutive failures tripping a class breaker *)
  breaker_cooldown : int;  (** ticks an open breaker waits before probing *)
}

val config :
  ?quantum:int ->
  ?max_live:int ->
  ?queue_capacity:int ->
  ?arrivals:Arrival.t ->
  ?classes:(string * int) list ->
  ?round_budget:int ->
  ?deadline:int ->
  ?max_ticks:int ->
  ?policy:Policy.t ->
  ?breaker_threshold:int ->
  ?breaker_cooldown:int ->
  unit ->
  config
(** Defaults: [quantum = 32], [max_live = 64], [queue_capacity = 4096],
    [arrivals = Arrival.Bang], [classes = \[\]], [round_budget = 0],
    [deadline = 0], [max_ticks = 10_000], [policy = Policy.default],
    [breaker_threshold = 5], [breaker_cooldown = 8]. *)

val default_config : config

type outcome =
  | Done of { rounds : int; incarnations : int; state : string }
      (** Achieved its goal.  [rounds] spans all incarnations; [state]
          is the achieved goal state — the earliest world view the
          goal's referee accepts ([Msg.to_string]); the crash-restart
          equivalence property pins it equal across interrupted and
          uninterrupted runs. *)
  | Shed  (** refused at admission: queue full *)
  | Gave_up of { incarnations : int }
      (** the restart policy's failure budget ran out *)
  | Deadline_exceeded of { incarnations : int }
  | Unfinished  (** still live when [max_ticks] ran out *)

type report = {
  outcomes : outcome array;  (** indexed by session id *)
  ticks : int;
  completed : int;
  shed : int;
  gave_up : int;
  deadlines : int;
  unfinished : int;
  restarts : int;  (** restart incarnations actually started *)
  trips : int;  (** breaker trips summed over server classes *)
  total_rounds : int;
  p50_rounds : float;  (** median rounds-to-goal over completed sessions *)
  p99_rounds : float;
  p999_rounds : float;
  digest : string;  (** hex digest of all per-session outcomes *)
  checkpoints : Goalcom.Universal.checkpoint array;
      (** each session's final enumeration checkpoint (indexed by id).
          For a [Done] session running a universal user, [saved_index]
          is the index of the last candidate adopted — the one that
          achieved the goal — which is what a warm-start cache records
          for the session's server class. *)
}

val run :
  ?chaos:Chaos.t ->
  ?config:config ->
  ?jobs:int ->
  ?groups:group list ->
  ?on_supervise:
    (tick:int -> session:int -> action:string -> detail:string -> unit) ->
  ?on_tick:(tick:int -> unit) ->
  specs:spec array ->
  seed:int ->
  unit ->
  report
(** Run every session to a terminal outcome (or until [max_ticks]).
    Session [i] runs [specs.(i)]; per-session RNGs are split from
    [seed] in id order up front, so outcomes do not depend on
    scheduling.  [jobs] defaults to
    [Goalcom_par.Pool.default_jobs ()].  [groups] attach shared-world
    arbiters (see {!type:group}); member ids must be in range.

    [on_supervise] observes every supervision decision (the
    [Trace.Supervise] vocabulary) as it is made — whether or not a
    trace sink is ambient — so a live aggregator (a [Rollup]) can
    report fleet stats without the engine retaining any trace.
    [on_tick] fires at the end of each scheduler tick, after the
    sequential supervision phase (a live display's refresh point).
    Both run on the supervising domain in the deterministic sequential
    phase: decisions arrive in (tick, session-id) order for every
    [jobs] count.  They are observers only — outcomes, digest and
    merged trace never depend on them. *)
