(** Metrics aggregation over trace events.

    A {!t} is a mutable set of counters fed as a {!Goalcom.Trace.sink};
    {!summary} snapshots it into an immutable record.  Counters cover
    message traffic per party, symbols on the wire, sensing verdicts,
    enumeration switches/sessions/resumes, fault activations, referee
    violations — plus an optional per-round wall-clock timing whose
    percentiles come from a {!Rollup.Hist} of round durations in
    integer nanoseconds (the same histogram the session rollups use).

    Timing is out-of-band by design: trace events carry no stamps (they
    must be bit-identical across runs of the same seed), so durations
    are measured here, between [Round_start] events, with a caller-
    supplied clock.  Pass [Unix.gettimeofday] (or any monotonic float
    clock) as [?clock] to enable timing; without it the aggregation is
    pure counting and fully deterministic.  To meter a batch of trials,
    pass [sink t] to [Trial.run]/[Trial.run_par] as their [?sink]: the
    parallel runner replays every trial's events in trial order, so the
    counters equal a sequential run's. *)

open Goalcom

val msg_weight : Msg.t -> int
(** Symbols-on-the-wire weight: [Sym]/[Int] count 1, [Text] its length,
    [Silence] 0, containers the sum of their parts. *)

(** Per-round wall-clock statistics (seconds; percentiles in ns). *)
type timing = {
  timed : int;  (** rounds with a measured duration *)
  total_s : float;
  mean_s : float;
  min_s : float;
  max_s : float;
  p50_ns : int;
      (** median round duration: the upper bound of its histogram bucket,
          so within 1/32 above the true value (it can exceed [max_s]) *)
  p99_ns : int;
}

type summary = {
  runs : int;
  rounds : int;
  halts : int;
  user_msgs : int;  (** non-silent messages sent by the user *)
  server_msgs : int;
  world_msgs : int;
  wire_symbols : int;  (** total {!msg_weight} over all emissions *)
  senses : int;
  negatives : int;  (** negative sensing verdicts (subset of [senses]) *)
  switches : int;
  resumes : int;
  sessions : int;
  faults : int;
  violations : int;
  round_timing : timing option;  (** [None] when created without a clock *)
}

type t

val create : ?clock:(unit -> float) -> unit -> t
(** Fresh counters.  With [?clock], round durations are measured
    between consecutive [Round_start] events (the last round closes at
    [Run_end]). *)

val observe : t -> Trace.event -> unit
val sink : t -> Trace.sink
(** [sink t] is [observe t] — install it with {!Trace.with_sink} or
    pass it to [Exec.run ~sink]. *)

val summary : t -> summary
(** Snapshot; the counters keep accumulating afterwards. *)

val of_events : Trace.event list -> summary
(** Aggregate a recorded trace (clockless, so [round_timing = None]). *)

val to_table : summary -> (string * string) list
(** Label/value rows, for CLI tables. *)

val pp : Format.formatter -> summary -> unit
