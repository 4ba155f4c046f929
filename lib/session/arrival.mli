(** Deterministic arrival-rate processes for the session engine.

    A process the engine samples once per tick: how many of the
    not-yet-arrived sessions join now.  All sampling is driven by a
    dedicated {!Goalcom_prelude.Rng} stream, and the Poisson sampler
    uses no libm functions, so draws are bit-identical across hosts
    and jobs counts.  [Bang] and [Constant] consume no randomness at all —
    engine runs that use them keep their pre-existing digests. *)

type t =
  | Bang  (** the whole population arrives at tick 1 (the default) *)
  | Constant of int  (** a fixed batch per tick *)
  | Poisson of float  (** open-loop arrivals at a mean rate per tick *)
  | Mmpp of { rates : float array; switch : float }
      (** Markov-modulated Poisson: cycles through [rates] (geometric
          dwell, per-tick hop probability [switch]), sampling a
          Poisson batch at the current regime's rate. *)

type state
(** Mutable sampler state (the MMPP regime). *)

val start : t -> state

val max_rate : float
(** [1e6]: the largest Poisson or MMPP rate, in sessions per tick, that
    {!of_string} accepts.  {!draw} assumes rates within it. *)

val draw : t -> state -> rng:Goalcom_prelude.Rng.t -> tick:int -> remaining:int -> int
(** Arrivals for this tick, clamped to [remaining] (the sessions that
    have not yet arrived).  Poisson sampling stops once the batch
    reaches [remaining], so a draw costs O(min(rate, remaining)) RNG
    calls.  Must be called exactly once per tick with the process's own
    RNG stream — stream position is part of the engine's determinism
    contract. *)

val of_string : string -> (t, string) result
(** Accepts ["bang"] (or ["all"]), a bare integer ([0] = [Bang]),
    ["constant:N"], ["poisson:R"], and ["mmpp:R1,R2,..[:P]"] with
    per-tick regime-hop probability [P] (default [0.1]).  Rates must be
    finite and within [0, max_rate]; an error names the cap. *)

val to_string : t -> string
(** Inverse of {!of_string} (up to case and float formatting). *)
