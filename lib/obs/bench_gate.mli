(** The bench record and the perf-regression gate over the committed
    [BENCH_*.json] baselines.

    Every benchmark part emits one list of {!record}s.  [bench] writes
    it to the part's file with {!write_file}; [bench --check]
    re-measures, reads the committed file back with {!load_file}, and
    fails (exit 1) when {!compare_records} reports a regression.  The
    logic lives here so tests can drive it without running a benchmark.

    Default drift tolerance ({!record}): relative metrics — names
    ending in ["_pct"], like the tracing-overhead percentages — transfer
    across machines and get a tight default (35% relative, 10-point
    absolute slack; both bounds must be exceeded to count as a
    regression).  Absolute timings do not transfer — CI hardware is not
    the baseline's hardware — so their default tolerance is a loose
    300%, catching only order-of-magnitude blowups. *)

(** How [--check] judges a record.  Lower is better for every judged
    metric. *)
type policy =
  | Exact  (** any rise over the committed value fails *)
  | Drift of { tol_pct : float; slack : float }
      (** fails when the rise over the committed value exceeds both
          [tol_pct] percent and [slack] in the metric's unit *)
  | Ceiling of float
      (** fails above the bound; the committed value is ignored *)
  | Info  (** written to the file, never compared *)

type record = { name : string; value : float; policy : policy }

val record : ?policy:policy -> string -> float -> record
(** [policy] defaults to the name's default [Drift]: 35% and 10 points
    for a ["*_pct"] name, 300% and no slack otherwise. *)

type comparison = {
  metric : string;
  policy : policy;
  baseline : float option;
      (** the committed value, or a [Ceiling]'s bound; [None] when the
          committed file has no counterpart *)
  fresh : float;
  regressed : bool;
}

val judge : tol_pct:float -> slack:float -> baseline:float -> fresh:float -> bool
(** [true] iff fresh exceeds baseline by more than {e both} the relative
    tolerance and the absolute slack. *)

val compare_records :
  baseline:(string * float) list -> record list -> comparison list
(** One comparison per non-[Info] record, in record order.  An [Exact]
    or [Drift] record missing from [baseline] is a regressed comparison
    with [baseline = None] (a renamed metric must not quietly leave the
    gate); baseline metrics with no fresh record are skipped (a quick
    run may measure a subset). *)

val regressions : comparison list -> comparison list

val missing : comparison -> bool
(** The committed file had no counterpart. *)

val metrics_of_json : Json.t -> (string * float) list
(** Extraction from the BENCH file shape
    [{ ..scalars.., "results": [ {"name": n, <numeric fields>..}, ..]}]:
    each numeric field of a results entry becomes ["n/field"], and
    top-level ["*_pct"] scalars come along under their own key. *)

val load_file : string -> ((string * float) list, string) result

val write_file : string -> (string * Json.t) list -> record list -> unit
(** [write_file path header records] writes the BENCH file shape, the
    inverse of {!metrics_of_json}: the [header] fields first, then each
    record without a ['/'] as a top-level scalar, then ["results"], one
    entry per ["n"] of the ["n/field"] records in order of first
    appearance.  A top-level [Exact]/[Drift] record must be named
    ["*_pct"] to be read back. *)

val table : comparison list -> Goalcom_prelude.Table.t

val verdict_json : comparison list -> string
(** Machine-readable verdict:
    [{"verdict": "pass"|"fail", "compared": n, "regressed": k,
      "comparisons": [...]}], each comparison with its policy,
    baseline, fresh value, [tol_pct] and [slack]. *)
