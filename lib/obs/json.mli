(** A minimal JSON reader and writer for the observability layer's own
    artefacts — JSONL trace lines ({!Jsonl.parse_line}) and the
    committed [BENCH_*.json] baselines ({!Bench_gate}).  Whole-value parsing,
    exact integers, objects as assoc lists in input order.  Not a
    general-purpose JSON library: good errors over streaming. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val parse : string -> (t, string) result
(** Parse one JSON value; trailing non-whitespace input is an error.
    [\uXXXX] escapes decode to single bytes (the writer only emits
    them for control characters) and error beyond [ÿ]. *)

val of_file : string -> (t, string) result
(** {!parse} the whole file; errors are prefixed with the path.  A file
    that cannot be read (missing, a directory) is an [Error] too. *)

(** {1 Accessors} — shape probes returning [None] on mismatch. *)

val member : string -> t -> t option
val string_opt : t -> string option
val int_opt : t -> int option
val bool_opt : t -> bool option

val number_opt : t -> float option
(** [Int] widened to float, or [Float]. *)

val list_opt : t -> t list option

(** {1 Writing} *)

val add_escaped : Buffer.t -> string -> unit
(** The body of a JSON string literal (no quotes): quote, backslash and
    control bytes escaped, every other byte raw. *)

val to_string : t -> string
(** Render a value, no trailing newline.  A container whose children
    are all scalars prints on one line; any other container puts each
    child on its own line, indented two spaces per level.  Floats print
    in the shortest form that {!parse} reads back as the same float
    (with a [.0] when integral); NaN and infinities print as [null]. *)
