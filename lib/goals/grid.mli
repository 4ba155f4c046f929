(** Grid worlds with obstacles — the spatial substrate of the maze goal. *)

type t = private {
  width : int;
  height : int;
  blocked : (int * int) list;  (** impassable cells *)
  free : string;
      (** row-major free-cell bitmap, ['\001'] at [y * width + x] for a
          free cell; built once by {!make}, immutable *)
}

type pos = int * int

val make : width:int -> height:int -> ?blocked:(int * int) list -> unit -> t
(** @raise Invalid_argument on non-positive dimensions or blocked cells
    out of bounds. *)

val in_bounds : t -> pos -> bool

val is_free : t -> pos -> bool
(** In bounds and not blocked.  O(1): bounds checks plus one byte of the
    free-cell bitmap — no scan of [blocked], no polymorphic compare. *)

(** Directions are the canonical movement commands. *)
val north : int
val east : int
val south : int
val west : int

val num_directions : int
(** 4. *)

val step_dir : pos -> int -> pos
(** Coordinates after moving one cell in a direction (no bounds check).
    @raise Invalid_argument on an unknown direction. *)

val move : t -> pos -> int -> pos
(** Like {!step_dir} but blocked or out-of-bounds moves stay put. *)

val bfs_path : t -> pos -> pos -> int list option
(** Shortest sequence of directions from source to destination, [None]
    if unreachable.  @raise Invalid_argument if either endpoint is not
    a free in-bounds cell. *)

val manhattan : pos -> pos -> int
