(** Enumerations of (possibly infinite) countable classes.

    The paper's universal constructions are parameterised by an
    enumeration of the user-strategy class; universality is always
    relative to such a class.  An enumeration is a partial function from
    indices to values: [get i] is [Some v] for every [i] below the
    cardinality ([None] past the end of a finite enumeration). *)

type 'a t

val make : name:string -> ?card:int -> (int -> 'a option) -> 'a t
(** [make ~name ?card get] wraps an indexing function.  When [card] is
    given, [get i] must be [Some _] exactly for [0 <= i < card]; the
    wrapper enforces the [None] side. *)

val name : 'a t -> string

val cardinality : 'a t -> int option
(** [None] means (conceptually) infinite or unknown. *)

val get : 'a t -> int -> 'a option
val get_exn : 'a t -> int -> 'a

val of_list : name:string -> 'a list -> 'a t

val map : ?name:string -> ('a -> 'b) -> 'a t -> 'b t

val append : 'a t -> 'a t -> 'a t
(** Concatenation; the first enumeration must be finite.  When the
    combined cardinality overflows [int], the result's cardinality is
    [None] ("too many to count") rather than a silently truncated
    [max_int].  @raise Invalid_argument if the first side is not
    finite. *)

val interleave : 'a t -> 'a t -> 'a t
(** Fair interleaving (even indices from the first, odd from the second);
    both may be infinite.  For finite inputs the tail is the leftover. *)

val product : 'a t -> 'b t -> ('a * 'b) t
(** Pairs, enumerated by Cantor diagonalisation when either side is
    infinite, and row-major when both are finite. *)

val filter_finite : ('a -> bool) -> 'a t -> 'a t
(** Restriction of a finite enumeration (materialised).
    @raise Invalid_argument on infinite input. *)

val to_list : 'a t -> 'a list
(** All elements of a finite enumeration.
    @raise Invalid_argument on infinite input. *)

val take : int -> 'a t -> 'a list
(** First [n] elements (fewer if the enumeration is shorter). *)

val find_index : ?limit:int -> ('a -> bool) -> 'a t -> int option
(** Smallest index whose element satisfies the predicate, scanning at
    most [limit] indices (default 10_000). *)

val tabulate : name:string -> int -> (int -> 'a) -> 'a t
(** [tabulate ~name n f] enumerates [f 0 .. f (n-1)] lazily. *)

val naturals : int t
(** 0, 1, 2, ... *)
