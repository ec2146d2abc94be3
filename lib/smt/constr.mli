(** Constraints over linear integer expressions: [e rel 0].

    Path constraints recorded by the concolic engine and the inherent
    MPI-semantics constraints of COMPI (section III-B of the paper) are
    all of this form. *)

type rel = Eq | Ne | Lt | Le | Gt | Ge

type t = { exp : Linexp.t; rel : rel }

val make : Linexp.t -> rel -> t

val cmp : Linexp.t -> rel -> Linexp.t -> t
(** [cmp a rel b] is the constraint [a rel b], stored as [a - b rel 0]. *)

val negate : t -> t
(** Logical negation: [not (e < 0)] is [e >= 0], etc. *)

val holds : (Varid.t -> int) -> t -> bool
(** [holds lookup c] evaluates [c] under a concrete assignment. *)

val vars : t -> Varid.Set.t

val trivial : t -> bool option
(** [trivial c] is [Some b] when [c] mentions no variable and evaluates
    to [b]; [None] otherwise. *)

val normalize : t -> [ `Constr of t | `True | `False ]
(** Divide through by the gcd of the coefficients, tightening integer
    inequalities ([2x <= 5] becomes [x <= 2]) and deciding divisibility
    for (dis)equalities ([2x = 5] is [`False], [2x <> 5] is [`True]).
    Solution sets over the integers are preserved exactly. *)

val equal : t -> t -> bool

val compare : t -> t -> int
(** Orders by [rel_rank] of the relation, then by [Linexp.compare] of
    the expression. *)

val rel_rank : rel -> int
(** Position of a relation in the order {!compare} uses, in [0, 5]. *)

val hash : t -> int
(** Structural hash consistent with [equal] (see {!Linexp.hash}). *)

val pp : Format.formatter -> t -> unit
val rel_to_string : rel -> string

val dependency_closure : seed:Varid.Set.t -> t list -> t list * Varid.Set.t
(** [dependency_closure ~seed cs] returns the subset of [cs] transitively
    sharing a variable with [seed], together with all variables those
    constraints mention. This is the unit of work for incremental solving:
    only the closure of the negated constraint is re-solved, all other
    variables keep their previous (stale) values — the property COMPI's
    conflict resolution relies on (section III-C). *)
