(** Search strategies: which constraint to negate next.

    The four strategies of CREST that the paper evaluates in Figure 4:

    - {b BoundedDFS} — systematic depth-first exploration of the
      execution tree, ignoring constraints deeper than the bound. The
      only strategy that reliably passes deep sanity checks, hence
      COMPI's default (paper section II-B).
    - {b Random branch} — negate the last occurrence of a uniformly
      chosen conditional on the current path.
    - {b Uniform random} — negate a uniformly chosen position of the
      current path.
    - {b CFG-directed} — negate the position whose flipped side has the
      smallest static distance to an uncovered branch.

    The campaign protocol: after every execution call {!observe} (with
    [depth] = position after the negation that produced it, 0 for a
    fresh random run); call {!next} to get the next negation candidate;
    [None] means the strategy is exhausted and the campaign should restart
    with fresh random inputs. *)

type candidate = { record : Execution.t; index : int }

type kind =
  | Bounded_dfs of int  (** depth bound; CREST's default bound is 1_000_000 *)
  | Random_branch
  | Uniform_random
  | Cfg_directed of Minic.Cfg.t
  | Generational of int
      (** beyond the paper: SAGE-style generational search — every
          position (up to the bound) of each new path joins a candidate
          pool, and candidates whose flipped branch side is still
          uncovered are served first *)
  | Random_inputs
      (** the random-testing baseline (paper section VI-E): never yields a
          candidate, so every test is a fresh random restart *)

type t

val create : ?seed:int -> kind -> t
val kind_name : t -> string

val observe : t -> depth:int -> Execution.t -> unit

val next : t -> coverage:Coverage.t -> candidate option

val next_batch : t -> coverage:Coverage.t -> max:int -> candidate list
(** Up to [max] candidates drawn by repeated {!next} calls, with
    within-batch duplicates (same record, same index) dropped. Drawing
    is sequential on the caller's domain, so the batch is a pure
    function of strategy state — the parallel campaign engine relies on
    this for worker-count-independent results. Returns fewer than [max]
    (possibly none) when the strategy runs dry. *)

val stack_size : t -> int
(** Pending candidates (DFS only; 0 or 1 for the stateless strategies). *)
