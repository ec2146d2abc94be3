(** Per-domain span buffers: the one timing mechanism of the
    performance observatory.

    Every domain appends (kind, begin, end) spans to its own fixed-size
    chunk list — no lock, no reallocation on the hot path — and the main
    domain periodically {!drain}s all buffers into the global {!Sink}
    as [span] events. Ticks are integer wall-clock nanoseconds
    since {!enable}.

    When the timeline is off (the default), {!span} is a single ref
    read before a tail call of its argument — zero allocation — and
    {!record} is a no-op, so instrumentation can stay in place
    unconditionally on hot paths. *)

val enable : unit -> unit
(** Start the clock (tick 0 = now) and discard undrained spans. Call on
    the main domain before worker domains spawn, so every domain shares
    the epoch. *)

val disable : unit -> unit

val on : unit -> bool
(** One ref read; guard hand-rolled instrumentation with this. *)

val tick : unit -> int
(** Nanoseconds since {!enable}. Meaningless (but harmless) when off —
    callers on hot paths should guard with {!on} to skip the clock
    read. *)

val span : string -> (unit -> 'a) -> 'a
(** [span kind f] runs [f] and, when enabled, records its extent as one
    [kind] span on the calling domain. Exception-safe: a raising [f]
    still records. Disabled, this is exactly [f ()]. *)

val timed : string -> (unit -> 'a) -> 'a * float
(** [timed kind f] is [span kind f] that also returns [f]'s elapsed
    wall seconds, read from the same two clock readings as the span —
    for call sites that need the duration whether or not the timeline
    is on. Exception-safe like {!span}. *)

val record : kind:string -> t0:int -> t1:int -> unit
(** Record a span from explicit {!tick} readings — for intervals a
    closure cannot wrap, like a condition-variable wait. No-op when off. *)

val set_domain : int -> unit
(** Set the calling domain's reporting id (the pool worker index; the
    main domain defaults to 0). *)

val drain : unit -> unit
(** Emit every undrained span of every domain to the {!Sink} as
    {!Event.Span} lines. Main-domain only; safe while workers are
    parked at a pool barrier (recording and draining never touch the
    same entry). *)

val pending : unit -> int
(** Spans recorded but not yet drained, across all domains. *)
