(** Per-domain span buffers: the one timing mechanism of the
    performance observatory.

    Every domain appends (kind, begin, end, self) spans to its own
    fixed-size chunk list — no lock, no reallocation on the hot path —
    and the main domain periodically {!drain}s all buffers into the
    global {!Sink} as [span] events. Ticks are integer monotonic-clock
    nanoseconds since {!enable}.

    Spans are exclusive by construction. Each domain keeps a stack of
    its open spans; whatever {!span}, {!timed} or {!record} completes
    while another span is open on the same domain charges its extent to
    that innermost open span. A span's [self] is its extent minus what
    its children were charged, so the [self] values of one domain's
    spans never overlap and sum to the time its top-level spans cover.

    Invariant: no span is ever open inside a rank fiber. A fiber can be
    suspended at an MPI call and resumed later on the same domain after
    other fibers ran; a span open across that suspension would wrap
    their work and break the stack's nesting. The scheduler times fiber
    resumes itself and records the sum as one ["rank"] span per run.

    When the timeline is off (the default), {!span} is a single ref
    read before a tail call of its argument — zero allocation — and
    {!record} is a no-op, so instrumentation can stay in place
    unconditionally on hot paths. *)

val enable : unit -> unit
(** Start the clock (tick 0 = now) and discard undrained spans. Call on
    the main domain, outside any open span, before worker domains
    spawn, so every domain shares the epoch. *)

val disable : unit -> unit
(** Stop recording. Spans already open still close and record. *)

val on : unit -> bool
(** One ref read; guard hand-rolled instrumentation with this. *)

val tick : unit -> int
(** Nanoseconds since {!enable}. Meaningless (but harmless) when off —
    callers on hot paths should guard with {!on} to skip the clock
    read. *)

val span : string -> (unit -> 'a) -> 'a
(** [span kind f] runs [f] as an open [kind] span on the calling
    domain: spans completed inside [f] charge it, and its own extent is
    charged to the span enclosing it. Exception-safe: a raising [f]
    still records. Disabled, this is exactly [f ()]. *)

val timed : string -> (unit -> 'a) -> 'a * float
(** [timed kind f] is [span kind f] that also returns its elapsed
    seconds — for call sites that need the duration whether or not the
    timeline is on. Exception-safe like {!span}. *)

val record : kind:string -> t0:int -> t1:int -> unit
(** Record a leaf span from explicit {!tick} readings — for time a
    closure cannot wrap, like the scheduler's summed fiber resumes. Its
    self time is its whole extent, which is charged to the enclosing
    open span. No-op when off. *)

val set_domain : int -> unit
(** Set the calling domain's reporting id (the pool worker index; the
    main domain defaults to 0). *)

val drain : unit -> unit
(** Emit every undrained span of every domain to the {!Sink} as
    {!Event.Span} lines. Main-domain only; safe while workers are
    parked at a pool barrier (recording and draining never touch the
    same entry). A span still open is emitted by the drain after it
    closes. *)

val pending : unit -> int
(** Spans recorded but not yet drained, across all domains. *)
