(* Per-domain span buffers for the performance observatory.

   A span is (kind, begin tick, end tick, self ns) recorded by whichever
   domain ran the work. The hot path takes no lock and — when the
   timeline is off — allocates nothing: [span] is one ref read before
   tail-calling its argument. When on, a record is four array stores
   into the recording domain's own chunk plus one atomic increment;
   chunks are fixed-size and never reallocated, so the draining (main)
   domain can read entries [0, published) of a foreign buffer without
   racing a resize. The atomic publication counter is bumped after the
   stores, which under the OCaml 5 memory model orders them before any
   reader that observes the new count.

   Nesting is resolved here, once, at record time: each domain keeps a
   stack of its open spans with the nanoseconds their children have
   been charged, so a closing span knows its self time and charges its
   extent to its parent. Consumers just sum [self].

   Ticks are integer monotonic-clock nanoseconds since [enable], read
   by an allocation-free C stub. Workers inherit the epoch set by the
   main domain before the pool spawns; a drain turns undrained entries
   into {!Event.Span} lines through the global {!Sink}, so spans land in
   the same JSONL stream as everything else and the profile fold is just
   another pure trace consumer. *)

let chunk_size = 1024

(* entry [i] is [kinds.(i)] and [ints.(3i .. 3i+2)] = t0, t1, self *)
type chunk = { kinds : string array; ints : int array; mutable next : chunk option }

let new_chunk () =
  { kinds = Array.make chunk_size ""; ints = Array.make (3 * chunk_size) 0; next = None }

type buf = {
  mutable dom : int;  (* reporting id: pool worker index, main = 0 *)
  head : chunk;
  mutable tail : chunk;
  mutable tail_used : int;
  published : int Atomic.t;  (* entries safe for a foreign reader *)
  mutable drained : int;  (* entries already emitted; main domain only *)
  (* open-span stack, owner domain only: at [2d], [2d+1] the begin tick
     of the span at depth [d] and the ns its completed children charged *)
  mutable stack : int array;
  mutable depth : int;
}

(* Registry of every buffer ever created, so the drainer finds buffers
   of joined domains too. The mutex guards registration only — never
   the recording path. *)
let registry : buf list ref = ref []
let registry_mu = Mutex.create ()

external clock_ns : unit -> (int[@untagged]) = "compi_clock_ns_byte" "compi_clock_ns"
[@@noalloc]

let on_flag = ref false
let epoch = ref 0

let key =
  Domain.DLS.new_key (fun () ->
      let c = new_chunk () in
      let b =
        {
          dom = (if Domain.is_main_domain () then 0 else (Domain.self () :> int));
          head = c;
          tail = c;
          tail_used = 0;
          published = Atomic.make 0;
          drained = 0;
          stack = Array.make 32 0;
          depth = 0;
        }
      in
      Mutex.lock registry_mu;
      registry := b :: !registry;
      Mutex.unlock registry_mu;
      b)

let on () = !on_flag

let tick () = clock_ns () - !epoch

let set_domain d = (Domain.DLS.get key).dom <- d

let push b kind t0 t1 self =
  if b.tail_used = chunk_size then begin
    let c = new_chunk () in
    b.tail.next <- Some c;
    b.tail <- c;
    b.tail_used <- 0
  end;
  let i = b.tail_used in
  b.tail.kinds.(i) <- kind;
  b.tail.ints.(3 * i) <- t0;
  b.tail.ints.((3 * i) + 1) <- t1;
  b.tail.ints.((3 * i) + 2) <- self;
  b.tail_used <- i + 1;
  (* publish after the stores: a reader that sees the new count sees
     the entry (Atomic is sequentially consistent) *)
  Atomic.incr b.published

(* Charge [ns] to the innermost open span, if any. *)
let charge b ns =
  if b.depth > 0 then begin
    let i = (2 * b.depth) - 1 in
    b.stack.(i) <- b.stack.(i) + ns
  end

(* Open a span at [t0]; returns its depth, the handle [close] takes. *)
let open_at b t0 =
  let d = b.depth in
  if 2 * d = Array.length b.stack then b.stack <- Array.append b.stack b.stack;
  b.stack.(2 * d) <- t0;
  b.stack.((2 * d) + 1) <- 0;
  b.depth <- d + 1;
  d

(* Close the span opened at depth [d]: record it with its self time and
   charge its extent to its parent. The clamps keep
   [0 <= self <= t1 - t0] whatever ticks a [record] caller passed. *)
let close b d kind t1 =
  let t0 = b.stack.(2 * d) in
  let ext = max 0 (t1 - t0) in
  b.depth <- d;
  push b kind t0 (t0 + ext) (max 0 (ext - b.stack.((2 * d) + 1)));
  charge b ext

let record ~kind ~t0 ~t1 =
  if !on_flag then begin
    let b = Domain.DLS.get key in
    let ext = max 0 (t1 - t0) in
    push b kind t0 (t0 + ext) ext;
    charge b ext
  end

let span kind f =
  if not !on_flag then f ()
  else begin
    let b = Domain.DLS.get key in
    let d = open_at b (tick ()) in
    match f () with
    | v ->
      close b d kind (tick ());
      v
    | exception e ->
      close b d kind (tick ());
      raise e
  end

let timed kind f =
  let t0 = clock_ns () in
  let v = span kind f in
  (v, float_of_int (clock_ns () - t0) *. 1e-9)

let enable () =
  (* restart the clock and discard anything not yet drained; called on
     the main domain before worker domains exist, so no buffer is being
     appended to concurrently *)
  Mutex.lock registry_mu;
  List.iter (fun b -> b.drained <- Atomic.get b.published) !registry;
  Mutex.unlock registry_mu;
  epoch := clock_ns ();
  on_flag := true

let disable () = on_flag := false

(* Entry [j] of a buffer lives in chunk [j / chunk_size] (chunks only
   ever fill forward) at offset [j mod chunk_size]. *)
let drain_buf b =
  let n = Atomic.get b.published in
  if n > b.drained then begin
    let c = ref b.head in
    for _ = 1 to b.drained / chunk_size do
      match !c.next with Some nx -> c := nx | None -> assert false
    done;
    for j = b.drained to n - 1 do
      let off = j mod chunk_size in
      if off = 0 && j > b.drained then
        (match !c.next with Some nx -> c := nx | None -> assert false);
      let ints = !c.ints and i = 3 * off in
      Sink.emit
        (Event.Span
           { domain = b.dom; kind = !c.kinds.(off); t0 = ints.(i); t1 = ints.(i + 1); self = ints.(i + 2) })
    done;
    b.drained <- n
  end

let drain () =
  Mutex.lock registry_mu;
  let bufs = !registry in
  Mutex.unlock registry_mu;
  List.iter drain_buf bufs

let pending () =
  Mutex.lock registry_mu;
  let bufs = !registry in
  Mutex.unlock registry_mu;
  List.fold_left (fun acc b -> acc + (Atomic.get b.published - b.drained)) 0 bufs
