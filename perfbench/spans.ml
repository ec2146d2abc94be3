(* In-memory span recorder for the traced run.

   Spans are recorded by the benchmark around its own calls into the
   program's layers; nothing inside the program is instrumented. Each
   span has a kind, the id of the work item it belongs to, the span
   that was open when it started (its parent) and its start and end
   time. The buffers grow in memory and are written out once, after
   the measurement.

   A span's self time is its duration minus the part of its interval
   that its direct children cover, so summing self times over every
   span never counts an interval twice. *)

type t = {
  kind_ids : (string, int) Hashtbl.t;
  mutable kind_names : string array;
  mutable n : int;
  mutable kind : int array;
  mutable item : int array;
  mutable parent : int array;
  mutable t0 : float array;
  mutable t1 : float array;
  mutable stack : int list;  (* open spans, innermost first *)
  mutable current_item : int;
}

let create () =
  let cap = 1024 in
  {
    kind_ids = Hashtbl.create 32;
    kind_names = [||];
    n = 0;
    kind = Array.make cap 0;
    item = Array.make cap 0;
    parent = Array.make cap 0;
    t0 = Array.make cap 0.0;
    t1 = Array.make cap 0.0;
    stack = [];
    current_item = -1;
  }

let set_item r id = r.current_item <- id
let length r = r.n
let kind_name r i = r.kind_names.(r.kind.(i))
let parent r i = r.parent.(i)
let duration r i = r.t1.(i) -. r.t0.(i)

let kind_id r name =
  match Hashtbl.find_opt r.kind_ids name with
  | Some k -> k
  | None ->
    let k = Array.length r.kind_names in
    Hashtbl.add r.kind_ids name k;
    r.kind_names <- Array.append r.kind_names [| name |];
    k

let grow r =
  let cap = 2 * Array.length r.kind in
  let ext a fill =
    let b = Array.make cap fill in
    Array.blit a 0 b 0 r.n;
    b
  in
  r.kind <- ext r.kind 0;
  r.item <- ext r.item 0;
  r.parent <- ext r.parent 0;
  r.t0 <- ext r.t0 0.0;
  r.t1 <- ext r.t1 0.0

(* Record a finished span from explicit times; [parent] is -1 for a
   root. Returns the span's index. Used directly by the self-tests. *)
let add r ~kind ~item ~parent ~t0 ~t1 =
  if r.n = Array.length r.kind then grow r;
  let i = r.n in
  r.kind.(i) <- kind_id r kind;
  r.item.(i) <- item;
  r.parent.(i) <- parent;
  r.t0.(i) <- t0;
  r.t1.(i) <- t1;
  r.n <- i + 1;
  i

let span r kind f =
  let parent = match r.stack with p :: _ -> p | [] -> -1 in
  let t0 = Unix.gettimeofday () in
  let i = add r ~kind ~item:r.current_item ~parent ~t0 ~t1:t0 in
  r.stack <- i :: r.stack;
  let close () =
    r.t1.(i) <- Unix.gettimeofday ();
    r.stack <- List.tl r.stack
  in
  match f () with
  | v ->
    close ();
    v
  | exception e ->
    close ();
    raise e

(* Length of the union of [intervals], each clipped to [lo, hi]. *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max lo a and b = Float.min hi b in
        if b > a then Some (a, b) else None)
      intervals
  in
  let sorted = List.sort compare clipped in
  let total, last =
    List.fold_left
      (fun (total, last) (a, b) ->
        match last with
        | None -> (total, Some (a, b))
        | Some (la, lb) ->
          if a <= lb then (total, Some (la, Float.max lb b))
          else (total +. (lb -. la), Some (a, b)))
      (0.0, None) sorted
  in
  match last with None -> total | Some (a, b) -> total +. (b -. a)

let self_times r =
  let children = Array.make r.n [] in
  for i = r.n - 1 downto 0 do
    let p = r.parent.(i) in
    if p >= 0 then children.(p) <- (r.t0.(i), r.t1.(i)) :: children.(p)
  done;
  Array.init r.n (fun i ->
      duration r i -. covered ~lo:r.t0.(i) ~hi:r.t1.(i) children.(i))

type totals = {
  calls : int;
  self_s : float;
  durations_us : float list;  (* inclusive, one per call *)
}

(* Per-kind call counts, self-time sums and inclusive durations. *)
let totals r =
  let self = self_times r in
  let tbl = Hashtbl.create 32 in
  for i = r.n - 1 downto 0 do
    let k = kind_name r i in
    let c, s, ds =
      match Hashtbl.find_opt tbl k with Some x -> x | None -> (0, 0.0, [])
    in
    Hashtbl.replace tbl k (c + 1, s +. self.(i), (1e6 *. duration r i) :: ds)
  done;
  fun kind ->
    match Hashtbl.find_opt tbl kind with
    | Some (calls, self_s, durations_us) -> { calls; self_s; durations_us }
    | None -> { calls = 0; self_s = 0.0; durations_us = [] }

let total_self r = Array.fold_left ( +. ) 0.0 (self_times r)

(* One JSON object per span, in start order; times in microseconds
   from the first span's start. *)
let write r path =
  let self = self_times r in
  let base = if r.n = 0 then 0.0 else r.t0.(0) in
  Out_channel.with_open_text path (fun oc ->
      for i = 0 to r.n - 1 do
        Printf.fprintf oc
          "{\"id\":%d,\"kind\":%S,\"item\":%d,\"parent\":%d,\"start_us\":%.3f,\"dur_us\":%.3f,\"self_us\":%.3f}\n"
          i (kind_name r i) r.item.(i) r.parent.(i)
          (1e6 *. (r.t0.(i) -. base))
          (1e6 *. duration r i)
          (1e6 *. self.(i))
      done)
