type candidate = { record : Execution.t; index : int }

type kind =
  | Bounded_dfs of int
  | Random_branch
  | Uniform_random
  | Cfg_directed of Minic.Cfg.t
  | Generational of int
      (* SAGE-style generational search (beyond the paper): every
         position of each new path becomes a candidate, and candidates
         whose flipped branch side is still uncovered are served first.
         The argument bounds how many positions of one path expand. *)
  | Random_inputs  (* the random baseline: never negates *)

type t = {
  kind : kind;
  rng : Random.State.t;
  stack : candidate Stack.t;  (* DFS *)
  mutable pool : candidate list;  (* generational *)
  mutable latest : Execution.t option;  (* stateless strategies *)
}

let create ?(seed = 0x5EED) kind =
  {
    kind;
    rng = Random.State.make [| seed |];
    stack = Stack.create ();
    pool = [];
    latest = None;
  }

let kind_name t =
  match t.kind with
  | Bounded_dfs bound -> Printf.sprintf "bounded-dfs(%d)" bound
  | Random_branch -> "random-branch"
  | Uniform_random -> "uniform-random"
  | Cfg_directed _ -> "cfg-directed"
  | Generational bound -> Printf.sprintf "generational(%d)" bound
  | Random_inputs -> "random-inputs"

let observe t ~depth record =
  match t.kind with
  | Bounded_dfs bound ->
    (* CREST's DFS order: within one path, positions are negated from
       shallow to deep, and each new execution is descended into before
       its siblings (its candidates land on top of the stack). Pushing
       deepest-first makes the shallowest new position pop first. *)
    let limit = min (Execution.length record) bound in
    for index = limit - 1 downto depth do
      Stack.push { record; index } t.stack
    done
  | Generational bound ->
    let limit = min (Execution.length record) bound in
    let fresh = List.init (max 0 (limit - depth)) (fun k -> { record; index = depth + k }) in
    t.pool <- List.rev_append fresh t.pool
  | Random_branch | Uniform_random | Cfg_directed _ -> t.latest <- Some record
  | Random_inputs -> ()

let pick_random_branch t record =
  (* Choose among distinct conditionals on the path, then negate the
     last occurrence of the chosen one. *)
  let n = Execution.length record in
  if n = 0 then None
  else begin
    let last_of = Hashtbl.create 32 in
    for i = 0 to n - 1 do
      Hashtbl.replace last_of (Execution.branch_at record i / 2) i
    done;
    let conds = Hashtbl.fold (fun c _ acc -> c :: acc) last_of [] in
    let conds = List.sort Int.compare conds in
    let chosen = List.nth conds (Random.State.int t.rng (List.length conds)) in
    Some { record; index = Hashtbl.find last_of chosen }
  end

let pick_uniform t record =
  let n = Execution.length record in
  if n = 0 then None else Some { record; index = Random.State.int t.rng n }

let pick_cfg t g record ~coverage =
  let n = Execution.length record in
  if n = 0 then None
  else begin
    let dist =
      Minic.Cfg.distances g ~uncovered:(fun b -> not (Coverage.mem_branch coverage b))
    in
    let nbranches = Array.length dist in
    let score i =
      let b = Execution.branch_at record i in
      let flipped = if b mod 2 = 0 then b + 1 else b - 1 in
      if flipped < nbranches then dist.(flipped) else max_int
    in
    let best = ref max_int in
    for i = 0 to n - 1 do
      let s = score i in
      if s < !best then best := s
    done;
    if !best = max_int then pick_uniform t record
    else begin
      let mins = ref [] in
      for i = 0 to n - 1 do
        if score i = !best then mins := i :: !mins
      done;
      let mins = Array.of_list !mins in
      Some { record; index = mins.(Random.State.int t.rng (Array.length mins)) }
    end
  end

(* A candidate is promising when the other side of its branch is still
   uncovered — flipping it would pay immediately. *)
let promising coverage c =
  let b = Execution.branch_at c.record c.index in
  let flipped = if b mod 2 = 0 then b + 1 else b - 1 in
  not (Coverage.mem_branch coverage flipped)

let pick_generational t ~coverage =
  let rec take acc = function
    | [] -> (None, List.rev acc)
    | c :: rest when promising coverage c -> (Some c, List.rev_append acc rest)
    | c :: rest -> take (c :: acc) rest
  in
  match take [] t.pool with
  | Some c, rest ->
    t.pool <- rest;
    Some c
  | None, _ -> (
    (* no promising candidate: fall back to the newest pending one *)
    match t.pool with
    | c :: rest ->
      t.pool <- rest;
      Some c
    | [] -> None)

let next t ~coverage =
  match t.kind with
  | Bounded_dfs _ -> if Stack.is_empty t.stack then None else Some (Stack.pop t.stack)
  | Generational _ -> pick_generational t ~coverage
  | Random_branch -> Option.bind t.latest (pick_random_branch t)
  | Uniform_random -> Option.bind t.latest (pick_uniform t)
  | Cfg_directed g -> Option.bind t.latest (fun r -> pick_cfg t g r ~coverage)
  | Random_inputs -> None

let next_batch t ~coverage ~max =
  (* Draw up to [max] candidates, skipping duplicates of earlier draws
     in this batch (stateless strategies can re-pick the same position
     from the same record; executing it twice in one round is waste).
     Draws happen in a fixed order on the caller's domain, so the RNG
     trajectory — and hence the batch — is independent of how many
     workers later execute it. *)
  let same a b = a.record == b.record && a.index = b.index in
  let rec go acc n =
    if n <= 0 then List.rev acc
    else
      match next t ~coverage with
      | None -> List.rev acc
      | Some c ->
        if List.exists (same c) acc then go acc (n - 1)
        else go (c :: acc) (n - 1)
  in
  go [] (Stdlib.max 0 max)

let stack_size t =
  match t.kind with
  | Bounded_dfs _ -> Stack.length t.stack
  | Generational _ -> List.length t.pool
  | Random_branch | Uniform_random | Cfg_directed _ -> (
    match t.latest with Some _ -> 1 | None -> 0)
  | Random_inputs -> 0
