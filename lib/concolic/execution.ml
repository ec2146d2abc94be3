(* Closure index: every candidate's dependency closure, read from one
   structure built once per run.

   Candidate [i]'s solve covers ¬c_i plus the constraints of [extra] and
   of the prefix c_0 … c_{i-1} that reach it through shared variables.
   Feeding [extra] at time 0 and c_j at time j+1 into a union-find over
   the variables, and stamping each link with its time, answers "which
   component held v at time T" for every T at once: follow the parent
   links stamped <= T. Links are never rewritten (no path compression),
   so every earlier state stays readable. The closure of candidate [i]
   is then every [extra] and prefix constraint whose first variable has
   c_i's root at time i+1; its variables are the component's at that
   time.

   The run's distinct expressions are ranked once under
   [Linexp.compare]. [Constr.compare] orders by relation first, so
   [rel_rank rel * e + rank of exp] (for [e] distinct expressions) ranks
   every constraint and negation of the run in [Constr.compare] order,
   equal constraints sharing a rank, and the canonical sort-and-dedup of
   a key is a mark over ranks.

   A constraint is addressed by a code: c_j is j and the k-th [extra]
   constraint is n + k. A key is built from the run's own constraint
   records (only ¬c_i is allocated), so cache entries share them rather
   than copy them. The index holds int arrays only, so it adds little to
   the heap of the records the strategy keeps. *)
type index = {
  nexps : int;  (* distinct expressions *)
  slot_bits : int;
  codes : int array;
      (* code -> [pack slot_bits rank (s + 1)]: the rank of its
         constraint, and the slot [s] of its first variable (-1 for none) *)
  code_bits : int;
  reps : int array;
      (* [pack code_bits rank code] for every rank the run's constraints
         hold, by increasing rank, each with one code that holds it *)
  parent : int array;  (* slot -> parent slot; itself at a root *)
  linked : int array;  (* slot -> time of its link to its parent; max_int at a root *)
  seen : int array;  (* slot -> time its variable first appears; non-decreasing *)
  var : int array;  (* slot -> variable *)
}

type t = {
  constraints : (int * Smt.Constr.t) array;
  symtab : Symtab.t;
  model : Smt.Model.t;
  domains : Smt.Domain.t Smt.Varid.Map.t;
  extra : Smt.Constr.t list;
  nprocs : int;
  focus : int;
  mapping : (int * int array) list;
  mutable exec_id : int;
  mutable exec_schedule : int list;
  mutable closure_index : index option;
}

let length t = Array.length t.constraints

let prefix t i =
  let rec go k acc = if k < 0 then acc else go (k - 1) (snd t.constraints.(k) :: acc) in
  go (i - 1) []

let constr_at t i = snd t.constraints.(i)
let branch_at t i = fst t.constraints.(i)

(* Two non-negative ints in one, [lo] taking the low [bits]. Packing as
   narrowly as the run allows keeps the ints small, and Marshal stores
   small ints in fewer bytes: the indices travel in checkpoints. *)
let pack bits hi lo = (hi lsl bits) lor lo
let hi bits x = x lsr bits
let lo bits x = x land ((1 lsl bits) - 1)

(* the number of bits needed to hold [k >= 0] *)
let width k =
  let rec go w = if k lsr w = 0 then w else go (w + 1) in
  go 0

module Etbl = Hashtbl.Make (Smt.Linexp)

module Vtbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash v = v land max_int
end)

(* Besides the arrays it keeps, a build allocates only blocks sized by the
   run's distinct expressions and variables, never by its path length: a
   path-length temporary per run is major-heap garbage, which measurably
   raised campaigns' peak heap. *)
let build_index t =
  let n = length t in
  let m = List.length t.extra in
  let nm = n + m in
  (* codes in time order: [extra] at time 0, then c_j at time j + 1 *)
  let in_time_order f =
    List.iteri (fun k c -> f (n + k) 0 c) t.extra;
    Array.iteri (fun j (_, c) -> f j (j + 1) c) t.constraints
  in
  (* Pass 1: intern expressions (each with the relations seen with it so
     far, as a bit set), and give variables slots in order of first
     appearance. [codes] holds (expression id, first slot) until the
     expressions are ranked. *)
  let ids = Etbl.create 64 in
  let pairs = ref [] in
  let exps = ref [] in
  let slot_of = Vtbl.create 16 in
  let seen = ref [] and vars = ref [] in
  let codes = Array.make nm 0 in
  in_time_order (fun q time (c : Smt.Constr.t) ->
      let entry =
        match Etbl.find_opt ids c.exp with
        | Some entry -> entry
        | None ->
          let entry = ref (Etbl.length ids lsl 6) in
          Etbl.add ids c.exp entry;
          exps := c.exp :: !exps;
          entry
      in
      let id = !entry lsr 6 and rel = Smt.Constr.rel_rank c.rel in
      if !entry land (1 lsl rel) = 0 then begin
        entry := !entry lor (1 lsl rel);
        pairs := (id, rel, q) :: !pairs
      end;
      let first = ref (-1) in
      Smt.Linexp.iter_vars
        (fun v ->
          let s =
            match Vtbl.find_opt slot_of v with
            | Some s -> s
            | None ->
              let s = Vtbl.length slot_of in
              Vtbl.add slot_of v s;
              seen := time :: !seen;
              vars := v :: !vars;
              s
          in
          if !first < 0 then first := s)
        c.exp;
      codes.(q) <- pack 31 id (!first + 1));
  (* rank the distinct expressions, then every constraint *)
  let exps = Array.of_list (List.rev !exps) in
  let e = Array.length exps in
  let order = Array.init e Fun.id in
  Array.sort (fun a b -> Smt.Linexp.compare exps.(a) exps.(b)) order;
  let rank_of_id = Array.make e 0 in
  Array.iteri (fun r k -> rank_of_id.(k) <- r) order;
  let rank id rel = (rel * e) + rank_of_id.(id) in
  let nslots = Vtbl.length slot_of in
  let slot_bits = width nslots and code_bits = width (max 0 (nm - 1)) in
  in_time_order (fun q _ (c : Smt.Constr.t) ->
      let x = codes.(q) in
      codes.(q) <- pack slot_bits (rank (hi 31 x) (Smt.Constr.rel_rank c.rel)) (lo 31 x));
  let reps =
    Array.of_list
      (List.rev_map (fun (id, rel, q) -> pack code_bits (rank id rel) q) !pairs)
  in
  Array.sort Int.compare reps;
  (* Pass 2: the time-stamped union-find, in the same order *)
  let parent = Array.init nslots Fun.id in
  let linked = Array.make nslots max_int in
  let size = Array.make nslots 1 in
  let rec root s = if parent.(s) = s then s else root parent.(s) in
  in_time_order (fun q time (c : Smt.Constr.t) ->
      let s0 = lo slot_bits codes.(q) - 1 in
      Smt.Linexp.iter_vars
        (fun v ->
          let a = root (Vtbl.find slot_of v) and b = root s0 in
          if a <> b then begin
            (* union by size keeps the uncompressed paths logarithmic *)
            let small, big = if size.(a) < size.(b) then (a, b) else (b, a) in
            parent.(small) <- big;
            linked.(small) <- time;
            size.(big) <- size.(big) + size.(small)
          end)
        c.exp);
  {
    nexps = e;
    slot_bits;
    codes;
    code_bits;
    reps;
    parent;
    linked;
    seen = Array.of_list (List.rev !seen);
    var = Array.of_list (List.rev !vars);
  }

let rank_of ix q = hi ix.slot_bits ix.codes.(q)
let first_slot ix q = lo ix.slot_bits ix.codes.(q) - 1

(* the root of slot [s] at time [time] *)
let rec find ix s time = if ix.linked.(s) <= time then find ix ix.parent.(s) time else s

let index t =
  match t.closure_index with
  | Some ix -> ix
  | None ->
    let ix = build_index t in
    t.closure_index <- Some ix;
    ix

(* The dependency closure of ¬c_i, sorted and deduplicated under
   [Constr.compare], and its variables: exactly what
   [Constr.dependency_closure] over ¬c_i :: prefix @ extra, seeded with
   the variables of c_i, then [List.sort_uniq Constr.compare] give. *)
let closure t i =
  let ix = index t in
  let s0 = first_slot ix i in
  if s0 < 0 then ([], Smt.Varid.Set.empty)
  else begin
    let n = length t and nm = Array.length ix.codes in
    let time = i + 1 in
    (* every slot's root at [time]; slots not yet seen stay -1 *)
    let nslots = Array.length ix.seen in
    let roots = Array.make nslots (-1) in
    let s = ref 0 in
    while !s < nslots && ix.seen.(!s) <= time do
      roots.(!s) <- find ix !s time;
      incr s
    done;
    let root = roots.(s0) in
    let e = ix.nexps in
    let nranks = 6 * e in
    let marked = Bytes.make nranks '\000' in
    (* ¬c_i: the same expression under the negated relation *)
    let negated = Smt.Constr.negate (constr_at t i) in
    Bytes.set marked
      ((Smt.Constr.rel_rank negated.Smt.Constr.rel * e) + (rank_of ix i mod e))
      '\001';
    let mark_members lo hi =
      for q = lo to hi - 1 do
        let s = first_slot ix q in
        if s >= 0 && roots.(s) = root then Bytes.set marked (rank_of ix q) '\001'
      done
    in
    mark_members 0 i;
    mark_members n nm;
    (* walk the marks and [reps] down together; a marked rank the run's
       constraints do not hold can only be ¬c_i's *)
    let closure = ref [] in
    let p = ref (Array.length ix.reps - 1) in
    for r = nranks - 1 downto 0 do
      if Bytes.get marked r <> '\000' then begin
        while !p >= 0 && hi ix.code_bits ix.reps.(!p) > r do
          decr p
        done;
        let c =
          if !p >= 0 && hi ix.code_bits ix.reps.(!p) = r then
            let q = lo ix.code_bits ix.reps.(!p) in
            if q < n then constr_at t q else List.nth t.extra (q - n)
          else negated
        in
        closure := c :: !closure
      end
    done;
    let vars = ref Smt.Varid.Set.empty in
    Array.iteri
      (fun s r -> if r = root then vars := Smt.Varid.Set.add ix.var.(s) !vars)
      roots;
    (!closure, !vars)
  end

(* The canonical identity of one negation solve: its cache key plus the
   closure's variable set. The campaign prepares each candidate once, at
   dispatch, and derives the probe, the solve and the hit replay from
   this one value. *)
type prepared = { p_key : Smt.Cache.key; p_vars : Smt.Varid.Set.t }

let prepare_negation t i =
  let closure, vars = closure t i in
  { p_key = Smt.Cache.key_of_sorted ~vars ~domains:t.domains closure; p_vars = vars }

let prepared_key p = p.p_key
let prepared_vars p = p.p_vars

let solve_prepared ?budget t p =
  Smt.Solver.solve_prepared ?budget ~domains:t.domains ~prev:t.model
    ~closure:(Smt.Cache.key_constrs p.p_key) ~vars:p.p_vars ()

let solve_negation ?budget t i = solve_prepared ?budget t (prepare_negation t i)
let negation_key t i = (prepare_negation t i).p_key

let apply_prepared t p outcome =
  match (outcome : Smt.Cache.outcome) with
  | Smt.Cache.Unsat -> Error `Unsat
  | Smt.Cache.Sat cached ->
    (* Reconstruct what a canonical solve_negation would have returned:
       [cached] is a pure function of the key, so merging it over this
       run's concrete model and diffing against it reproduces the live
       result even though the verdict was found under another run. *)
    let resolved = p.p_vars in
    let fresh =
      Smt.Varid.Set.fold
        (fun v acc ->
          match Smt.Model.find v cached with
          | Some x -> Smt.Model.set v x acc
          | None -> acc)
        resolved Smt.Model.empty
    in
    let changed = Smt.Model.changed_vars ~before:t.model ~after:fresh in
    Ok
      {
        Smt.Solver.model = Smt.Model.union_prefer_left fresh t.model;
        fresh;
        resolved;
        changed;
      }

let apply_cached t i outcome = apply_prepared t (prepare_negation t i) outcome
