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
}

let length t = Array.length t.constraints

let prefix t i =
  let rec go k acc = if k < 0 then acc else go (k - 1) (snd t.constraints.(k) :: acc) in
  go (i - 1) []

let constr_at t i = snd t.constraints.(i)
let branch_at t i = fst t.constraints.(i)

let negation_problem t i =
  let negated = Smt.Constr.negate (constr_at t i) in
  (negated, negated :: List.rev_append (List.rev (prefix t i)) t.extra)

let solve_negation ?budget t i =
  let negated, cs = negation_problem t i in
  Smt.Solver.solve_incremental ?budget ~domains:t.domains ~prev:t.model ~target:negated cs

(* The canonical identity of the solve that [solve_negation t i] would
   perform, computed once: the dependency closure of the negated
   constraint — exactly what the incremental solver re-solves — keyed
   with the run's domains, plus the closure's variable set. Building the
   closure and sorting it dominate the cost of the cheap incremental
   solves, so the campaign derives the key, the miss-path solve, and the
   hit-path replay all from this one value. *)
type prepared = { p_key : Smt.Cache.key; p_vars : Smt.Varid.Set.t }

let prepare_negation t i =
  let negated, cs = negation_problem t i in
  let closure, vars =
    Smt.Constr.dependency_closure ~seed:(Smt.Constr.vars negated) cs
  in
  { p_key = Smt.Cache.key ~vars ~domains:t.domains closure; p_vars = vars }

let prepared_key p = p.p_key

let solve_prepared ?budget t p =
  Smt.Solver.solve_prepared ?budget ~domains:t.domains ~prev:t.model
    ~closure:(Smt.Cache.key_constrs p.p_key) ~vars:p.p_vars ()

let negation_key t i = (prepare_negation t i).p_key

let replay ~vars t outcome =
  match (outcome : Smt.Cache.outcome) with
  | Smt.Cache.Unsat -> Error `Unsat
  | Smt.Cache.Sat cached ->
    (* Reconstruct what a canonical solve_negation would have returned:
       [cached] is a pure function of the key, so merging it over this
       run's concrete model and diffing against it reproduces the live
       result even though the verdict was found under another run. *)
    let resolved = vars in
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

let apply_prepared t p outcome = replay ~vars:p.p_vars t outcome

let apply_cached t i outcome = replay ~vars:(prepare_negation t i).p_vars t outcome
