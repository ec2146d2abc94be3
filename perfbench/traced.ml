(* The traced run: the campaign loop rebuilt on the program's public
   functions, with a span around every call into a layer.

   This follows [Compi.Campaign.run] at one job with the solver cache
   on: each round the strategy yields a batch; every negation is
   prepared and probed against the cache at dispatch, then the items
   are solved or replayed, executed and merged in work-list order, and
   verdicts enter the cache at the merge. Items computed after the
   iteration budget ran out are executed but not merged, as the
   engine's drain does. The caller checks that the loop did the same
   work as the untraced campaign (tests, probes, hits, solver calls,
   coverage and the canonical report) before any layer time is
   reported.

   With [live] set the loop also publishes the status file after every
   merge, checkpoints at the engine's cadence and appends the ledger
   record at the end. Without it those three writes still happen once,
   at the end, so their per-call cost is measured on every workload. *)

open Compi
open Concolic

type pass = {
  result : Campaign.result;
  wall_s : float;
  spans : Spans.t;
  configs : Runner.config list;  (* every Runner.run input, in call order *)
  probes : int;
  hits : int;
  solves : int;  (* live solver calls, merged or not *)
  sat : int;
  unknown : int;
  key_sizes : int list;  (* constraints under each probed key *)
  checkpoint_bytes : int;
  checkpoint_saves : int;
}

type work = Checkpoint.work = W_fresh of Driver.pending | W_negate of Strategy.candidate

type computed =
  | C_fresh of Driver.pending * (Runner.result, [ `Platform_limit of int ]) result
  | C_unsat of { key : Smt.Cache.key option; solved : bool }
  | C_unknown
  | C_sat of {
      key : Smt.Cache.key option;
      solved : bool;
      fresh : Smt.Model.t;
      next : Driver.pending;
      run : (Runner.result, [ `Platform_limit of int ]) result;
    }

let run ~(settings : Campaign.settings) ~label ~(info : Minic.Branchinfo.t) ~compiled
    ~(files : Workload.live_files) ~live () =
  let s = settings.Campaign.base in
  let r = Spans.create () in
  let sp kind f = Spans.span r kind f in
  let fp =
    Checkpoint.fingerprint ~label ~batch:settings.Campaign.batch ~solver_cache:true
      ~cache_capacity:settings.Campaign.cache_capacity s
  in
  let rng = Random.State.make [| s.Driver.seed |] in
  let program = info.Minic.Branchinfo.program in
  let coverage = Coverage.create () in
  let cache = Smt.Cache.create ~capacity:settings.Campaign.cache_capacity () in
  let strategy = ref (Driver.make_strategy s info) in
  let base_runner =
    {
      (Runner.default_config ~info) with
      Runner.reduce = s.Driver.reduce;
      two_way = s.Driver.two_way;
      mark_mpi_sem = s.Driver.framework;
      record_all = s.Driver.framework;
      nprocs_cap = s.Driver.nprocs_cap;
      cap_overrides = s.Driver.cap_overrides;
      step_limit = s.Driver.step_limit;
      max_procs = s.Driver.max_procs;
      compiled;
    }
  in
  let t_start = Unix.gettimeofday () in
  let stats = ref [] and bugs = ref [] and max_cs = ref 0 in
  let derived_bound = ref None and iter = ref 0 in
  let best_covered = ref 0 and last_improvement = ref 0 and barren = ref 0 in
  let last_np = ref (s.Driver.initial_nprocs, s.Driver.initial_focus) in
  let rounds = ref 0 and executed = ref 0 and speculated = ref 0 in
  let solver_calls = ref 0 and solves = ref 0 and sat = ref 0 and unknown = ref 0 in
  let forced = ref [] and stagnated_round = ref false in
  let last_reachable = ref 0 in
  let configs = ref [] and key_sizes = ref [] in
  let ck_bytes = ref 0 and ck_saves = ref 0 in
  let fresh_pending ~origin ~nprocs ~focus () =
    {
      Driver.p_inputs = Driver.random_inputs rng s program;
      p_nprocs = nprocs;
      p_focus = focus;
      p_depth = 0;
      p_origin = origin;
      p_schedule = [];
    }
  in
  let exec (p : Driver.pending) =
    let nprocs = min p.Driver.p_nprocs s.Driver.max_procs in
    let cfg =
      {
        base_runner with
        Runner.inputs = p.Driver.p_inputs;
        nprocs;
        focus = min p.Driver.p_focus (nprocs - 1);
      }
    in
    configs := cfg :: !configs;
    sp "runner.run" (fun () -> Runner.run cfg)
  in
  let derive ~cached (cand : Strategy.candidate) (sr : Smt.Solver.incremental_result) =
    let record = cand.Strategy.record in
    let decision =
      sp "conflict.resolve" (fun () ->
          Conflict.resolve ~prev_nprocs:record.Execution.nprocs
            ~prev_focus:record.Execution.focus ~mapping:record.Execution.mapping
            ~symtab:record.Execution.symtab ~result:sr)
    in
    let nprocs, focus =
      if not s.Driver.framework then (s.Driver.initial_nprocs, s.Driver.initial_focus)
      else if s.Driver.resolve_conflicts then (decision.Conflict.nprocs, decision.Conflict.focus)
      else (decision.Conflict.nprocs, min record.Execution.focus (decision.Conflict.nprocs - 1))
    in
    {
      Driver.p_inputs = Symtab.input_values record.Execution.symtab sr.Smt.Solver.model;
      p_nprocs = nprocs;
      p_focus = focus;
      p_depth = cand.Strategy.index + 1;
      p_origin =
        Driver.O_negated
          {
            parent = record.Execution.exec_id;
            branch = Execution.branch_at record cand.Strategy.index lxor 1;
            index = cand.Strategy.index;
            cached;
          };
      p_schedule = record.Execution.exec_schedule;
    }
  in
  let fresh_strategy () =
    match (s.Driver.strategy, !derived_bound) with
    | Driver.Two_phase_dfs, Some bound ->
      Strategy.create ~seed:(s.Driver.seed + !iter) (Strategy.Bounded_dfs bound)
    | (Driver.Two_phase_dfs | Driver.Fixed_strategy _ | Driver.Cfg_strategy), _ ->
      Driver.make_strategy s info
  in
  let merge_exec (p : Driver.pending) res =
    let nprocs = min p.Driver.p_nprocs s.Driver.max_procs in
    let focus = min p.Driver.p_focus (nprocs - 1) in
    (match res with
    | Error (`Platform_limit _) ->
      forced :=
        fresh_pending ~origin:Driver.O_restart ~nprocs:s.Driver.initial_nprocs
          ~focus:s.Driver.initial_focus ()
        :: !forced
    | Ok (rr : Runner.result) ->
      incr executed;
      rr.Runner.execution.Execution.exec_id <- !iter;
      Coverage.absorb ~into:coverage rr.Runner.coverage;
      max_cs := max !max_cs rr.Runner.constraint_set_size;
      last_np := (p.Driver.p_nprocs, p.Driver.p_focus);
      let faults = Runner.faults rr in
      List.iter
        (fun (rank, fault) ->
          bugs :=
            {
              Driver.bug_iteration = !iter;
              bug_rank = rank;
              bug_fault = fault;
              bug_inputs = p.Driver.p_inputs;
              bug_nprocs = nprocs;
              bug_focus = focus;
              bug_context = rr.Runner.focus_tail;
            }
            :: !bugs)
        faults;
      sp "concolic.observe" (fun () ->
          Strategy.observe !strategy ~depth:p.Driver.p_depth rr.Runner.execution);
      (match s.Driver.strategy with
      | Driver.Two_phase_dfs when !iter + 1 = s.Driver.dfs_phase_iters ->
        let bound =
          match s.Driver.depth_bound with Some b -> b | None -> (!max_cs * 6 / 5) + 10
        in
        derived_bound := Some bound;
        let st = Strategy.create ~seed:(s.Driver.seed + 1) (Strategy.Bounded_dfs bound) in
        sp "concolic.observe" (fun () -> Strategy.observe st ~depth:0 rr.Runner.execution);
        strategy := st
      | Driver.Two_phase_dfs | Driver.Fixed_strategy _ | Driver.Cfg_strategy -> ());
      let covered_now = Coverage.covered_branches coverage in
      if covered_now > !best_covered then begin
        best_covered := covered_now;
        last_improvement := !iter
      end;
      let stagnated =
        match s.Driver.stagnation_restart with
        | Some k -> !iter - !last_improvement >= k
        | None -> false
      in
      if stagnated then begin
        last_improvement := !iter;
        strategy := fresh_strategy ();
        stagnated_round := true
      end;
      let reachable =
        Minic.Branchinfo.reachable_branches info ~encountered:(Coverage.encountered coverage)
      in
      last_reachable := reachable;
      stats :=
        {
          Driver.iteration = !iter;
          nprocs;
          focus;
          constraint_set_size = rr.Runner.constraint_set_size;
          covered_after = covered_now;
          reachable_after = reachable;
          faults_seen = List.length faults;
          restarted = stagnated;
          exec_time = rr.Runner.wall_time;
          solve_time = 0.0;
        }
        :: !stats);
    incr iter
  in
  let budget_left () = !iter < s.Driver.iterations in
  let work =
    ref
      [
        W_fresh
          (fresh_pending ~origin:Driver.O_seed ~nprocs:s.Driver.initial_nprocs
             ~focus:s.Driver.initial_focus ());
      ]
  in
  let work_remaining = ref !work in
  let schedule () =
    let forced_items = List.rev_map (fun p -> W_fresh p) !forced in
    let restart_test () =
      let nprocs, focus = !last_np in
      W_fresh (fresh_pending ~origin:Driver.O_restart ~nprocs ~focus ())
    in
    work :=
      (if !stagnated_round then forced_items @ [ restart_test () ]
       else if !barren >= s.Driver.max_solve_attempts then begin
         barren := 0;
         forced_items @ [ restart_test () ]
       end
       else
         match
           sp "concolic.next_batch" (fun () ->
               Strategy.next_batch !strategy ~coverage ~max:settings.Campaign.batch)
         with
         | [] ->
           barren := 0;
           forced_items @ [ restart_test () ]
         | cands -> forced_items @ List.map (fun c -> W_negate c) cands);
    forced := [];
    stagnated_round := false;
    work_remaining := !work
  in
  let write_checkpoint () =
    let snap =
      {
        Checkpoint.ck_fingerprint = fp;
        ck_iter = !iter;
        ck_rounds = !rounds;
        ck_executed = !executed;
        ck_speculated = !speculated;
        ck_solver_calls = !solver_calls;
        ck_max_cs = !max_cs;
        ck_best_covered = !best_covered;
        ck_last_improvement = !last_improvement;
        ck_barren = !barren;
        ck_last_np = !last_np;
        ck_derived_bound = !derived_bound;
        ck_rng = rng;
        ck_strategy = !strategy;
        ck_coverage = coverage;
        ck_cache = Some cache;
        ck_stats = !stats;
        ck_bugs = !bugs;
        ck_forced = !forced;
        ck_stagnated_round = !stagnated_round;
        ck_schedules = [];
        ck_work = !work_remaining;
      }
    in
    ck_bytes :=
      !ck_bytes
      + sp "checkpoint.save" (fun () ->
            Checkpoint.save ~dir:files.Workload.checkpoint ~target:label snap);
    incr ck_saves
  in
  let every = settings.Campaign.checkpoint_every in
  let next_due = ref (if every > 0 then every else max_int) in
  let maybe_checkpoint () =
    if live && !iter >= !next_due then begin
      write_checkpoint ();
      next_due := ((!iter / every) + 1) * every
    end
  in
  let hits_misses () =
    let cs = Smt.Cache.stats cache in
    (cs.Smt.Cache.hits, cs.Smt.Cache.misses)
  in
  let publish_status ~finished () =
    let rec take n = function
      | [] -> []
      | x :: tl -> if n = 0 then [] else x :: take (n - 1) tl
    in
    let curve =
      List.rev_map (fun st -> (st.Driver.iteration, st.Driver.covered_after)) (take 64 !stats)
    in
    let plateau, eta = Obs.Status.estimate ~reachable:!last_reachable curve in
    let hits, misses = hits_misses () in
    sp "obs.status_publish" (fun () ->
        Obs.Status.publish files.Workload.status
          {
            Obs.Status.target = label;
            budget = s.Driver.iterations;
            rounds = !rounds;
            executed = !iter;
            covered = !best_covered;
            reachable = !last_reachable;
            bugs = List.length !bugs;
            queue_depth = 1;
            utilization = 1.0;
            cache_hit_rate = Stats.ratio (float_of_int hits) (float_of_int (hits + misses));
            schedule_forks = 0;
            plateau;
            eta_iterations = eta;
            finished;
          })
  in
  let item_id = ref 0 in
  let compute = function
    | `Fresh p -> C_fresh (p, exec p)
    | `Hit (cand, prep, outcome) -> (
      match sp "smt.replay" (fun () -> Execution.apply_prepared cand.Strategy.record prep outcome) with
      | Error (`Unsat | `Unknown) -> C_unsat { key = None; solved = false }
      | Ok sr ->
        let next = derive ~cached:true cand sr in
        C_sat { key = None; solved = false; fresh = sr.Smt.Solver.fresh; next; run = exec next })
    | `Miss (cand, prep) -> (
      let key = Some (Execution.prepared_key prep) in
      incr solves;
      match
        sp "smt.solve" (fun () ->
            Execution.solve_prepared ~budget:s.Driver.solver_budget cand.Strategy.record prep)
      with
      | Error `Unsat -> C_unsat { key; solved = true }
      | Error `Unknown ->
        incr unknown;
        C_unknown
      | Ok sr ->
        incr sat;
        let next = derive ~cached:false cand sr in
        C_sat { key; solved = true; fresh = sr.Smt.Solver.fresh; next; run = exec next })
  in
  let merge_one = function
    | C_fresh (p, res) -> merge_exec p res
    | C_unknown ->
      incr solver_calls;
      incr barren
    | C_unsat { key; solved } ->
      if solved then incr solver_calls;
      Option.iter (fun k -> sp "smt.cache_add" (fun () -> Smt.Cache.add cache k Smt.Cache.Unsat)) key;
      incr barren
    | C_sat { key; solved; fresh; next; run } ->
      if solved then incr solver_calls;
      Option.iter
        (fun k -> sp "smt.cache_add" (fun () -> Smt.Cache.add cache k (Smt.Cache.Sat fresh)))
        key;
      barren := 0;
      merge_exec next run
  in
  sp "campaign" (fun () ->
      while !work <> [] && budget_left () do
        incr rounds;
        let items =
          List.map
            (fun w ->
              let id = !item_id in
              incr item_id;
              Spans.set_item r id;
              match w with
              | W_fresh p -> (id, w, `Fresh p)
              | W_negate cand -> (
                let prep =
                  sp "concolic.prepare" (fun () ->
                      Execution.prepare_negation cand.Strategy.record cand.Strategy.index)
                in
                let key = Execution.prepared_key prep in
                key_sizes := Smt.Cache.key_size key :: !key_sizes;
                match sp "smt.cache_find" (fun () -> Smt.Cache.find cache key) with
                | Some outcome -> (id, w, `Hit (cand, prep, outcome))
                | None -> (id, w, `Miss (cand, prep))))
            !work
        in
        let rec merge_stream = function
          | [] -> work_remaining := []
          | (id, w, cls) :: rest ->
            Spans.set_item r id;
            let c = compute cls in
            if not (budget_left ()) then begin
              (* past the budget: the engine still drains these *)
              work_remaining := w :: List.map (fun (_, w, _) -> w) rest;
              List.iter
                (fun c ->
                  match c with
                  | C_fresh (_, Ok _) | C_sat { run = Ok _; _ } -> incr speculated
                  | C_fresh (_, Error _) | C_sat _ | C_unsat _ | C_unknown -> ())
                (c
                :: List.map
                     (fun (id, _, cls) ->
                       Spans.set_item r id;
                       compute cls)
                     rest)
            end
            else begin
              merge_one c;
              work_remaining := List.map (fun (_, w, _) -> w) rest;
              maybe_checkpoint ();
              if live then publish_status ~finished:false ();
              merge_stream rest
            end
        in
        merge_stream items;
        Spans.set_item r (-1);
        if budget_left () then schedule () else work := []
      done;
      write_checkpoint ();
      let reachable =
        Minic.Branchinfo.reachable_branches info ~encountered:(Coverage.encountered coverage)
      in
      last_reachable := reachable;
      publish_status ~finished:true ();
      let hits, misses = hits_misses () in
      ignore
        (sp "obs.ledger_append" (fun () ->
             Obs.Ledger.append files.Workload.ledger
               {
                 Obs.Ledger.run = "";
                 target = label;
                 fingerprint = Obs.Ledger.digest fp;
                 exec_mode = Runner.exec_mode_name s.Driver.exec_mode;
                 jobs = 1;
                 seed = s.Driver.seed;
                 budget = s.Driver.iterations;
                 executed = !iter;
                 rounds = !rounds;
                 covered = Coverage.covered_branches coverage;
                 reachable;
                 bugs =
                   List.rev_map
                     (fun b ->
                       {
                         Obs.Ledger.bug_test = b.Driver.bug_iteration;
                         bug_rank = b.Driver.bug_rank;
                         bug_kind = Minic.Fault.kind_name b.Driver.bug_fault;
                       })
                     !bugs;
                 curve =
                   List.rev_map (fun st -> (st.Driver.iteration, st.Driver.covered_after)) !stats;
                 wall_s = Unix.gettimeofday () -. t_start;
                 solver_calls = !solver_calls;
                 cache_hits = hits;
                 cache_misses = misses;
                 schedule_forks = 0;
               })));
  let wall_s = Unix.gettimeofday () -. t_start in
  let covered = Coverage.covered_branches coverage in
  let reachable = !last_reachable in
  let hits, misses = hits_misses () in
  let result =
    {
      Campaign.summary =
        {
          Driver.coverage;
          stats = List.rev !stats;
          bugs = List.rev !bugs;
          total_branches = info.Minic.Branchinfo.total_branches;
          reachable_branches = reachable;
          covered_branches = covered;
          coverage_rate = Stats.ratio (float_of_int covered) (float_of_int reachable);
          iterations_run = !iter;
          wall_time = wall_s;
          max_constraint_set = !max_cs;
          derived_bound = !derived_bound;
        };
      rounds = !rounds;
      executed = !executed;
      speculated = !speculated;
      solver_calls = !solver_calls;
      cache = Some (Smt.Cache.stats cache);
      interrupted = false;
      checkpoints_written = !ck_saves;
      queue_depth = 1;
      worker_busy_s = wall_s;
    }
  in
  {
    result;
    wall_s;
    spans = r;
    configs = List.rev !configs;
    probes = hits + misses;
    hits;
    solves = !solves;
    sat = !sat;
    unknown = !unknown;
    key_sizes = !key_sizes;
    checkpoint_bytes = !ck_bytes;
    checkpoint_saves = !ck_saves;
  }
