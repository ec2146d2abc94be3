(* Probes run on the traced pass's own test inputs.

   [uninstrumented] re-runs every test through [Runner.run] with
   [symbolic = false], so every rank runs the light build; the traced
   pass's runner time minus this is the focus rank's shadow and
   path-log cost.

   [light_replay] runs every test straight through
   [Mpisim.Scheduler.run] and [Minic.Compile.run] with light hooks and
   splits the time into rank-fiber compute and simulator time. The MPI
   handler each rank sees is wrapped: a rank computes from the moment
   its body starts or an MPI call returns to it until it makes the next
   MPI call or its body returns; all other time inside the scheduler is
   simulator time. Fibers run one at a time on one domain, so the two
   shares are exclusive and add up to the replay's wall time. *)

open Compi

let uninstrumented configs =
  let busy = ref 0.0 in
  List.iter
    (fun (cfg : Runner.config) ->
      let t0 = Unix.gettimeofday () in
      ignore (Runner.run { cfg with Runner.symbolic = false });
      busy := !busy +. (Unix.gettimeofday () -. t0))
    configs;
  !busy

type split = {
  wall_s : float;
  rank_compute_s : float;
  sim_s : float;
  rank_runs : int;
  mpi_calls : int;
  p2p_msgs : int;
  collectives : int;
  platform_limit : int;
  misordered : int;
}

(* Exclusive two-state clock: time since the last switch is charged to
   the state being left. *)
type clock = {
  mutable computing : bool;
  mutable since : float;
  mutable compute : float;
  mutable sim : float;
  mutable misordered : int;  (* switches into the state already held *)
}

let charge c =
  let now = Unix.gettimeofday () in
  let dt = now -. c.since in
  if c.computing then c.compute <- c.compute +. dt else c.sim <- c.sim +. dt;
  c.since <- now

let switch c ~computing =
  if c.computing = computing then c.misordered <- c.misordered + 1;
  charge c;
  c.computing <- computing

let light_hooks (cfg : Runner.config) ~mpi ~cover =
  let input_value (d : Minic.Ast.input_decl) =
    match List.assoc_opt d.Minic.Ast.iname cfg.Runner.inputs with
    | Some v -> v
    | None -> d.Minic.Ast.default
  in
  {
    Minic.Interp.mode = Minic.Interp.Light;
    input_value;
    on_input = (fun _ _ -> None);
    on_mpi_sem = (fun _ _ -> None);
    on_branch =
      (fun ~id ~taken ~constr:_ ->
        Concolic.Coverage.add_branch cover (Minic.Branchinfo.branch_of_cond id taken));
    on_func_enter = (fun fn -> Concolic.Coverage.add_func cover fn);
    mpi;
    step_limit = cfg.Runner.step_limit;
  }

let light_replay configs =
  let c = { computing = false; since = 0.0; compute = 0.0; sim = 0.0; misordered = 0 } in
  let rank_runs = ref 0 and mpi_calls = ref 0 and p2p = ref 0 and coll = ref 0 in
  let limited = ref 0 and wall = ref 0.0 in
  let on_event = function
    | Mpisim.Trace.Matched _ -> incr p2p
    | Mpisim.Trace.Collective _ -> incr coll
    | _ -> ()
  in
  List.iter
    (fun (cfg : Runner.config) ->
      let cp =
        match cfg.Runner.compiled with
        | Some cp -> cp
        | None -> invalid_arg "Probe.light_replay: test has no compiled program"
      in
      let body ~rank:_ ~mpi =
        switch c ~computing:true;
        incr rank_runs;
        let wrapped req =
          incr mpi_calls;
          switch c ~computing:false;
          match mpi req with
          | reply ->
            switch c ~computing:true;
            reply
          | exception e ->
            switch c ~computing:true;
            raise e
        in
        let cover = Concolic.Coverage.create () in
        match Minic.Compile.run cp (light_hooks cfg ~mpi:wrapped ~cover) with
        | res ->
          switch c ~computing:false;
          res
        | exception e ->
          switch c ~computing:false;
          raise e
      in
      let t0 = Unix.gettimeofday () in
      c.computing <- false;
      c.since <- t0;
      (match
         Mpisim.Scheduler.run ~max_procs:cfg.Runner.max_procs ~on_event ~nprocs:cfg.Runner.nprocs
           body
       with
      | _ -> ()
      | exception Mpisim.Scheduler.Platform_limit _ -> incr limited);
      charge c;
      wall := !wall +. (c.since -. t0))
    configs;
  {
    wall_s = !wall;
    rank_compute_s = c.compute;
    sim_s = c.sim;
    rank_runs = !rank_runs;
    mpi_calls = !mpi_calls;
    p2p_msgs = !p2p;
    collectives = !coll;
    platform_limit = !limited;
    misordered = c.misordered;
  }
