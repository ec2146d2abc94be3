(* The campaign benchmark.

     bench.exe run --workload NAME --seed N --seconds S --trace 0|1
                   --refs DIR --out DIR
     bench.exe selftest
     bench.exe record-references --refs DIR

   [--trace 0] times the workload's campaign end to end, untraced, for
   S seconds and prints the end-to-end metrics. [--trace 1] runs the
   campaign once untraced and then the benchmark's own traced loop
   ([Traced]) plus the probes ([Probe]) on the same tests, and prints
   the per-layer metrics. Every campaign is checked ([Checks]); the
   last line of standard output is one JSON object with the keys
   [correct], [attempted], [failed] and [metrics]. *)

open Compi

let now = Unix.gettimeofday

let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* --- metric output --------------------------------------------------- *)

type value = I of int | F of float

let metrics : (string * string * value) list ref = ref []
let emit name unit_ v = metrics := (name, unit_, v) :: !metrics

let json_number = function
  | I n -> string_of_int n
  | F x -> Printf.sprintf "%.17g" x

let print_result ~correct ~attempted ~failed =
  let ms = List.rev !metrics in
  List.iter
    (fun (name, u, v) ->
      Printf.printf "%-28s %s %s\n" name
        (match v with I n -> string_of_int n | F x -> Printf.sprintf "%.6g" x)
        u)
    ms;
  let body =
    String.concat ", "
      (List.map
         (fun (name, u, v) ->
           Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" name (json_number v) u)
         ms)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed body

(* --- operations and their checks ------------------------------------- *)

let attempted = ref 0
let failed = ref 0

(* Count one operation; it fails when [errors] is non-empty. *)
let operation what errors =
  incr attempted;
  if errors <> [] then begin
    incr failed;
    List.iter (fun e -> Printf.printf "CHECK FAILED: %s: %s\n%!" what e) errors
  end

(* --- set-up ------------------------------------------------------------ *)

type setup = { instrument_s : float list; compile_s : float list; info : Minic.Branchinfo.t }

(* Instrument and compile the target [reps] times; callers take the
   median. The count is fixed, so the heap the campaigns start from
   does not depend on the machine's speed. *)
let setup ?(reps = 100) (w : Workload.t) =
  let reg = Workload.registry w in
  let rec go n ins comps last =
    if n >= reps then { instrument_s = ins; compile_s = comps; info = Option.get last }
    else begin
      let t0 = now () in
      let info = Targets.Registry.instrument reg in
      let t1 = now () in
      ignore (Runner.prepare Runner.Exec_compiled info);
      let t2 = now () in
      go (n + 1) ((t1 -. t0) :: ins) ((t2 -. t1) :: comps) (Some info)
    end
  in
  go 0 [] [] None

(* --- campaigns ----------------------------------------------------------- *)

type timed = { result : Campaign.result; wall_s : float; cpu_s : float }

(* Each campaign starts from a compacted heap, as it would in a fresh
   process, so one repetition's garbage does not slow the next. *)
let campaign ~settings ~(w : Workload.t) info =
  Gc.compact ();
  let c0 = cpu_s () and t0 = now () in
  let result = Campaign.run ~settings ~label:w.Workload.target info in
  { result; wall_s = now () -. t0; cpu_s = cpu_s () -. c0 }

let reset_live (f : Workload.live_files) =
  List.iter Checks.remove [ f.Workload.status; f.Workload.checkpoint; f.Workload.ledger ]

(* The workload's own campaign, checked against the reference (and its
   live files). [live] is where the live files go, when the workload
   writes them. *)
let checked_campaign ?live ?jobs ~reference (w : Workload.t) info ~what =
  Option.iter reset_live live;
  let jobs = Option.value jobs ~default:w.Workload.jobs in
  let settings =
    Workload.settings ~jobs ?live w ~seed:w.Workload.campaign_seed
      ~iterations:w.Workload.iterations
  in
  let t = campaign ~settings ~w info in
  let errors =
    (match reference with
    | None -> [ "no reference to check against" ]
    | Some expected -> (
      match Checks.against_reference ~reference:expected t.result with
      | None -> []
      | Some d -> [ "coverage report differs from the reference, " ^ d ]))
    @ (match w.Workload.required_bugs with
      | Some n when List.length (Checks.bug_keys t.result) <> n ->
        [ Printf.sprintf "%d distinct bugs, %d required" (List.length (Checks.bug_keys t.result)) n ]
      | Some _ | None -> [])
    @
    match live with
    | Some f -> Checks.live_files f ~budget:w.Workload.iterations t.result
    | None -> []
  in
  operation what errors;
  t

(* The run's [--seed] campaign: a short campaign on the same target,
   run as the workload runs it and again at one job with the solver
   cache off; the two canonical reports must be byte-identical. *)
let cross_check (w : Workload.t) info ~seed =
  let settings jobs cache =
    let s = Workload.settings ~jobs w ~seed ~iterations:Workload.check_iterations in
    { s with Campaign.solver_cache = cache }
  in
  let a = campaign ~settings:(settings w.Workload.jobs true) ~w info in
  let b = campaign ~settings:(settings 1 false) ~w info in
  operation "cross-check"
    (Option.to_list
       (Option.map
          (Printf.sprintf "seed %d: jobs %d cache on differs from jobs 1 cache off, %s" seed
             w.Workload.jobs)
          (Checks.diff ~expected:(Checks.render b.result) ~actual:(Checks.render a.result))))

let plateau_iter (r : Campaign.result) =
  let best = ref (-1) and at = ref 0 in
  List.iter
    (fun (st : Driver.iter_stat) ->
      if st.Driver.covered_after > !best then begin
        best := st.Driver.covered_after;
        at := st.Driver.iteration
      end)
    r.Campaign.summary.Driver.stats;
  !at

let load_reference ~refs w =
  match Checks.read_file (Checks.reference_file ~dir:refs w) with
  | Ok s -> Some s
  | Error e ->
    Printf.printf "cannot read the reference: %s\n" e;
    None

(* --- trace 0: end-to-end ---------------------------------------------- *)

let end_to_end (w : Workload.t) ~seed ~seconds ~refs ~out =
  let reference = load_reference ~refs w in
  let live = if w.Workload.live then Some (Workload.live_files ~dir:out) else None in
  (* set-up is sampled in small batches spread over the run, one before
     each campaign, so a slow spell of the shared host cannot take all
     of its samples *)
  let setups = ref [] in
  let run ?jobs what =
    let st = setup ~reps:15 w in
    setups := st :: !setups;
    checked_campaign ?live ?jobs ~reference w st.info ~what
  in
  (* The warm-up runs at one job and the heap is read right after it:
     the top heap keeps creeping up over repeated campaigns in one
     process, and at two jobs it varied between 15 and 27 MB from run to
     run of hpl-live. *)
  let warm = run ~jobs:1 "warm-up campaign at one job" in
  let top_heap_words = (Gc.quick_stat ()).Gc.top_heap_words in
  let t_measure = now () in
  (* at least three campaigns; no campaign that would end past the time *)
  let rec measure acc =
    let last = match acc with t :: _ -> t.wall_s | [] -> 0.0 in
    if List.length acc >= 3 && now () -. t_measure +. last > seconds then acc
    else measure (run "timed campaign" :: acc)
  in
  let reps = measure [] in
  if w.Workload.jobs > 1 then
    operation "jobs-1 comparison"
      (List.filter_map
         (fun t ->
           Option.map
             (fun d -> Printf.sprintf "jobs %d report differs from jobs 1, %s" w.Workload.jobs d)
             (Checks.diff ~expected:(Checks.render warm.result) ~actual:(Checks.render t.result)))
         reps);
  cross_check w (List.hd !setups).info ~seed;
  (* The repetitions do identical work, and the shared host only ever
     slows one down: in a 100 s trace a fixed CPU loop ran 1.6x slower
     in spells of 2-6 s, and repetitions of one campaign spread over
     1.7x. The fastest quarter of the repetitions tracks the program's
     own cost; their median is printed alongside. *)
  let executed t = float_of_int t.result.Campaign.executed in
  let rates = List.map (fun t -> executed t /. t.wall_s) reps in
  let cpus = List.map (fun t -> 1000.0 *. t.cpu_s /. executed t) reps in
  emit "tests_per_s" "1/s" (F (Stats.quantile rates 0.75));
  emit "cpu_ms_per_test" "ms" (F (Stats.quantile cpus 0.25));
  emit "coverage_branches" "count" (I warm.result.Campaign.summary.Driver.covered_branches);
  emit "plateau_iter" "count" (I (plateau_iter warm.result));
  emit "setup_s" "s"
    (F
       (Stats.median
          (List.concat_map (fun st -> List.map2 ( +. ) st.instrument_s st.compile_s) !setups)));
  emit "peak_heap_mb" "MB"
    (F (float_of_int (top_heap_words * (Sys.word_size / 8)) /. 1048576.0));
  Printf.printf "%-28s %d count (checked, not a metric: zero on two workloads)\n" "bugs_found"
    (List.length (Checks.bug_keys warm.result));
  let show f = String.concat " " (List.rev_map (fun t -> Printf.sprintf "%.3f" (f t)) reps) in
  Printf.printf "%-28s %d over %.1f s; walls %s s; cpu %s s\n" "timed_campaigns"
    (List.length reps) (now () -. t_measure) (show (fun t -> t.wall_s)) (show (fun t -> t.cpu_s));
  Printf.printf "%-28s %.6g 1/s, %.6g ms\n" "median tests_per_s, cpu" (Stats.median rates)
    (Stats.median cpus)

(* --- trace 1: per-layer ------------------------------------------------ *)

let per_layer (w : Workload.t) ~seed ~seconds ~refs ~out =
  let t_begin = now () in
  let reference = load_reference ~refs w in
  let st = setup w in
  let dir name =
    let d = Filename.concat out name in
    Checks.mkdir_p d;
    Workload.live_files ~dir:d
  in
  let live_u = if w.Workload.live then Some (dir "untraced") else None in
  let live_1 = Option.map (fun _ -> dir "untraced-1") live_u in
  let compiled = Runner.prepare Runner.Exec_compiled st.info in
  let files = dir "traced" in
  let settings =
    Workload.settings w ~seed:w.Workload.campaign_seed ~iterations:w.Workload.iterations
  in
  (* One round: the untraced campaign as the workload runs it, the same
     campaign at one job when the workload runs more (the traced loop is
     serial, so its overhead is measured against one job), then one
     traced pass. Rounds alternate until the time is used. *)
  let round () =
    let u = checked_campaign ?live:live_u ~reference w st.info ~what:"untraced campaign" in
    let base =
      if w.Workload.jobs = 1 then u
      else
        checked_campaign ?live:live_1 ~jobs:1 ~reference w st.info
          ~what:"untraced campaign at one job"
    in
    reset_live files;
    Gc.compact ();
    let p =
      Traced.run ~settings ~label:w.Workload.target ~info:st.info ~compiled ~files
        ~live:w.Workload.live ()
    in
    (* the traced loop must have done the untraced campaign's work *)
    let ur = u.result in
    let ucache = Option.get ur.Campaign.cache in
    let same what a b =
      if a <> b then [ Printf.sprintf "%s: traced %d, untraced %d" what a b ] else []
    in
    operation "traced loop"
      (same "tests" p.Traced.result.Campaign.executed ur.Campaign.executed
      @ same "cache probes" p.Traced.probes (ucache.Smt.Cache.hits + ucache.Smt.Cache.misses)
      @ same "cache hits" p.Traced.hits ucache.Smt.Cache.hits
      @ same "solver calls" p.Traced.result.Campaign.solver_calls ur.Campaign.solver_calls
      @ same "coverage_branches" p.Traced.result.Campaign.summary.Driver.covered_branches
          ur.Campaign.summary.Driver.covered_branches
      @
      match Checks.diff ~expected:(Checks.render ur) ~actual:(Checks.render p.Traced.result) with
      | None -> []
      | Some d -> [ "traced report differs from the untraced one, " ^ d ]);
    (u, base, p)
  in
  (* a round takes two to three traced passes' time *)
  let rec rounds acc =
    let last = match acc with (_, _, p) :: _ -> p.Traced.wall_s | [] -> 0.0 in
    if acc <> [] && (List.length acc >= 5 || now () -. t_begin +. (3.0 *. last) > seconds) then acc
    else rounds (round () :: acc)
  in
  let all_rounds = rounds [] in
  let median_of f = Stats.median (List.map f all_rounds) in
  (* per-layer figures come from the traced pass of median wall time *)
  let sorted =
    List.sort (fun (_, _, a) (_, _, b) -> compare a.Traced.wall_s b.Traced.wall_s) all_rounds
  in
  let _, _, p = List.nth sorted (List.length sorted / 2) in
  let untraced, _, _ = List.hd all_rounds in
  let light_runner_s = Probe.uninstrumented p.Traced.configs in
  let replay = Probe.light_replay p.Traced.configs in
  operation "light replay"
    (if replay.Probe.misordered = 0 then []
     else [ Printf.sprintf "%d misordered clock switches" replay.Probe.misordered ]);
  Spans.write p.Traced.spans (Filename.concat out "spans.jsonl");
  let tot = Spans.totals p.Traced.spans in
  let self k = (tot k).Spans.self_s in
  let calls k = (tot k).Spans.calls in
  let us_p50 k = Stats.median (match (tot k).Spans.durations_us with [] -> [ 0.0 ] | d -> d) in
  let us_tail k =
    let t = Stats.tail_percentile ~wanted:0.99 (tot k).Spans.durations_us in
    Printf.printf "%-28s %s\n" (k ^ " tail") (Stats.label t);
    t.Stats.value
  in
  let layer_kinds =
    [
      "runner.run"; "concolic.prepare"; "smt.cache_find"; "smt.solve"; "smt.replay";
      "smt.cache_add"; "conflict.resolve"; "concolic.next_batch"; "concolic.observe";
      "checkpoint.save"; "obs.status_publish"; "obs.ledger_append";
    ]
  in
  let attributed = Stats.sum (List.map self layer_kinds) in
  let wall = p.Traced.wall_s in
  let runner_busy = self "runner.run" in
  emit "targets.instrument_s" "s" (F (Stats.median st.instrument_s));
  emit "minic.compile_s" "s" (F (Stats.median st.compile_s));
  emit "runner.calls" "count" (I (calls "runner.run"));
  emit "runner.busy_s" "s" (F runner_busy);
  emit "runner.p50_us" "us" (F (us_p50 "runner.run"));
  emit "runner.p99_us" "us" (F (us_tail "runner.run"));
  emit "runner.instrument_s" "s" (F (runner_busy -. light_runner_s));
  emit "runner.platform_limit" "count" (I replay.Probe.platform_limit);
  emit "minic.rank_compute_s" "s" (F replay.Probe.rank_compute_s);
  emit "minic.rank_runs" "count" (I replay.Probe.rank_runs);
  emit "mpisim.sim_s" "s" (F replay.Probe.sim_s);
  emit "mpisim.mpi_calls" "count" (I replay.Probe.mpi_calls);
  emit "mpisim.p2p_msgs" "count" (I replay.Probe.p2p_msgs);
  emit "mpisim.collectives" "count" (I replay.Probe.collectives);
  emit "mpisim.ns_per_call" "ns"
    (F (1e9 *. Stats.ratio replay.Probe.sim_s (float_of_int replay.Probe.mpi_calls)));
  emit "concolic.prepare_calls" "count" (I (calls "concolic.prepare"));
  emit "concolic.prepare_s" "s" (F (self "concolic.prepare"));
  emit "concolic.prepare_us_p50" "us" (F (us_p50 "concolic.prepare"));
  emit "concolic.prepare_us_p99" "us" (F (us_tail "concolic.prepare"));
  emit "concolic.key_constraints_mean" "count"
    (F (Stats.mean (List.map float_of_int p.Traced.key_sizes)));
  emit "concolic.strategy_s" "s" (F (self "concolic.next_batch" +. self "concolic.observe"));
  emit "conflict.resolve_s" "s" (F (self "conflict.resolve"));
  emit "smt.cache_probes" "count" (I (calls "smt.cache_find"));
  emit "smt.cache_hits" "count" (I p.Traced.hits);
  emit "smt.cache_hit_ratio" "ratio"
    (F (Stats.ratio (float_of_int p.Traced.hits) (float_of_int p.Traced.probes)));
  emit "smt.cache_find_s" "s" (F (self "smt.cache_find"));
  emit "smt.cache_add_s" "s" (F (self "smt.cache_add"));
  emit "smt.replay_s" "s" (F (self "smt.replay"));
  emit "smt.solve_calls" "count" (I (calls "smt.solve"));
  emit "smt.solve_s" "s" (F (self "smt.solve"));
  emit "smt.solve_us_p50" "us" (F (us_p50 "smt.solve"));
  emit "smt.solve_us_p99" "us" (F (us_tail "smt.solve"));
  emit "smt.sat_ratio" "ratio"
    (F (Stats.ratio (float_of_int p.Traced.sat) (float_of_int p.Traced.solves)));
  emit "smt.unknown" "count" (I p.Traced.unknown);
  emit "checkpoint.saves" "count" (I p.Traced.checkpoint_saves);
  emit "checkpoint.save_s" "s" (F (self "checkpoint.save"));
  emit "checkpoint.bytes" "B" (I p.Traced.checkpoint_bytes);
  emit "obs.status_publishes" "count" (I (calls "obs.status_publish"));
  emit "obs.status_publish_s" "s" (F (self "obs.status_publish"));
  emit "obs.status_us_p50" "us" (F (us_p50 "obs.status_publish"));
  emit "obs.ledger_append_s" "s" (F (self "obs.ledger_append"));
  emit "taskpool.utilization" "ratio"
    (F
       (median_of (fun (u, _, _) ->
            Stats.ratio u.result.Campaign.worker_busy_s
              (u.result.Campaign.summary.Driver.wall_time *. float_of_int w.Workload.jobs))));
  emit "taskpool.queue_depth" "count" (I untraced.result.Campaign.queue_depth);
  emit "campaign.plumbing_s" "s" (F (wall -. attributed));
  emit "trace.attributed_share" "ratio" (F (Stats.ratio attributed wall));
  emit "trace.overhead_ratio" "ratio"
    (F (Stats.ratio (median_of (fun (_, _, p) -> p.Traced.wall_s)) (median_of (fun (_, b, _) -> b.wall_s))));
  Printf.printf "%-28s %d\n" "rounds" (List.length all_rounds);
  Printf.printf "%-28s %.3f s compute + %.3f s simulator of %.3f s replay wall\n" "light_replay"
    replay.Probe.rank_compute_s replay.Probe.sim_s replay.Probe.wall_s;
  cross_check w st.info ~seed

(* --- commands ------------------------------------------------------------ *)

let record_references ~refs =
  Checks.mkdir_p refs;
  List.iter
    (fun (w : Workload.t) ->
      let info = Targets.Registry.instrument (Workload.registry w) in
      let t =
        campaign
          ~settings:(Workload.settings w ~seed:w.Workload.campaign_seed ~iterations:w.Workload.iterations)
          ~w info
      in
      let path = Checks.reference_file ~dir:refs w in
      Out_channel.with_open_bin path (fun oc -> output_string oc (Checks.render t.result));
      Printf.printf "wrote %s\n" path)
    Workload.all

let usage () =
  prerr_endline
    "usage: bench.exe run --workload NAME --seed N --seconds S --trace 0|1 --refs DIR --out DIR\n\
    \       bench.exe selftest\n\
    \       bench.exe record-references --refs DIR";
  exit 2

let () =
  match Array.to_list Sys.argv with
  | _ :: "selftest" :: _ -> exit (if Selftest.run () then 0 else 1)
  | _ :: "record-references" :: "--refs" :: refs :: _ -> record_references ~refs
  | _ :: "run" :: args ->
    let rec opts acc = function
      | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        opts ((String.sub k 2 (String.length k - 2), v) :: acc) rest
      | [] -> acc
      | _ -> usage ()
    in
    let o = opts [] args in
    let get k = match List.assoc_opt k o with Some v -> v | None -> usage () in
    let int k = match int_of_string_opt (get k) with Some n -> n | None -> usage () in
    let w =
      match Workload.find (get "workload") with
      | Some w -> w
      | None ->
        Printf.eprintf "unknown workload %s\n" (get "workload");
        exit 2
    in
    let seed = int "seed" and seconds = float_of_int (int "seconds") in
    let refs = get "refs" and out = get "out" in
    Checks.mkdir_p out;
    if not (Selftest.run ()) then begin
      prerr_endline "benchmark self-tests failed";
      exit 1
    end;
    (match int "trace" with
    | 0 -> end_to_end w ~seed ~seconds ~refs ~out
    | 1 -> per_layer w ~seed ~seconds ~refs ~out
    | _ -> usage ());
    print_result ~correct:(!failed = 0) ~attempted:!attempted ~failed:!failed
  | _ -> usage ()
