(* The benchmark's workloads: one fixed, characterised campaign each.

   A campaign's cost depends on its trajectory, and the trajectory on
   its seed: across campaign seeds 10-21, susy-hmc at 1000 iterations
   ran from 0.4 s to 3.5 s and from 320 to 7,720 solver calls. The
   metrics are therefore measured on one named campaign per workload,
   and the run's [--seed] picks a second, shorter campaign on the same
   target that is only cross-checked (see [Checks]). *)

type t = {
  name : string;
  target : string;
  campaign_seed : int;
  iterations : int;
  jobs : int;
  live : bool;
      (* status file, checkpoint (default cadence) and ledger on — the
         way a watched, resumable campaign runs *)
  required_bugs : int option;  (* distinct bug keys the campaign must find *)
}

let all =
  [
    {
      name = "susy-solve";
      target = "susy-hmc";
      campaign_seed = 7;
      iterations = 1000;
      jobs = 1;
      live = false;
      required_bugs = Some 4;
    };
    {
      name = "imb-comm";
      target = "imb-mpi1";
      campaign_seed = 7;
      iterations = 600;
      jobs = 1;
      live = false;
      required_bugs = None;
    };
    {
      name = "hpl-live";
      target = "hpl";
      campaign_seed = 7;
      iterations = 1000;
      jobs = 2;
      live = true;
      required_bugs = None;
    };
  ]

(* budget of the [--seed] cross-check campaign *)
let check_iterations = 150

let find name = List.find_opt (fun w -> w.name = name) all

let registry w = Targets.Catalog.find_exn w.target

(* The settings [compi-cli run --target T --iterations N --seed S]
   builds, with the workload's job count. *)
let base_settings w ~seed ~iterations =
  let tn = (registry w).Targets.Registry.tuning in
  {
    Compi.Driver.default_settings with
    Compi.Driver.iterations;
    dfs_phase_iters = tn.Targets.Registry.dfs_phase;
    initial_nprocs = tn.Targets.Registry.initial_nprocs;
    step_limit = tn.Targets.Registry.step_limit;
    seed;
  }

type live_files = { status : string; checkpoint : string; ledger : string }

let live_files ~dir =
  {
    status = Filename.concat dir "status.json";
    checkpoint = Filename.concat dir "checkpoint";
    ledger = Filename.concat dir "ledger.jsonl";
  }

let settings ?(jobs = 1) ?live w ~seed ~iterations =
  let base = base_settings w ~seed ~iterations in
  let s = { Compi.Campaign.default_settings with Compi.Campaign.base; jobs } in
  match live with
  | None -> s
  | Some f ->
    {
      s with
      Compi.Campaign.status_file = Some f.status;
      checkpoint = Some f.checkpoint;
      ledger = Some f.ledger;
    }
