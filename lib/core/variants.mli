(** Named campaign configurations — the paper's experiment arms — and
    the one place that maps an arm onto {!Campaign.settings}.

    Each preset transforms a base {!Driver.settings} (usually derived
    from a target's tuning) into one of the configurations evaluated in
    section VI, so benchmarks and the CLI agree on what e.g. "NRBound"
    means. Every arm runs through {!Campaign.run} in the paper's
    sequential shape: one job, batch 1 (one negation per test, in the
    strategy's order), solver cache on. *)

type t =
  | Compi_default  (** R + two-way + framework + two-phase BoundedDFS *)
  | No_reduction_bounded of int  (** NRBound: reduction off, fixed bound *)
  | No_reduction_unlimited  (** NRUnl *)
  | One_way  (** one-way instrumentation (Table IV baseline) *)
  | No_framework  (** No_Fwk: fixed focus/process count, focus-only coverage *)
  | Strategy_of of Concolic.Strategy.kind  (** Figure 4 arms *)
  | Random
      (** the Random baseline of Table VI: fresh random inputs, process
          count and focus for every test, no symbolic execution *)

val name : t -> string
val apply : t -> Driver.settings -> Driver.settings

val settings : t -> Driver.settings -> Campaign.settings
(** [apply], wrapped in the paper's campaign shape: jobs 1, batch 1,
    solver cache on, no checkpoint, status file or ledger. *)

val run : ?label:string -> t -> settings:Driver.settings -> Minic.Branchinfo.t -> Driver.result
(** [Campaign.run] under {!settings}; [label] names the target in the
    telemetry stream. *)
