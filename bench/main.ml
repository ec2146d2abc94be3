(* Experiment harness entry point: regenerates every table and figure of
   the paper's evaluation (section VI) on the simulated substrate, plus
   Bechamel micro-benchmarks of the hot kernels.

     dune exec bench/main.exe                 — everything, quick budgets
     dune exec bench/main.exe -- fig4 table6  — selected experiments
     dune exec bench/main.exe -- --scale 4 all — 4x longer budgets
     dune exec bench/main.exe -- --profile parallel — also trace one
       jobs-4 campaign and print its span profile

   Absolute numbers differ from the paper (simulator vs the authors'
   testbed; budgets scaled from hours to seconds); the shapes — who
   wins, by roughly what factor, where curves saturate — are the
   reproduction target. See EXPERIMENTS.md for the side-by-side. *)

let experiments =
  [
    ("table3", "Table III: target complexity", Exp_table3.run);
    ("fig4", "Figure 4: search strategies on HPL", Exp_fig4.run);
    ("fig6", "Figure 6: HPL cost vs matrix size", Exp_fig6.run);
    ("fig8", "Figure 8: input capping", Exp_fig8.run);
    ("table4", "Table IV: one-way vs two-way instrumentation", Exp_table4.run);
    ("table5", "Table V + Figure 9: constraint-set reduction", Exp_table5.run);
    ("table6", "Table VI: framework vs No_Fwk vs Random", Exp_table6.run);
    ("bugs", "Section VI-A: the four SUSY-HMC bugs", Exp_bugs.run);
    ("ablation", "Design-decision ablations (beyond the paper)", Exp_ablation.run);
    ("parallel", "Parallel campaign engine: jobs scaling + solver cache", Exp_parallel.run);
  ]

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let scale = ref Util.default_scale in
  let selected = ref [] in
  let rec parse = function
    | [] -> ()
    | "--scale" :: x :: rest ->
      let f = float_of_string x in
      scale := { !scale with Util.time = f; iters = f };
      parse rest
    | "--reps" :: x :: rest ->
      scale := { !scale with Util.reps = int_of_string x };
      parse rest
    | "--profile" :: rest ->
      Util.profile_mode := true;
      parse rest
    | "all" :: rest -> parse rest
    | name :: rest ->
      if List.exists (fun (n, _, _) -> n = name) experiments || name = "micro" then
        selected := name :: !selected
      else begin
        Printf.eprintf "unknown experiment %s; available: %s micro\n" name
          (String.concat " " (List.map (fun (n, _, _) -> n) experiments));
        exit 2
      end;
      parse rest
  in
  parse args;
  let wanted name = !selected = [] || List.mem name !selected in
  Printf.printf "COMPI reproduction benchmark harness (scale %.2g, %d reps)\n"
    !scale.Util.time !scale.Util.reps;
  List.iter (fun (name, _, f) -> if wanted name then f !scale) experiments;
  if wanted "micro" then begin
    Util.write_metrics_json "BENCH_microbench.json" (Microbench.run ())
  end;
  Printf.printf "\nDone.\n"
