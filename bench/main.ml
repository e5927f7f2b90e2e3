(* Experiment dispatcher: regenerates every table and figure of the paper.
   Run everything with `dune exec bench/main.exe`, or one experiment by name:
   `dune exec bench/main.exe -- fig9`. *)

let experiments =
  [
    ("fig2", "interaction strength vs detuning", Exp_physics.fig2);
    ("fig4", "transmon spectrum vs flux", Exp_physics.fig4);
    ("fig6", "worked example (toy program)", Exp_fig6.fig6);
    ("fig7", "crosstalk-graph coloring", Exp_fig7.fig7);
    ("fig9", "worst-case success rates", fun () -> Exp_success.fig9 ());
    ("fig10", "depth and decoherence", fun () -> Exp_success.fig10 ());
    ("fig11", "tunability sweet spot", Exp_tunability.fig11);
    ("fig12", "gmon residual coupling", Exp_gmon.fig12);
    ("fig13", "general connectivity", Exp_connectivity.fig13);
    ("fig14", "example frequency maps", Exp_freqmap.fig14);
    ("fig15", "two-transmon transitions", Exp_physics.fig15);
    ("table2", "benchmark characteristics", Exp_table2.table2);
    ("scalability", "compile time vs size", Exp_connectivity.scalability);
    ("seeds", "fabrication robustness sweep", Exp_seeds.robustness);
    ("validate", "heuristic vs noisy simulation", Exp_validate.validate);
    ("audit", "microscopic 3-level step audit", Exp_audit.audit);
    ("ablate-coloring", "coloring heuristic ablation", Exp_ablations.coloring);
    ("ablate-decompose", "decomposition ablation", Exp_ablations.decomposition);
    ("ablate-distance", "crosstalk distance ablation", Exp_ablations.distance);
    ("ablate-threshold", "conflict threshold ablation", Exp_ablations.threshold);
    ("ablate-optimize", "peephole optimizer ablation", Exp_ablations.optimize);
    ("ablate-router", "SWAP router ablation", Exp_ablations.router);
    ("shootout", "cross-compiler shootout: scheduler zoo x topology zoo", Exp_shootout.run);
    ("ext-bench", "extension: GHZ/QFT workloads", Exp_extensions.extra_benchmarks);
    ("ext-lattices", "extension: heavy-hex/octagonal", Exp_extensions.machine_lattices);
    ("ext-pulses", "extension: pulse lowering stats", Exp_extensions.pulse_lowering);
    ("ext-anneal", "extension: snake-style annealing comparison", Exp_extensions.snake_comparison);
    ("ext-generations", "extension: hardware generations", Exp_generations.generations);
    ("compile-bits", "bit patterns of compile metrics (test golden)", Exp_compile_bits.run);
    ("sim-bits", "bit patterns of trajectory means (test golden)", Exp_sim_bits.run);
  ]

(* `fig9` and `fig10` share one sweep when running everything. *)
let run_all () =
  Exp_physics.fig2 ();
  Exp_physics.fig4 ();
  Exp_fig6.fig6 ();
  Exp_fig7.fig7 ();
  Exp_success.both ();
  Exp_tunability.fig11 ();
  Exp_gmon.fig12 ();
  Exp_connectivity.fig13 ();
  Exp_freqmap.fig14 ();
  Exp_physics.fig15 ();
  Exp_table2.table2 ();
  Exp_connectivity.scalability ();
  Exp_seeds.robustness ();
  Exp_validate.validate ();
  Exp_audit.audit ();
  Exp_ablations.all ();
  Exp_extensions.all ();
  Exp_generations.generations ();
  Exp_shootout.run ()

let usage () =
  print_endline "usage: main.exe [--jobs N] [experiment...]";
  print_endline "available experiments:";
  List.iter (fun (name, descr, _) -> Printf.printf "  %-18s %s\n" name descr) experiments;
  print_endline "  all                everything (default)";
  print_endline
    "  --jobs N | -j N    domains for the sweep grid (default: cores - 1,\n\
    \                     or the FASTSC_JOBS environment variable)"

(* Strip --jobs/-j from the argument list before experiment dispatch.  The
   chosen parallelism is announced on stderr (and per heading): stdout is the
   determinism surface and must be byte-identical at any job count. *)
let parse_jobs args =
  let rec go acc = function
    | [] -> List.rev acc
    | ("--jobs" | "-j") :: value :: rest -> (
      match int_of_string_opt value with
      | Some j when j >= 1 ->
        Pool.set_default_jobs j;
        go acc rest
      | _ ->
        Printf.eprintf "--jobs needs a positive integer, got %S\n" value;
        exit 1)
    | [ ("--jobs" | "-j") ] ->
      Printf.eprintf "--jobs needs a value\n";
      exit 1
    | arg :: rest -> go (arg :: acc) rest
  in
  go [] args

let () =
  let args = parse_jobs (List.tl (Array.to_list Sys.argv)) in
  Printf.eprintf "parallelism: %d jobs (override with --jobs N or FASTSC_JOBS)\n%!"
    (Pool.default_jobs ());
  match args with
  | [] | [ "all" ] -> run_all ()
  | args ->
    List.iter
      (fun arg ->
        match List.find_opt (fun (name, _, _) -> name = arg) experiments with
        | Some (_, _, run) -> run ()
        | None ->
          if arg = "--help" || arg = "-h" then usage ()
          else begin
            Printf.printf "unknown experiment: %s\n" arg;
            usage ();
            exit 1
          end)
      args
