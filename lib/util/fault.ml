(* Deliberate-fault injection for the layered verification harness.

   Each catalog entry names one seeded bug at one specific site in the code
   base (a flipped comparison, a dropped cache invalidation, an off-by-one in
   an index computation).  The site stays on its correct path unless the
   process was started with FASTSC_FAULT=<name>, in which case exactly that
   fault activates.  Tier D of `make verify` runs the listed suites under
   each fault and demands that at least one of them fails — measuring that
   the test suite has teeth, not just that it is green.

   Sites guard themselves with a module-level [bool] bound to {!enabled} at
   module initialisation, so the correct path pays one load per call and
   nothing in a kernel's inner loop ever re-reads the environment.  The flags
   are resolved eagerly, before any domain starts: a module-level [lazy]
   forced for the first time from two pool domains at once raises
   [CamlinternalLazy.Undefined] in one of them. *)

type spec = {
  name : string;
  site : string;
  description : string;
  suites : string list;
}

let catalog =
  [
    {
      name = "smt-resolve-flip";
      site = "Smt.resolve_upward";
      description =
        "dominated-interval comparison flipped: no blocked interval ever bumps the running \
         value, so infeasible placements are reported feasible";
      suites = [ "smt"; "prop_smt" ];
    };
    {
      name = "smt-sideband-skip";
      site = "Smt.self_constraints_ok";
      description = "self-sideband constraints reported satisfiable at any delta";
      suites = [ "smt" ];
    };
    {
      name = "freq-cache-stale-reset";
      site = "Freq_alloc.reset_solver_cache";
      description =
        "cache invalidation dropped: reset zeroes the counters but leaves stale entries in \
         the memo table";
      suites = [ "cache" ];
    };
    {
      name = "freq-cache-key-alpha";
      site = "Freq_alloc.solve_separated";
      description =
        "memo key built with alpha = 0: problems differing only in the sideband offset \
         share a cache entry";
      suites = [ "cache" ];
    };
    {
      name = "sim-scatter-off-by-one";
      site = "Statevector.apply_entries1";
      description =
        "high-block stride of the pair walk off by one bit: consecutive blocks overlap, \
         amplitude pairs alias and the kernel overwrites amplitudes it still needs";
      suites = [ "statevector"; "prop_sim" ];
    };
    {
      name = "sim-operand-swap";
      site = "Statevector.apply_entries2";
      description = "operand bit masks swapped: the 4x4 gate acts with its qubits reversed";
      suites = [ "statevector"; "prop_sim" ];
    };
    {
      name = "sim-exchange-phase";
      site = "Statevector.apply_exchange";
      description =
        "partial exchange applied with +i sin theta instead of -i sin theta: every leak \
         probability is unchanged, but the amplitudes' phases are wrong";
      suites = [ "statevector"; "prop_sim" ];
    };
    {
      name = "sim-diag-index";
      site = "Statevector.apply_diagonal2";
      description =
        "diagonal kernel exchanges its |10> and |11> entries: on CZ the -1 phase lands on \
         |10> instead of |11>, which neither conjugating the entries nor swapping the \
         operands would do";
      suites = [ "statevector"; "prop_sim" ];
    };
    {
      name = "sim-prefix-resume";
      site = "Noisy_sim.average_fidelity";
      description =
        "a trial's continuation resumes at its first-hit Pauli instruction instead of after \
         it, so that channel is drawn, and may fire, a second time";
      suites = [ "noisy_sim"; "prop_sim" ];
    };
    {
      name = "density-pauli-y-sign";
      site = "Density.apply_pauli";
      description =
        "the Y term of the closed-form Pauli channel enters the coherences with + instead \
         of -: populations are unchanged, but every coherence decays as if Y were an X";
      suites = [ "density"; "prop_sim" ];
    };
    {
      name = "density-exchange-phase";
      site = "Density.apply_exchange";
      description =
        "the density-local exchange applies +i sin theta instead of -i sin theta: the \
         exact reference conjugates by the wrong unitary while every leak probability \
         stays the same";
      suites = [ "density"; "prop_sim" ];
    };
    {
      name = "pool-scramble";
      site = "Pool.mapi_array";
      description = "results written back in reverse index order instead of by input index";
      suites = [ "pool" ];
    };
    {
      name = "rng-split-alias";
      site = "Rng.split";
      description =
        "child generator aliases the parent's future stream instead of being seeded from a \
         fresh draw";
      suites = [ "rng" ];
    };
    {
      name = "color-greedy-clash";
      site = "Coloring.greedy";
      description = "neighbour colors ignored: every vertex is assigned color 0";
      suites = [ "coloring"; "prop_coloring" ];
    };
    {
      name = "sched-xtalk-drop";
      site = "Schedule.evaluate";
      description = "crosstalk accumulator dropped: metrics report zero crosstalk error";
      suites = [ "algorithms" ];
    };
    {
      name = "smt-deadline-skip";
      site = "Smt.deadline_check";
      description =
        "cooperative deadline polls in the solver loops skipped: a solve past its budget \
         runs to completion instead of raising Deadline.Expired";
      suites = [ "deadline" ];
    };
    {
      name = "serve-ladder-tier";
      site = "Ladder.compile";
      description =
        "degradation ladder labels the response with the first tier attempted instead of \
         the tier that actually produced the witness";
      suites = [ "serve" ];
    };
    {
      name = "murali-delay-threshold";
      site = "Murali_delay.pack";
      description =
        "delay-threshold comparison flipped: conflicting simultaneous gates pack together \
         and harmless distant pairs serialize";
      suites = [ "rivals" ];
    };
    {
      name = "cqc-swap-score";
      site = "Cqc_synergy.route";
      description =
        "pressure weight forced to 0 in SWAP scoring: routing degenerates to plain \
         lookahead and ignores spectrum collisions with concurrent gates";
      suites = [ "rivals" ];
    };
    {
      name = "xtalk-moment-edge-drop";
      site = "Crosstalk_graph.moment_subgraph";
      description =
        "per-moment subgraph built without the edges between active couplings: every \
         active coupling gets color 0, so crosstalk neighbours share one interaction \
         frequency";
      suites = [ "crosstalk_graph"; "algorithms" ];
    };
    {
      name = "pending-crit-order";
      site = "Pending.key";
      description =
        "ready set keyed by program order alone: ready gates are served first come, \
         not most critical first";
      suites = [ "pending" ];
    };
    {
      name = "place-zero-shortcut";
      site = "Pass.place";
      description =
        "Auto placement keeps identity without trying degree when identity routes with \
         one SWAP, not only with none: a degree placement that needs no SWAP is lost";
      suites = [ "prop_hot_path" ];
    };
    {
      name = "route-tie-last";
      site = "Mapping.route_lookahead";
      description =
        "SWAP tie-break flipped: among equally scored candidates the router keeps the last \
         coupling in ascending order instead of the first";
      suites = [ "prop_hot_path" ];
    };
  ]

let names = List.map (fun s -> s.name) catalog

let find name = List.find_opt (fun s -> s.name = name) catalog

(* The active fault is resolved once per process, at module initialisation.
   An unknown name is a hard error: a typo in FASTSC_FAULT silently injecting
   nothing would make the fault sweep green for the wrong reason. *)
let active_fault =
  match Sys.getenv_opt "FASTSC_FAULT" with
  | None | Some "" -> None
  | Some name ->
    if List.mem name names then Some name
    else begin
      Printf.eprintf "FASTSC_FAULT=%s: unknown fault (catalog: %s)\n%!" name
        (String.concat " " names);
      exit 2
    end

let active () = active_fault

let enabled name =
  if not (List.mem name names) then
    invalid_arg (Printf.sprintf "Fault.enabled: %S is not in the catalog" name);
  active () = Some name
