(* Deliberate-fault injection for the layered verification harness.

   Each catalog entry names one seeded bug at one specific site in the code
   base (a flipped comparison, a dropped cache invalidation, an off-by-one in
   an index computation).  The site stays on its correct path unless the
   process was started with FASTSC_FAULT=<name>, in which case exactly that
   fault activates.  Tier D of `make verify` (and the test_verify meta-suite)
   runs the listed suites under each fault and demands that at least one of
   them fails — measuring that the test suite has teeth, not just that it is
   green.

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
      site = "Statevector.apply_matrix1";
      description =
        "bit-scatter index shift off by one: amplitude pairs overlap and the kernel \
         overwrites amplitudes it still needs";
      suites = [ "statevector"; "prop_sim" ];
    };
    {
      name = "sim-operand-swap";
      site = "Statevector.apply_matrix2";
      description = "operand bit masks swapped: the 4x4 gate acts with its qubits reversed";
      suites = [ "statevector"; "prop_sim" ];
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
      name = "snapshot-checksum-skip";
      site = "Snapshot.load";
      description =
        "snapshot loaded without checksum validation: a corrupted payload is deserialized \
         into the warm cache instead of being quarantined";
      suites = [ "snapshot" ];
    };
    {
      name = "fusion-identity-skip";
      site = "Fusion.plan";
      description =
        "end-of-circuit flush drops every pending fused 2x2 as if it were the identity: \
         trailing 1q gate runs vanish from the fused program";
      suites = [ "fusion"; "prop_sim" ];
    };
    {
      name = "shard-boundary-off-by-one";
      site = "Pool.ranges";
      description =
        "interior shard starts shifted up by one: each boundary skips one amplitude index, \
         so sharded gate application diverges from the serial reference";
      suites = [ "pool"; "prop_sim" ];
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
        "conflict-pressure term dropped from SWAP scoring: routing degenerates to plain \
         depth lookahead and ignores spectrum collisions with concurrent gates";
      suites = [ "rivals" ];
    };
  ]

let names = List.map (fun s -> s.name) catalog

let find name = List.find_opt (fun s -> s.name = name) catalog

(* The active fault is resolved once per process, at module initialisation.
   An unknown name is a hard error: a typo in FASTSC_FAULT silently injecting
   nothing would make the meta-suite green for the wrong reason. *)
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
