(** Front door of the compiler: algorithm zoo + shared pipeline
    (paper Table I, §VI-A).

    [run] takes a {e logical} circuit (arbitrary qubit pairs, CNOT/SWAP
    allowed), routes it onto the device ({!Fastsc_quantum.Mapping}),
    decomposes it into native gates ({!Fastsc_quantum.Decompose}), and
    schedules it with the selected algorithm.  All evaluation figures of the
    paper drive this entry point.

    Since the pass-manager refactor this module is a thin wrapper over
    {!Pass}: the stages run as an instrumented pipeline, the algorithms live
    in the {!Pass} scheduler registry (this module registers the built-in
    zoo at load time), and the algorithm lists and string parsing derive
    from that registry.  Callers who need intermediate artifacts, per-pass
    timings or per-compilation scheduler statistics (what [run_with_stats]
    used to special-case for ColorDynamic) use {!Pass.execute} and read the
    returned context. *)

type algorithm =
  | Naive  (** Baseline N. *)
  | Gmon  (** Baseline G (tunable couplers). *)
  | Uniform  (** Baseline U (single frequency + serialization). *)
  | Static  (** Baseline S (static crosstalk-graph coloring). *)
  | Color_dynamic  (** This work. *)
  | Gmon_dynamic
      (** Extension (paper §VIII): ColorDynamic scheduling on tunable-coupler
          hardware. *)
  | Anneal_dynamic
      (** Extension (paper §III's [31] comparison): direct per-step frequency
          annealing, Snake-optimizer style. *)
  | Murali_delay
      (** Rival compiler (PAPERS.md, Murali et al. ASPLOS 2020):
          software-only crosstalk-adaptive scheduling — static uniform
          frequencies, conflicting simultaneous gates delayed instead of
          detuned. *)
  | Cqc_synergy
      (** Rival compiler (PAPERS.md, CQC): synergistic routing+scheduling —
          SWAP selection scored by depth {e and} crosstalk-graph conflict
          pressure, interleaved with scheduling. *)

val all_algorithms : algorithm list
(** The registered schedulers with [table1 = true], in registration order —
    the paper's Table I evaluation columns (five as of the paper; the count
    follows the registry, not this comment). *)

val extended_algorithms : algorithm list
(** Every registered scheduler backed by an [algorithm] constructor, in
    registration order: Table I, the extensions, and the rival-compiler zoo
    (murali-delay, cqc-synergy).  [greedy-spread], the serve fallback, is
    registry-only and has no constructor. *)

val algorithm_to_string : algorithm -> string
(** The canonical registry name (e.g. ["color-dynamic"]). *)

val algorithm_of_string : string -> algorithm option
(** Parse a canonical name or any registry alias (e.g. ["cd"]). *)

type options = Pass.options = {
  decomposition : Decompose.strategy;  (** Default [Hybrid] (§V-B5). *)
  crosstalk_distance : int;  (** The [d] of G_x^(d); default 1. *)
  max_colors : int option;  (** Per-step color cap (Fig 11); default none. *)
  conflict_threshold : int;  (** noise_conflict neighbour cap; default 2. *)
  residual_coupling : float;  (** Gmon coupler leakage eta (Fig 12); default 0. *)
  placement : [ `Identity | `Degree | `Coherence | `Auto ];
      (** Initial mapping heuristic; [`Auto] (default) keeps whichever of
          the identity and degree placements routes with fewer SWAPs,
          identity on ties, and routes degree only when identity needs a
          SWAP ({!Pass.place}) — device-native circuits (XEB) stay in place
          after one routing, hub-shaped circuits (BV) get packed.  [`Coherence] is the variability-aware policy:
          busiest logical qubits on the best-coherence physical qubits
          (matters when the device has spare qubits). *)
  optimize : bool;
      (** Run the peephole optimizer ({!Optimize}) after decomposition;
          default false so the evaluation matches the paper's unoptimized
          pipeline (the `ablate-optimize` bench measures the benefit). *)
  router : string;
      (** Name or alias of one of {!Pass.router_names}: ["greedy"]
          (per-gate shortest paths) or ["lookahead"] (SABRE-style lookahead
          scoring, the default; the `ablate-router` bench measures the
          difference). *)
  delay_threshold : float;
      (** Crosstalk pair-error budget for the software-only rival schedulers
          (murali-delay, cqc-synergy): simultaneous gate pairs whose modeled
          crosstalk error exceeds it are serialized; default [1e-4]. *)
  warm_start : bool;
      (** Warm-start each moment's frequency solve from the previous moment's
          witness (default false; witnesses may differ within the solver
          tolerance, so the default keeps golden outputs byte-identical). *)
  decompose_components : bool;
      (** Solve independent crosstalk components of each moment separately,
          one after another in component order (default false, same
          golden-output rationale). *)
}
(** Pipeline options — the same record as {!Pass.options}, re-exported so
    existing [Compile.default_options]-based code keeps working. *)

val default_options : options

val prepare : options -> Device.t -> Circuit.t -> Circuit.t
(** Route + decompose (the [place -> route -> decompose -> optimize] prefix
    of the pipeline): returns the physical native-gate circuit every
    scheduler consumes.  Exposed so ablations can share one preparation. *)

val schedule_native : options -> algorithm -> Device.t -> Circuit.t -> Schedule.t
(** Schedule an already-prepared (routed, native) circuit with the registered
    scheduler for [algorithm]. *)

val run : ?options:options -> algorithm -> Device.t -> Circuit.t -> Schedule.t
(** The full pipeline ({!Pass.execute} through the schedule stage). *)
