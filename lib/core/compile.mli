(** Front door of the compiler: the typed algorithm list and the shared
    pipeline (paper Table I, §VI-A).

    [run] takes a {e logical} circuit (arbitrary qubit pairs, CNOT/SWAP
    allowed), routes it onto the device ({!Fastsc_quantum.Mapping}),
    decomposes it into native gates ({!Fastsc_quantum.Decompose}), and
    schedules it with the selected algorithm.  All evaluation figures of the
    paper drive this entry point.

    This module is a thin wrapper over {!Pass}: the stages run as an
    instrumented pipeline, the algorithms are entries of {!Pass.schedulers},
    and options are {!Pass.options}.  Callers who need intermediate
    artifacts, per-pass timings or per-compilation scheduler statistics use
    {!Pass.execute} and read the returned context. *)

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
(** The paper's five Table I evaluation columns: [Naive], [Gmon],
    [Uniform], [Static], [Color_dynamic]. *)

val extended_algorithms : algorithm list
(** Every constructor, in {!Pass.schedulers} order: Table I, the
    extensions, and the rival-compiler zoo (murali-delay, cqc-synergy).
    [greedy-spread], the serve fallback, is reached by name only and has no
    constructor. *)

val algorithm_to_string : algorithm -> string
(** The canonical scheduler name (e.g. ["color-dynamic"]). *)

val algorithm_of_string : string -> algorithm option
(** Parse a canonical name or any alias (e.g. ["cd"]). *)

val prepare : Pass.options -> Device.t -> Circuit.t -> Circuit.t
(** Route + decompose (the [place -> route -> decompose -> optimize] prefix
    of the pipeline): returns the physical native-gate circuit every
    scheduler consumes.  Exposed so ablations can share one preparation. *)

val schedule_native : Pass.options -> algorithm -> Device.t -> Circuit.t -> Schedule.t
(** Schedule an already-prepared (routed, native) circuit with the
    scheduler for [algorithm]. *)

val run : ?options:Pass.options -> algorithm -> Device.t -> Circuit.t -> Schedule.t
(** The full pipeline ({!Pass.execute} through the schedule stage). *)
