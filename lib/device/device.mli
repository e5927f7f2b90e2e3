(** Device model: a topology populated with frequency-tunable transmons
    (paper §VI-C, "Architectural features").

    A device is the compiler's complete view of the hardware: the coupling
    graph, per-qubit transmon parameters with fabrication variation
    (maximum frequencies sampled from a Gaussian N(omega, 0.1 GHz)),
    coherence times, the nearest-neighbour coupling strength
    (g/2pi ~ 30 MHz), gate/flux timing, and control-error magnitudes.
    Everything downstream — frequency partitioning, gate-time costing,
    crosstalk and decoherence estimation — reads from here, which is what
    makes the stack a simulator-backed substitute for real hardware. *)

type params = {
  omega_max_mean : float;  (** Mean upper sweet spot, GHz (default 7.0). *)
  omega_min_mean : float;  (** Mean lower sweet spot, GHz (default 5.0). *)
  omega_sigma : float;  (** Fabrication spread, GHz (default 0.1). *)
  anharmonicity : float;  (** |alpha| = E_C, GHz (default 0.2). *)
  g0 : float;  (** Nearest-neighbour coupling, GHz (default 0.007, giving the paper's
          ~50 ns CZ and ~36 ns iSWAP, Appendix C). *)
  parasitic_ratio : float;
      (** Stray coupling between qubits at graph distance 2, as a fraction of
          [g0] (default 0.05); drives distance-2 crosstalk. *)
  t1_mean : float;  (** Mean T1, ns (default 6_000; early-NISQ transmons). *)
  t2_mean : float;  (** Mean T2, ns (default 4_500). *)
  coherence_sigma : float;  (** Relative spread of T1/T2 (default 0.1). *)
  single_qubit_time : float;  (** 1q gate duration, ns (default 25). *)
  flux_tuning_time : float;
      (** Per-step frequency retuning overhead, ns (default 2, Appendix C). *)
  base_error_1q : float;  (** Control error per 1q gate (default 5e-4). *)
  base_error_2q : float;  (** Control error per 2q gate (default 2e-3). *)
  flux_noise : float;
      (** RMS flux noise in flux quanta (default 1e-5); multiplied by the
          transmon's flux sensitivity to obtain a dephasing-style error for
          operating points away from sweet spots. *)
}

val default_params : params
(** The evaluation's early-NISQ configuration (see DESIGN.md). *)

val preset : [ `Early_nisq | `Sycamore_era | `Modern ] -> params
(** Named hardware generations for sensitivity studies:
    - [`Early_nisq]: {!default_params} (T1 = 6 us, the paper's regime);
    - [`Sycamore_era]: T1 = 15 us / T2 = 10 us, g/2pi = 10 MHz;
    - [`Modern]: T1 = 100 us / T2 = 60 us, tighter fabrication (sigma =
      0.05 GHz) and 1e-4-class gate errors.
    The crosstalk physics is unchanged — only coherence, coupling and
    control quality move, which is exactly the axis along which the value
    of parallelism (and hence of frequency-aware scheduling) shifts. *)

type t

val create : ?params:params -> seed:int -> Topology.t -> t
(** Fabricate a device: sample per-qubit transmons and coherence times with
    the given seed (deterministic). *)

val params : t -> params
val topology : t -> Topology.t
val graph : t -> Graph.t
val n_qubits : t -> int
val seed : t -> int

val transmon : t -> int -> Transmon.t
val t1 : t -> int -> float
val t2 : t -> int -> float

val tunable_range : t -> int -> float * float
(** [omega_min, omega_max] of one qubit. *)

val common_range : t -> float * float
(** The frequency window reachable by {e every} qubit — the intersection of
    all tunable ranges; frequency assignment is confined to it.  Computed
    once by {!create}. *)

val partition : t -> Partition.t
(** The {!Partition.make} split of {!common_range}.
    @raise Invalid_argument if the common range is empty. *)

val distances : t -> int array array
(** The hop-distance matrix of {!graph} ([Paths.all_pairs], [-1] for
    unreachable pairs), built once by {!create}.  Shared, not copied: every
    caller and {!coupling} read the same matrix, so it must never be
    mutated. *)

val coupling : t -> int -> int -> float
(** Effective coupling strength between two qubits: [g0] for coupled pairs,
    [parasitic_ratio * g0] for pairs at graph distance 2, [0] beyond.
    Symmetric. *)

val gate_time : t -> Fastsc_quantum.Gate.t -> float
(** Duration of one native gate at coupling [g0], plus the flux-retuning
    overhead for two-qubit gates. *)

val coupled_pairs : t -> (int * int) list
(** Edges of the connectivity graph. *)

val distance2_pairs : t -> (int * int) list
(** Pairs at graph distance exactly 2 (parasitic crosstalk partners). *)

val pp_summary : Format.formatter -> t -> unit
