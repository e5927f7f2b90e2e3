(** Noisy circuit simulation by Monte-Carlo trajectories.

    The paper's success-rate metric (eq 4) is a heuristic; §VI-C validates it
    against full noisy simulation on small circuits.  This module is that
    full simulation: a schedule is lowered to a sequence of steps, each
    containing the intended unitaries plus the physical noise processes of
    that time slice —

    - {e coherent crosstalk}: every spectator coupling detuned by
      [delta_omega] experiences a partial excitation exchange of angle
      [2 pi g'(delta_omega) t] during the slice (the microscopic process
      behind eq 6), applied as a deterministic unitary;
    - {e decoherence}: each qubit suffers a stochastic Pauli error with
      per-slice probability derived from T1/T2, sampled per trajectory.

    Averaging trajectory fidelities against the ideal state gives the
    simulated success probability that the heuristic is validated against. *)

type event =
  | Unitary of Gate.t * int list  (** An intended gate. *)
  | Partial_exchange of { a : int; b : int; theta : float }
      (** Coherent crosstalk: exchange |01>,|10> with mixing angle [theta]
          (full swap at [theta = pi/2]). *)
  | Pauli_noise of { q : int; p_x : float; p_y : float; p_z : float }
      (** Stochastic single-qubit Pauli channel for this slice. *)

type step = event list

val exchange_unitary : float -> Matrix.t
(** The 4x4 partial-iSWAP unitary for mixing angle [theta] (paper sign
    convention: [-i sin theta] off-diagonals). *)

val run_trajectory : Rng.t -> n_qubits:int -> step list -> Statevector.t
(** One stochastic trajectory from |0..0>: one [Rng.float] draw per
    [Pauli_noise] event, in step order, on the kernels
    {!average_fidelity} lowers to.
    @raise Invalid_argument if an event has the wrong operand count or an
    out-of-range or duplicate qubit, or if a Pauli channel has a negative or
    NaN probability or probabilities summing to more than [1 + 1e-12]
    (checked before any amplitude moves). *)

val average_fidelity :
  Rng.t -> n_qubits:int -> ideal:Statevector.t -> steps:step list -> trials:int -> float
(** Mean fidelity of [trials] noisy trajectories against the ideal state —
    the simulated program success rate.  The step list is lowered once per
    call into kernel instructions that every trial replays: one-qubit gate
    entries extracted; two-qubit gates on the kernel their entries' exact
    zeros select (exchange-form matrices such as iSWAP, sqrt-iSWAP and XY
    on {!Statevector.apply_exchange}, diagonal ones such as CZ on
    {!Statevector.apply_diagonal2}, the rest on the dense 4x4 kernel);
    exchanges as [(cos theta, sin theta)]; Pauli channels as cumulative
    thresholds.  Each trial gets its own generator, split from [rng] in
    index order, and draws it once per Pauli channel up to its first hit
    before any state moves.  One error-free replay then serves the batch:
    it keeps a copy of the state at each distinct first-hit position, and
    trials with no hit share its final fidelity.  The other trials fan out
    over the domain pool ({!Fastsc_util.Pool}): each copies its snapshot
    into its worker's reusable state, applies its hit and replays the rest
    with its own generator.  The snapshots take at most (distinct first-hit
    positions) x 2{^n_qubits} x 16 bytes.  Every trial draws as a full
    replay would, and the mean is summed in trial order, so the result (and
    the caller's final [rng] state) is bit-identical at any [--jobs]
    setting.
    @raise Invalid_argument unless [trials > 0], [ideal] has [n_qubits]
    qubits and every event is well formed (as for {!run_trajectory}); all
    three are checked before any trial runs or [rng] advances. *)

val ideal_of_steps : n_qubits:int -> step list -> Statevector.t
(** The noise-free reference: applies only the [Unitary] events. *)
