(** Density-matrix simulation with Kraus channels.

    The exact open-system counterpart of the Monte-Carlo trajectory
    simulator: instead of sampling Pauli errors per trajectory, the full
    density matrix evolves through the channels, so the simulated success
    probability carries no sampling noise.  Memory is 4^n complex entries
    and most events touch all of them: {!run_steps} on a validate-sim cell
    takes milliseconds at 6 qubits and seconds at 9.  Its kernels share no
    code with {!Statevector} or {!Noisy_sim}, so it stays an independent
    reference for them.

    Supported processes mirror {!Noisy_sim.event}: intended unitaries,
    coherent spectator exchanges, and per-slice decoherence — here as the
    proper amplitude-damping + pure-dephasing channels rather than their
    Pauli twirl, making this the reference the twirled trajectory model is
    checked against. *)

type t
(** A density matrix on [n] qubits; mutable in place. *)

val create : int -> t
(** |0..0><0..0| on [n] qubits (supported range 1..10). *)

val of_statevector : Statevector.t -> t
(** The pure state |psi><psi|. *)

val of_matrix : Matrix.t -> t
(** A copy of a [2^n x 2^n] matrix (n in 1..10) as the state.  Nothing
    checks that it is Hermitian, positive or of unit trace, so tests can
    run the kernels on generic complex matrices.
    @raise Invalid_argument on any other shape. *)

val to_matrix : t -> Matrix.t
(** A copy of the current matrix. *)

val n_qubits : t -> int

val trace : t -> float
(** Real part of the trace; 1 up to numerical error for valid states. *)

val purity : t -> float
(** [Tr(rho^2)]; 1 for pure states, 1/2^n for the maximally mixed state. *)

val population : t -> int -> float
(** Diagonal entry: probability of a basis outcome. *)

val apply_unitary1 : t -> Matrix.t -> int -> unit
(** Conjugate by a 2x2 unitary on one qubit. *)

val apply_unitary2 : t -> Matrix.t -> int -> int -> unit
(** Conjugate by a 4x4 unitary on an ordered qubit pair (first operand most
    significant, as in {!Statevector}). *)

val apply_gate : t -> Gate.t -> int list -> unit

val apply_kraus1 : t -> Matrix.t list -> int -> unit
(** Apply a single-qubit channel given by its Kraus operators
    [rho -> sum_k K rho K†].  The operators must satisfy
    [sum K† K = I] (checked to 1e-6).
    @raise Invalid_argument otherwise. *)

val apply_pauli : t -> p_x:float -> p_y:float -> p_z:float -> int -> unit
(** The Pauli channel [p_0 rho + p_x X rho X + p_y Y rho Y + p_z Z rho Z]
    on one qubit, [p_0 = 1 - p_x - p_y - p_z], in closed form.  Equal under
    float [=] to {!apply_kraus1} of the operators [sqrt (max 0 p_k) P_k].
    @raise Invalid_argument if [p_0 < -1e-12], if the qubit is out of range,
    or if those operators fail {!apply_kraus1}'s completeness check (a
    negative or NaN probability). *)

val apply_exchange : t -> theta:float -> int -> int -> unit
(** The partial exchange [exp(-i theta (XX + YY) / 2)] between two qubits,
    touching only the entries it mixes.  Equal under float [=] to
    {!apply_unitary2} of [Noisy_sim.exchange_unitary theta], in either
    operand order.
    @raise Invalid_argument on an out-of-range or duplicate qubit. *)

val amplitude_damping : gamma:float -> Matrix.t list
(** Kraus operators of T1 relaxation with decay probability [gamma]. *)

val phase_damping : lambda:float -> Matrix.t list
(** Kraus operators of pure dephasing with probability [lambda]. *)

val thermal_relaxation : t -> q:int -> t1:float -> t2:float -> time:float -> unit
(** Amplitude damping + pure dephasing of one qubit over [time] ns, with the
    pure-dephasing rate [1/T2 - 1/(2 T1)] floored at zero (same physics as
    {!Fastsc_noise.Decoherence.pauli_rates}, untwirled). *)

val run_steps : n_qubits:int -> Noisy_sim.step list -> t
(** Evolve |0..0> through lowered schedule steps: a [Unitary] event by
    {!apply_gate}, a [Partial_exchange] by {!apply_exchange}, a
    [Pauli_noise] by {!apply_pauli} (the trajectory simulator's model, so
    the two agree in expectation).  The result equals, under float [=],
    running those two events through {!apply_unitary2} and
    {!apply_kraus1} instead.
    @raise Invalid_argument on the first malformed event, with the
    message of the function that applies it. *)

val fidelity_pure : t -> Statevector.t -> float
(** [<psi| rho |psi>] — success probability against an ideal pure state. *)
