(** Ideal state-vector simulation.

    Replaces Qiskit Aer for the scales this paper needs: verifying gate
    decompositions (unitary equivalence up to global phase), computing ideal
    output distributions for the success-rate validation (§VI-C), and the
    reference states against which noisy trajectories are scored.  Amplitude
    arrays are dense, so practical up to roughly 24 qubits.

    Bit convention: qubit [k] is bit [k] of the basis-state index (qubit 0 is
    least significant).  For two-qubit gates the {e first} operand is the
    most significant bit of the 4x4 matrix basis, matching
    {!Gate.unitary}.

    Amplitudes are stored unboxed in two [Bigarray] float64 planes (split
    re/im) outside the OCaml heap.  Gate kernels walk the whole state in
    nested blocks — high block, middle block (two operands only),
    contiguous run of low bits — whose index bases advance by addition, so
    no index is re-scattered around the operand bits.  Every kernel runs
    serially on the calling domain, and the entries-form, diagonal and
    exchange kernels allocate nothing; trajectory batches get their
    parallelism by fanning trials over the pool ({!Noisy_sim}).  {!Statevector_ref} is the boxed reference
    implementation the differential tests compare against. *)

type t

type plane = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t
(** One flat float64 amplitude plane, indexed by basis state. *)

val create : int -> t
(** [create n] is |0...0> on [n] qubits.
    @raise Invalid_argument unless [1 <= n <= 24]. *)

val reset : t -> unit
(** Return to |0...0> in place, reusing the buffers (the Monte-Carlo
    trajectory loop resets one state per worker instead of allocating one
    per trial). *)

val of_amplitudes : Complex.t array -> t
(** Copies the array (length must be a power of two); later caller mutation
    cannot corrupt the state.  The state is not renormalised. *)

val n_qubits : t -> int

val copy : t -> t

val blit : src:t -> dst:t -> unit
(** [blit ~src ~dst] overwrites [dst]'s amplitudes with [src]'s, reusing
    [dst]'s buffers (a trajectory continuation copies its shared snapshot
    into its worker's state this way instead of allocating one).
    @raise Invalid_argument on a qubit-count mismatch. *)

val buffers : t -> plane * plane
(** [(re, im)] — the {e live} amplitude planes, indexed by basis state.
    Mutating them mutates the state; intended for kernel-level consumers
    ({!Unitary}, {!Density}, the simulation benches) that want amplitude
    access without boxing.  Renormalisation is the caller's
    responsibility. *)

val amplitudes : t -> Complex.t array
(** A copy of the current amplitudes. *)

val amplitude : t -> int -> Complex.t

val entries1 : Matrix.t -> float array
(** Pre-extract a 2x2 gate into the interleaved [|re; im; ...|] kernel form
    consumed by {!apply_entries1} (8 floats, row-major).  The trajectory
    plan ({!Noisy_sim}) extracts each matrix once and replays the float
    array.
    @raise Invalid_argument unless the matrix is 2x2. *)

val entries2 : Matrix.t -> float array
(** Kernel form of a 4x4 gate (32 floats, row-major interleaved).
    @raise Invalid_argument unless the matrix is 4x4. *)

val apply_entries1 : t -> float array -> int -> unit
(** [apply_entries1 t e q] applies the 2x2 gate [e] (in {!entries1} form)
    to qubit [q].
    @raise Invalid_argument on entry-count or qubit-range errors. *)

val apply_entries2 : t -> float array -> int -> int -> unit
(** [apply_entries2 t e a b] applies the 4x4 gate [e] (in {!entries2} form)
    to the ordered pair [(a, b)] (first operand = most significant).
    @raise Invalid_argument on entry-count or qubit-range errors or a
    duplicate qubit. *)

val apply_diagonal2 : t -> float array -> int -> int -> unit
(** [apply_diagonal2 t d a b] applies the diagonal 4x4
    [diag(d00, d01, d10, d11)] to the ordered pair [(a, b)] (first operand =
    most significant).  [d] holds the four entries as
    [|re; im|] pairs in that order (8 floats: entries 0, 1, 10, 11, 20, 21,
    30 and 31 of the {!entries2} form).  Each amplitude is multiplied by its
    own entry; the values equal those of {!apply_entries2} with the full
    matrix, and only the sign of a zero amplitude may differ.
    @raise Invalid_argument on entry-count or qubit-range errors or a
    duplicate qubit. *)

val apply_exchange : t -> c:float -> s:float -> int -> int -> unit
(** [apply_exchange t ~c ~s a b] applies the partial exchange with
    [c = cos theta], [s = sin theta] (the matrix of
    {!Noisy_sim.exchange_unitary}) to the pair [(a, b)].  It
    updates only the |01>,|10> amplitudes of each quartet; the values equal
    those of {!apply_entries2} with that matrix, and only the sign of a zero
    amplitude may differ.
    @raise Invalid_argument on qubit-range errors or a duplicate qubit. *)

val apply : t -> Gate.t -> int list -> unit
(** Apply a gate in place.
    @raise Invalid_argument on arity/range errors. *)

val apply_matrix1 : t -> Matrix.t -> int -> unit
(** Apply an arbitrary 2x2 unitary to one qubit. *)

val apply_matrix2 : t -> Matrix.t -> int -> int -> unit
(** Apply an arbitrary 4x4 unitary to an ordered qubit pair (first operand =
    most significant). *)

val run : t -> Circuit.t -> unit
(** Apply every instruction of the circuit in order, one gate at a time. *)

val of_circuit : Circuit.t -> t
(** Fresh |0..0> state with the circuit applied. *)

val probability : t -> int -> float
(** Probability of one basis outcome. *)

val probabilities : t -> float array

val fidelity : t -> t -> float
(** [|<a|b>|^2].
    @raise Invalid_argument on size mismatch. *)

val norm : t -> float

val normalize : t -> unit

val measure : Rng.t -> t -> int
(** Sample a basis state from the output distribution (state unchanged). *)
