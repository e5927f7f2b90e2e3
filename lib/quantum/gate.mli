(** Quantum gate set.

    The native gates of the frequency-tunable transmon architecture are
    single-qubit rotations (microwave/flux driven) plus the resonance-driven
    two-qubit gates CZ, iSWAP and sqrt-iSWAP (paper §II-B).  CNOT and SWAP
    are program-level gates that the compiler decomposes ({!Decompose}).
    XEB circuits additionally use the sqrt-X/sqrt-Y/sqrt-W single-qubit set
    of the supremacy experiment. *)

type t =
  | I  (** Explicit idle. *)
  | X
  | Y
  | Z
  | H
  | S
  | Sdg
  | T
  | Tdg
  | Sx  (** sqrt-X. *)
  | Sy  (** sqrt-Y. *)
  | Sw  (** sqrt-W, W = (X+Y)/sqrt 2; XEB gate set. *)
  | Rx of float
  | Ry of float
  | Rz of float
  | Cz
  | Iswap
  | Sqrt_iswap
  | Xy of float
      (** Partial excitation exchange by angle theta in (0, 2pi): the
          XY(theta) family native to resonance-driven hardware —
          [Xy pi = Iswap], [Xy (pi/2) = Sqrt_iswap] (paper's iSWAP sign
          convention). *)
  | Cnot  (** Non-native; control is the first operand. *)
  | Swap  (** Non-native. *)

type application = { id : int; gate : t; qubits : int array }
(** A gate applied to specific qubits.  [id] is the position in its circuit,
    stable across slicing and used to attach criticality. *)

val arity : t -> int
(** 1 or 2. *)

val is_two_qubit : t -> bool

val is_native : t -> bool
(** True for everything except [Cnot] and [Swap]. *)

val name : t -> string
(** Short lowercase mnemonic, e.g. ["rz(0.79)"], ["sqrt_iswap"]. *)

val equal : t -> t -> bool
(** Structural equality with float tolerance on rotation angles. *)

val unitary : t -> Matrix.t
(** The gate's matrix: 2x2 for single-qubit gates, 4x4 for two-qubit gates in
    the basis |q_first q_second> with the first operand as the
    most-significant bit.  Follows the paper's iSWAP sign convention
    (amplitude [-i] on the exchanged states). *)

val dagger : t -> t option
(** Inverse within the gate set, when representable. *)
