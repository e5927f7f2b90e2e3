(** Dense complex matrices.

    Replaces the numpy arrays of the reference implementation.  Sized for the
    small operators this system needs — gate unitaries (2x2, 4x4), coupled
    two-transmon Hamiltonians (9x9 for three levels per transmon), the
    2^n x 2^n density matrix of [Fastsc_quantum.Density].  Entries are kept
    as two flat row-major [float array]s, real and imaginary parts, which
    OCaml stores unboxed: the products run over scalar floats, and kernels
    that need their own loops read the live buffers ({!buffers}).
    [Complex.t] appears only at the edges — single entries, scalars and
    vectors.  Entries of {!add}, {!scale}, {!scale_re}, {!kron} and {!mul}
    are the float expressions [Complex.add]/[Complex.mul] compute, bit for
    bit. *)

type t
(** Row-major dense complex matrix. *)

val create : int -> int -> t
(** [create rows cols] is the zero matrix.
    @raise Invalid_argument on non-positive dimensions. *)

val identity : int -> t

val of_arrays : Complex.t array array -> t
(** Rows must be non-empty and of equal length. *)

val init : int -> int -> (int -> int -> Complex.t) -> t

val rows : t -> int
val cols : t -> int

val buffers : t -> float array * float array
(** [(re, im)] — the {e live} buffers, row-major ([r * cols + c]).
    Mutating them mutates the matrix; this is the access path for kernels
    that run their own unboxed loops (the density superoperators, the
    basis-column fill of [Unitary.of_circuit]).  Bounds are the caller's
    responsibility. *)

val get : t -> int -> int -> Complex.t
(** Allocates the returned [Complex.t]; hoist it out of hot loops. *)

val set : t -> int -> int -> Complex.t -> unit

val add : t -> t -> t
(** @raise Invalid_argument on dimension mismatch. *)

val scale : Complex.t -> t -> t
val scale_re : float -> t -> t
(** [scale_re s m] is [scale {re = s; im = 0.0} m], entry for entry. *)

val mul : t -> t -> t
(** Matrix product; zero entries of the left operand are skipped.
    @raise Invalid_argument on dimension mismatch. *)

val adjoint : t -> t
(** Conjugate transpose. *)

val kron : t -> t -> t
(** Kronecker (tensor) product; builds multi-qubit/qutrit operators. *)

val mat_vec : t -> Complex.t array -> Complex.t array
(** Matrix–vector product.
    @raise Invalid_argument on dimension mismatch. *)

val interleaved : t -> float array
(** Row-major interleaved [[|re; im; re; im; ...|]] copy of the entries —
    the layout the statevector kernels consume. *)

val approx_equal : ?tol:float -> t -> t -> bool
(** Same shape, and every entry within modulus [tol] (default [1e-9]) of its
    counterpart.  A NaN entry on either side is never within [tol]. *)

val is_hermitian : ?tol:float -> t -> bool
(** Square and {!approx_equal} to its adjoint; a NaN entry fails. *)
