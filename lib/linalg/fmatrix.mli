(** Flat-float complex matrices: the unboxed fast path beside {!Matrix}.

    {!Matrix} stores one boxed [Complex.t] record per entry, so every
    [Complex.add]/[Complex.mul] in a hot loop allocates.  This sibling keeps
    the real and imaginary parts in two flat [float array]s (row-major), which
    OCaml stores unboxed — kernels written against it run allocation-free over
    scalar floats.  The boxed {!Matrix} API remains the reference
    implementation; conversions at the boundary are explicit, and consumers
    ({!Fastsc_quantum.Density} storage, [Eig.expm_hermitian], [Unitary])
    adopt the flat path incrementally. *)

type t
(** Row-major dense matrix with split re/im [float array] storage. *)

val create : int -> int -> t
(** [create rows cols] is the zero matrix.
    @raise Invalid_argument on non-positive dimensions. *)

val of_matrix : Matrix.t -> t
(** Unbox a boxed matrix (copies). *)

val to_matrix : t -> Matrix.t
(** Box back into the reference representation (copies). *)

val rows : t -> int
val cols : t -> int

val buffers : t -> float array * float array
(** [(re, im)] — the {e live} flat buffers, row-major ([r * cols + c]).
    Mutating them mutates the matrix; this is the kernel-level access path
    for consumers that implement their own unboxed loops (e.g. the density
    superoperator kernels).  Bounds are the caller's responsibility. *)

val get : t -> int -> int -> Complex.t
val set : t -> int -> int -> Complex.t -> unit

val copy : t -> t

val adjoint : t -> t
(** Conjugate transpose. *)

val mul : t -> t -> t
(** Allocation-free-inner-loop matrix product (one result allocation).
    @raise Invalid_argument on dimension mismatch. *)

val interleaved : t -> float array
(** Row-major interleaved [[|re; im; re; im; ...|]] copy of the entries —
    the layout the statevector kernels consume. *)

val mat_vec : t -> Complex.t array -> Complex.t array
(** Matrix–vector product; boxed at the boundary, flat inside. *)

val trace : t -> Complex.t

val frobenius_norm : t -> float

val max_abs_diff : t -> t -> float

val approx_equal : ?tol:float -> t -> t -> bool
(** Entrywise comparison with absolute tolerance (default [1e-9]). *)
