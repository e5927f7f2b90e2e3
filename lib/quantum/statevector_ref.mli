(** Boxed reference state-vector simulator.

    The [Complex.t array] implementation that {!Statevector} replaced with
    flat-float kernels, kept as an executable specification: the
    differential property suite runs random full-gate-set circuits through
    both and requires amplitudes to agree within 1e-9.  Same bit and
    operand-ordering conventions as {!Statevector}. *)

type t

val of_circuit : Circuit.t -> t
(** |0...0> on the circuit's qubits (1 to 24), with every gate applied in
    order.
    @raise Invalid_argument outside that range. *)

val amplitudes : t -> Complex.t array
(** A copy of the current amplitudes. *)
