(** Baseline U: one shared interaction frequency, serialization for safety
    (paper Table I).

    The strategy of fixed-frequency systems (IBM-style, §III): since every
    two-qubit gate uses the same interaction frequency, any two gates within
    crosstalk range collide spectrally — Table I's "serial scheduler" runs
    two-qubit gates one at a time anywhere on the device (single-qubit
    gates still execute in parallel).  Crosstalk-free, but the forced
    serialization deepens the circuit and decoherence grows with execution
    time (Fig 10). *)

val run : Device.t -> Circuit.t -> Schedule.t
(** Queueing scheduler: ready gates are served by criticality; at most one
    two-qubit gate executes per step. *)
