(** Baseline N: naive, crosstalk-unaware compilation (paper Table I).

    The conventional Qiskit-style flow: ASAP layers with maximum parallelism.
    Idle and interaction frequencies are separated (connectivity coloring for
    parking, one shared interaction frequency), but nothing prevents
    neighbouring two-qubit gates from executing simultaneously on that shared
    frequency — so any circuit with adjacent parallel two-qubit gates pays
    full crosstalk (the collapse visible in Fig 9). *)

val run : Device.t -> Circuit.t -> Schedule.t
(** [run device circuit] schedules a routed, native-gate circuit.  The result
    passes {!Schedule.check}. *)
