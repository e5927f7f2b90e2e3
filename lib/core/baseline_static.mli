(** Baseline S: static (program-independent) frequency-aware compilation
    (paper Table I).

    Colors the {e entire} crosstalk graph once and maps every color to a
    fixed interaction frequency, so any simultaneity is spectrally safe by
    construction and the scheduler can keep full ASAP parallelism.  The
    price: a 2-D mesh needs 8 colors (Fig 7), so the achievable pairwise
    separation delta within the interaction region is small and residual
    crosstalk stays high — the gap to ColorDynamic in Fig 9, which colors
    only the per-step active subgraph. *)

val static_assignment :
  ?crosstalk_distance:int -> Device.t -> (int * int -> float) * int
(** The per-coupling static interaction frequency table and the number of
    colors used; exposed for reporting (Fig 14-style dumps). *)

val run : crosstalk_distance:int -> Device.t -> Circuit.t -> Schedule.t
(** ASAP layers of a routed, native-gate circuit, each two-qubit gate at its
    coupling's {!static_assignment} frequency. *)
