(** Frequency-spectrum partitioning (paper §V-B4).

    The tunable range of the device is split into three bands:

    - a {e parking} region near the lower sweet spot, holding idle
      frequencies;
    - an {e exclusion} region in the middle where no frequency is ever
      assigned (it is the most flux-noise-sensitive part of the tuning curve,
      cf. Fig 4), which also guarantees idle qubits stay detuned from every
      interaction frequency;
    - an {e interaction} region near the upper sweet spot, holding the
      resonance frequencies of two-qubit gates.

    The paper's reference design for a [5, 7] GHz window keeps parking near
    the 5 GHz sweet spot and interaction near the 7 GHz one (Appendix A)
    with an exclusion band between; we use a 12 : 43 : 45 proportion of the
    device's common window so that active gates stay far detuned from every
    parked qubit. *)

type t = {
  parking_lo : float;
  parking_hi : float;
  exclusion_lo : float;
  exclusion_hi : float;
  interaction_lo : float;
  interaction_hi : float;
}

val make : lo:float -> hi:float -> t
(** Split [\[lo, hi\]] in the 12:43:45 proportion (parking low, interaction
    high).
    @raise Invalid_argument if [lo >= hi]. *)

val custom :
  parking:float * float -> exclusion:float * float -> interaction:float * float -> t
(** Explicit bands; they must be disjoint and ordered
    parking < exclusion < interaction.
    @raise Invalid_argument otherwise. *)

val in_parking : t -> float -> bool
val in_exclusion : t -> float -> bool
val in_interaction : t -> float -> bool

val parking_width : t -> float

val pp : Format.formatter -> t -> unit
