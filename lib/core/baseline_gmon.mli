(** Baseline G: tunable-coupler ("gmon") architecture with a tiling scheduler
    (paper Table I, §VI-A).

    Reconstructs a Sycamore-like machine: every coupling has its own tunable
    coupler, deactivated except for the pairs gated in the current step.  On
    a 2-D grid the couplings are activated following the Sycamore A/B/C/D
    tiling pattern; on other topologies an equivalent matching partition is
    derived by edge coloring.  With perfect deactivation (residual coupling
    eta = 0) parallel gates never crosstalk; Fig 12 sweeps eta to show the
    exponential sensitivity of this design to coupler control noise. *)

val edge_classes : Device.t -> ((int * int) * int) list
(** The coupler-activation classes: Sycamore ABCD tiling on grids, greedy
    proper edge coloring elsewhere.  Each class is a matching. *)

val run : residual_coupling:float -> Device.t -> Circuit.t -> Schedule.t
(** Tiling scheduler over a routed, native-gate circuit: each step activates
    the coupler class with the most ready two-qubit gates.
    [residual_coupling] is the fraction of [g0] leaking through deactivated
    couplers, recorded as the schedule's coupler model. *)
