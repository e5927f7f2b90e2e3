(** Cross-entropy benchmarking circuits (paper Table II, XEB(n, p)).

    The random-circuit family of the quantum-supremacy experiment, used to
    calibrate simultaneous two-qubit gates: [p] cycles, each applying a
    random single-qubit gate from {sqrt-X, sqrt-Y, sqrt-W} on every qubit
    (never repeating the previous choice on the same qubit) followed by
    two-qubit gates on one activation class of the device couplings, cycling
    through the classes.  This is the most parallel benchmark in the suite —
    the stress test for frequency crowding. *)

val circuit :
  Rng.t ->
  ?two_qubit_gate:Gate.t ->
  graph:Graph.t ->
  classes:((int * int) * int) list ->
  cycles:int ->
  unit ->
  Circuit.t
(** [circuit rng ~graph ~classes ~cycles ()] builds XEB over a device
    connectivity graph whose couplings are partitioned into activation
    [classes] (e.g. the Sycamore ABCD tiling).  [two_qubit_gate] defaults to
    [Iswap].
    @raise Invalid_argument if [cycles < 1], if [classes] misses a coupling,
    or if [two_qubit_gate] is not a two-qubit gate. *)
