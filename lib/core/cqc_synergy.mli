(** CQC-style synergistic routing + scheduling (rival compiler zoo;
    PAPERS.md).

    A [`Logical]-consuming scheduler: the pass-graph hands it the placed but
    unrouted program and it owns SWAP insertion, decomposition and moment
    packing.  Routing is {!Mapping.route_lookahead} with a
    {!Mapping.pressure}: a SWAP candidate scores its SABRE-style lookahead
    score {e plus} [lambda] times the number of couplings in the current
    moment burst that its coupling crosstalks with (crosstalk-graph
    neighbours), so routing avoids creating the spectrum collisions the
    scheduler would otherwise have to delay around.  Packing is
    Murali-style threshold delay at uniform frequencies
    ({!Murali_delay.pack}) — CQC is software-only.  [Pass] serves it as
    ["cqc-synergy"] (aliases ["cqc"], ["cs"]). *)

val route :
  ?lambda:float ->
  ?crosstalk_distance:int ->
  Device.t -> Circuit.t -> Mapping.result * int
(** Crosstalk-aware lookahead routing (window 8) of an already-placed
    (device-width) circuit.  [lambda] (default 0.5) is the pressure weight —
    [lambda = 0.0] routes exactly like {!Mapping.route_lookahead} without a
    pressure.  Returns the routing and the total conflict pressure of the
    chosen SWAPs (exposed for the directed fault tests).
    @raise Invalid_argument if the circuit width differs from the device's,
    and as {!Mapping.route_lookahead} does. *)

type run_stats = { n_swaps : int; conflict_total : int; delayed : int }

val run :
  ?decomposition:Decompose.strategy ->
  ?crosstalk_distance:int ->
  Device.t -> Circuit.t -> Schedule.t * run_stats
(** Route, decompose, then threshold-pack; the full synergistic pipeline. *)
