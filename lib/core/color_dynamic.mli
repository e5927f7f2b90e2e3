(** ColorDynamic: program-specific frequency-aware compilation — the paper's
    main contribution (Algorithm 1, §V).

    Each scheduling cycle:
    + ready gates are considered in criticality order; a two-qubit gate is
      postponed when too many of its crosstalk-graph neighbours are already
      in the cycle ([noise_conflict], line 13) — the noise-aware queueing
      scheduler trading parallelism against frequency crowding;
    + the active subgraph of the crosstalk graph is colored (Welsh–Powell,
      line 19), built from the active couplings' neighbour lists
      ({!Crosstalk_graph.moment_subgraph}), so a cycle costs in proportion
      to its active couplings, not to the chip;
    + if a color cap is in force (the tunability sweep of Fig 11), gates of
      the smallest color classes are postponed until the cap holds;
    + the separation solver maps colors to interaction frequencies, busiest
      color highest, maximising the pairwise separation delta (line 20);
    + idle qubits park on their connectivity-coloring frequencies.

    The result is a schedule whose interaction frequencies are tailored to
    every time step of the program. *)

type stats = {
  cycles : int;  (** Scheduling cycles executed. *)
  max_colors_used : int;  (** Largest per-step color count. *)
  postponed : int;  (** Gate placements deferred by noise_conflict or the
                        color cap (a gate may be counted more than once). *)
  min_delta : float;  (** Smallest separation achieved across steps (infinity
                          when no two-qubit gates exist). *)
  components : int;  (** Total crosstalk components across all cycles. *)
  component_max_size : int;  (** Largest component seen (in couplings). *)
  component_sizes : string;  (** Histogram ["size:count ..."], sizes
                                 ascending, across all cycles. *)
  component_solves : int;  (** Frequency solves paid: one per cycle with
                               active gates, or one per component when
                               decomposed allocation is on. *)
  warm_hits : int;  (** Warm seeds accepted (positive margin). *)
  warm_misses : int;  (** Warm attempts that fell back to the cold path. *)
}

val default_conflict_threshold : int
(** The [noise_conflict] neighbour cap, 2: the default of both {!run} and
    [Pass.default_options], so a direct call and a pipeline compile
    postpone the same gates. *)

val run :
  ?crosstalk_distance:int ->
  ?max_colors:int option ->
  ?conflict_threshold:int ->
  ?colorer:(Graph.t -> Coloring.coloring) ->
  ?warm_start:bool ->
  ?decompose:bool ->
  Device.t -> Circuit.t -> Schedule.t * stats
(** [run device circuit] compiles a routed, native-gate circuit.
    [crosstalk_distance] is the [d] of the crosstalk graph (default 1);
    [max_colors] caps per-step colors (default [None] = uncapped);
    [conflict_threshold] is the neighbour count that triggers postponement
    (default {!default_conflict_threshold});
    [colorer] is the subgraph-coloring heuristic (default
    {!Coloring.welsh_powell}, per the paper; swappable for ablations).

    [warm_start] (default false) seeds each moment's frequency solve with
    the previous moment's witness ({!Freq_alloc.interaction}'s [warm]);
    [decompose] (default false) allocates each connected component of the
    moment's active crosstalk subgraph independently, one after another in
    component order (so the result does not depend on the job count).  Both
    default off so the paper-mode output stays bit-identical; component
    counts are tracked in {!stats} either way.
    @raise Invalid_argument if [conflict_threshold < 1] or
    [max_colors < Some 1]. *)
