(** Greedy-coloring scheduler with evenly spread frequencies — no SMT.

    The bottom rung of the serve layer's degradation ladder: produces a
    valid schedule in graph-coloring time, with zero
    {!Fastsc_smt.Smt.find_max_delta} calls.  Idle frequencies are one
    {!Freq_alloc.spread} slot per connectivity-graph color; interaction
    frequencies one slot per crosstalk-graph color.  [Pass] serves it as
    ["greedy-spread"] (aliases ["greedy"], ["gs"]); it has no
    [Compile.algorithm] constructor. *)

type stats = {
  idle_colors : int;  (** Colors of the connectivity graph. *)
  interaction_colors : int;  (** Colors of the crosstalk graph. *)
}

val run : crosstalk_distance:int -> Device.t -> Circuit.t -> Schedule.t * stats
(** Schedules an already-routed native-gate circuit in ASAP layers, with the
    crosstalk graph at [crosstalk_distance]. *)
