(** Greedy-coloring scheduler with evenly spread frequencies — no SMT.

    The bottom rung of the serve layer's degradation ladder: produces a
    valid schedule in graph-coloring time, with zero
    {!Fastsc_smt.Smt.find_max_delta} calls.  Idle frequencies are one
    {!Freq_alloc.spread} slot per connectivity-graph color; interaction
    frequencies one slot per crosstalk-graph color.  Registered as
    ["greedy-spread"] (aliases ["greedy"], ["gs"]), excluded from the
    paper's Table I set. *)

val scheduler : Pass.scheduler
(** Schedules an already-routed native-gate circuit; reads
    [crosstalk_distance] from the pipeline options and reports
    [idle_colors] and [interaction_colors]. *)
