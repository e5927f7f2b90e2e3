(** GmonDynamic: ColorDynamic on tunable-coupler hardware — the extension the
    paper's conclusion proposes ("complementing Gmon architecture with
    ColorDynamic optimization would also be a natural extension", §VIII).

    The schedule is exactly ColorDynamic's — program-specific subgraph
    coloring, SMT frequency search, noise-aware serialization — but executes
    on a device whose couplers are deactivated for every non-interacting
    pair.  The two mitigation mechanisms then compose multiplicatively:
    residual coupler leakage (eta x g0) is further suppressed by the
    spectral separation the coloring guarantees, so the architecture
    tolerates far larger coupler imperfections than the tiling-scheduled
    Baseline G (Fig 12's decay flattens). *)

val scheduler : Pass.scheduler
(** This algorithm as a registry entry (name ["gmon-dynamic"], aliases
    ["gmondynamic"]/["gd"]): {!Color_dynamic.scheduler}'s schedule and
    stats, relabeled and run behind couplers that leak the pipeline's
    [residual_coupling].  Registered by {!Compile}. *)
