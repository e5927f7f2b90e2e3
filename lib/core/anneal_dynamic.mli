(** AnnealDynamic: direct continuous frequency optimization, in the style of
    the Snake optimizer used on Google's Sycamore (Klimov et al. [31]).

    The paper positions ColorDynamic against this family: "[31] outlines the
    frequency optimizer used in [2].  Our results show comparable performance
    to [31] but with simpler hardware [and machinery]" (§III).  This module
    makes the comparison concrete: it schedules with maximum qubit-disjoint
    parallelism (no serialization) and, for every step, assigns each
    two-qubit gate its own interaction frequency by simulated annealing on
    the {e actual} predicted step error (the same spectator-channel model the
    evaluator uses) — no graphs, no colors, no solver.

    Expectation (borne out by the `ext-anneal` bench): success comparable to
    ColorDynamic, compile time one to two orders of magnitude higher — the
    paper's scalability argument for the coloring decomposition. *)

val run : ?seed:int -> Device.t -> Circuit.t -> Schedule.t
(** Anneals each step for 400 iterations; [seed] (default 0) makes the
    stochastic search reproducible. *)
