(** The graceful-degradation ladder: budgeted compilation that always
    answers.

    A request walks four rungs until one produces a schedule within the
    remaining budget:

    + {b full} — the requested algorithm with its full SMT solve, given the
      first half of the budget;
    + {b decomposed-warm} — the same algorithm with component decomposition
      and warm starts forced on, given the rest of the budget;
    + {b stale} — a previously computed witness for the identical compile
      problem (in-memory cache, no SMT, deadline-immune);
    + {b greedy} — the [greedy-spread] scheduler: graph coloring only, runs
      without a deadline and always succeeds.

    SMT rungs abandon work via the cooperative [Deadline.Expired] polls in
    [Pass]/[Smt]; the ladder records every attempt (tier, wall-clock,
    outcome) in the response trace. *)

val compile : ?default_deadline_ms:float -> Protocol.request -> Protocol.response
(** Walk the ladder for one request.  The budget is the request's
    [deadline_ms] when present, else [default_deadline_ms], else unlimited
    (the first rung then always produces the answer).  Always returns
    [Ok_response] — errors that precede the ladder (unknown algorithm,
    unrealizable request) raise {!Protocol.Bad_request}; anything else
    escaping is a daemon-level internal error.

    Successful SMT-rung results are stored in the stale-witness cache under
    {!Protocol.cache_key} of the request with its algorithm resolved to the
    canonical name, so a request naming an alias finds the witness its
    canonical name stored; greedy results are not stored (a stale hit must
    never be worse than what the greedy rung would recompute). *)

val stale_cache_stats : unit -> int * int * int
(** [(hits, misses, entries)] of the stale-witness cache. *)

val reset_stale_cache : unit -> unit
(** Empty the stale-witness cache and zero its counters (tests). *)
