(** Periodic operational stats for [fastsc serve].

    A mutex-guarded recorder accumulates one latency sample per completed
    request, bucketed by the degradation-ladder tier that produced the
    witness; {!line} takes the samples, reads the solver-cache counters, and
    formats the single stderr line the daemon emits every [--stats-every]
    requests.  The daemon records only when that option is on. *)

type t

val create : unit -> t

val record : t -> Protocol.response -> unit
(** Count one completed request.  [Ok_response]s contribute their
    [latency_ms] to their [tier]'s bucket; errors only bump the error
    count.  Safe to call from concurrent pool workers. *)

val format_line :
  served:int ->
  errors:int ->
  cache_hits:int ->
  cache_misses:int ->
  tiers:(string * float list) list ->
  string
(** The pure formatter behind {!line}: [served] total requests, solver-cache
    hit rate (["-"] when no solves happened yet), then per-tier sample
    count and p50/p95 latency, in the given order.  Exposed for unit
    tests. *)

val line : t -> string
(** {!format_line} of the recorder and
    {!Fastsc_core.Freq_alloc.solver_cache_stats}; tiers appear in ladder
    order (full, decomposed-warm, stale, greedy).  The served and error
    counts are cumulative.  The per-tier samples are those recorded since
    the previous [line], which clears them, so memory and the percentile
    sort stay bounded by one window. *)
