(** The process's one domain pool, for data-parallel sweeps and the serve
    daemon's request dispatch.

    The experiment drivers fan large grids of independent
    compile-and-evaluate cells over OCaml 5 domains, and the trajectory
    sampler fans its Monte-Carlo trials the same way; work is parallel
    across cells, never inside one gate application.  This module is the
    in-tree substitute for [domainslib]: one pool of worker domains plus
    chunked [map] combinators over lists and arrays with

    - {b deterministic results}: outputs are stored by input index, so
      [map f xs] equals [List.map f xs] element for element regardless of
      execution order or the number of domains;
    - {b exception transparency}: the first exception raised by any cell is
      captured (with its backtrace) and re-raised on the calling domain once
      the batch has drained;
    - {b a strict sequential fallback} at width 1 (or on empty/singleton
      inputs): the combinators reduce to plain [Array.map]/[List.map], so a
      single-job run is the reference semantics, not a special case;
    - {b nested-map safety}: the caller always participates in executing its
      own batch, so a [map] issued from inside another [map]'s cell can
      always complete itself even when every worker is busy — there is no
      configuration that deadlocks.

    The width is {!default_jobs}: the pool holds [default_jobs () - 1]
    worker domains, spawned on first use.  Cells must be independent: they
    run on arbitrary domains in arbitrary order, so any shared state they
    touch must be synchronized (the solver caches in [Freq_alloc] and
    [Crosstalk] are mutex-protected for exactly this reason).

    Workers are never joined at exit: the process ends when its main domain
    does, and jobs still queued or running are dropped.  [fastsc serve]'s
    drain grace relies on this. *)

val default_jobs : unit -> int
(** The process-wide parallelism: the value given to {!set_default_jobs}
    if any, else a positive integer parsed from [FASTSC_JOBS], else
    [max 1 (Domain.recommended_domain_count () - 1)]. *)

val set_default_jobs : int -> unit
(** Override {!default_jobs} (the [--jobs] CLI flag lands here).  A new
    width retires the old one's workers at once: it returns after they
    have run every job already queued for them.  The next map or submit
    spawns the workers of the new width.  Call it from outside any pool
    job.
    @raise Invalid_argument if the argument is [< 1]. *)

val submit : (unit -> unit) -> unit
(** [submit job] queues one fire-and-forget job for a worker domain (the
    serve daemon's request dispatch), or runs it inline at width 1.  The
    job owns its error handling: an exception it raises is swallowed, and
    the worker keeps serving. *)

val map : ('a -> 'b) -> 'a list -> 'b list
(** Parallel [List.map] with deterministic ordering. *)

val mapi_array : (int -> 'a -> 'b) -> 'a array -> 'b array
(** Parallel [Array.mapi]; the index identifies the cell (drivers derive
    per-cell RNG seeds from it). *)
