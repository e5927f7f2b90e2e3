(** Fixed-size domain pool for data-parallel sweeps.

    The experiment drivers fan large grids of independent
    compile-and-evaluate cells over OCaml 5 domains, and the trajectory
    sampler fans its Monte-Carlo trials the same way; work is parallel
    across cells, never inside one gate application.  This module is the
    from-scratch substitute for [domainslib]: a pool of worker domains plus
    chunked [map]/[iter] combinators over lists and arrays with

    - {b deterministic results}: outputs are stored by input index, so
      [map f xs] equals [List.map f xs] element for element regardless of
      execution order or the number of domains;
    - {b exception transparency}: the first exception raised by any cell is
      captured (with its backtrace) and re-raised on the calling domain once
      the batch has drained;
    - {b a strict sequential fallback} at [jobs = 1] (or on empty/singleton
      inputs): the combinators reduce to plain [Array.map]/[List.map], so a
      single-job run is the reference semantics, not a special case;
    - {b nested-map safety}: the caller always participates in executing its
      own batch, so a [map] issued from inside another [map]'s cell can
      always complete itself even when every worker is busy — there is no
      configuration that deadlocks.

    Parallelism is chosen per call: an explicit [~jobs] wins, then the
    [~pool]'s size, then the process-wide default ({!default_jobs}: the
    [FASTSC_JOBS] environment variable when set, otherwise
    [Domain.recommended_domain_count () - 1], at least 1).  Cells must be
    independent: they run on arbitrary domains in arbitrary order, so any
    shared state they touch must be synchronized (the solver caches in
    [Freq_alloc] and [Crosstalk] are mutex-protected for exactly this
    reason). *)

type t
(** A pool of worker domains.  A pool of size [j] holds [j - 1] workers;
    the domain that submits a batch is the [j]-th executor. *)

val default_jobs : unit -> int
(** The process-wide parallelism default: the value given to
    {!set_default_jobs} if any, else a positive integer parsed from
    [FASTSC_JOBS], else [max 1 (Domain.recommended_domain_count () - 1)]. *)

val set_default_jobs : int -> unit
(** Override {!default_jobs} (the [--jobs] CLI flag lands here).  The shared
    global pool is re-sized lazily on next use.
    @raise Invalid_argument if the argument is [< 1]. *)

val create : ?jobs:int -> unit -> t
(** [create ~jobs ()] spawns a pool with [jobs - 1] worker domains
    (default {!default_jobs}).  [jobs = 1] spawns no domains at all.
    @raise Invalid_argument if [jobs < 1]. *)

val jobs : t -> int
(** The parallelism the pool was created with. *)

val shutdown : t -> unit
(** Stop and join the pool's workers.  Idempotent.  Jobs already queued are
    still drained before the workers exit; batches and jobs may no longer be
    submitted afterwards.  The implicit global pool is shut down
    automatically at exit. *)

val submit : t -> (unit -> unit) -> unit
(** [submit t job] enqueues one fire-and-forget job for a worker domain (the
    serve daemon's request dispatch).  The job owns its error handling: an
    exception it raises is swallowed by the worker, which keeps serving.
    With [jobs = 1] the pool has no workers and a submitted job would never
    run — callers must execute inline in that configuration (see {!jobs}).
    @raise Invalid_argument after {!shutdown}. *)

val map_array : ?pool:t -> ?jobs:int -> ('a -> 'b) -> 'a array -> 'b array
(** Parallel [Array.map] with deterministic ordering.  Uses [~pool] when
    given, else the shared global pool (created on first use); [~jobs] caps
    or raises the parallelism for this one batch. *)

val mapi_array : ?pool:t -> ?jobs:int -> (int -> 'a -> 'b) -> 'a array -> 'b array
(** Parallel [Array.mapi]; the index identifies the cell (drivers derive
    per-cell RNG seeds from it). *)

val iter_array : ?pool:t -> ?jobs:int -> ('a -> unit) -> 'a array -> unit
(** Parallel [Array.iter] (effects only; no ordering guarantee between
    cells, which is why drivers compute in [map] and print afterwards). *)

val map : ?pool:t -> ?jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** Parallel [List.map] with deterministic ordering. *)

val mapi : ?pool:t -> ?jobs:int -> (int -> 'a -> 'b) -> 'a list -> 'b list
(** Parallel [List.mapi]. *)

val iter : ?pool:t -> ?jobs:int -> ('a -> unit) -> 'a list -> unit
(** Parallel [List.iter]. *)
