(** Pass-manager compiler pipeline.

    The compiler is a composable pass-graph assembled per algorithm.  A
    scheduler that consumes native gates ([consumes = `Native]) gets the
    classic front end

    {v place -> route -> decompose -> optimize -> schedule -> evaluate v}

    while a scheduler that owns its own routing ([consumes = `Logical], e.g.
    the CQC-style synergistic compiler) gets

    {v place -> route-schedule -> evaluate v}

    — {!pipeline} reads the chosen scheduler's declared requirements and
    assembles the stage list accordingly; there is no constant pipeline.
    Stages are threaded over a {!Context.t} record that carries the device,
    the options, every intermediate artifact (placement, routed circuit,
    native circuit, schedule, metrics) and an instrumentation trail:
    wall-clock per pass, {!Fastsc_smt.Smt.find_max_delta} solve-count deltas,
    and the hit/miss deltas of the {!Freq_alloc} and
    {!Fastsc_noise.Crosstalk} memo tables.

    Scheduling algorithms are first-class {!SCHEDULER} modules held in a
    registry; the built-in zoo is registered by {!Compile} (reference
    {!Compile} — e.g. any [Compile.algorithm_of_string] call — before using
    the registry so their registrations have run).  New algorithms register
    the same way and are immediately usable by name through {!execute},
    including per-compilation statistics via {!Context.stats} — there is no
    special-cased stats path.  [options.router] picks one of the two
    SWAP-insertion strategies by name ({!router_names}).

    [Compile.run] and friends are thin wrappers over this module and their
    output is bit-identical to the pre-pass-manager pipeline (golden tests
    enforce the bench drivers' stdout bytes). *)

type options = {
  decomposition : Decompose.strategy;  (** Default [Hybrid] (§V-B5). *)
  crosstalk_distance : int;  (** The [d] of G_x^(d); default 1. *)
  max_colors : int option;  (** Per-step color cap (Fig 11); default none. *)
  conflict_threshold : int;  (** noise_conflict neighbour cap; default 2. *)
  residual_coupling : float;  (** Gmon coupler leakage eta (Fig 12); default 0. *)
  placement : [ `Identity | `Degree | `Coherence | `Auto ];
      (** Initial mapping heuristic.  [`Auto] (default) keeps the identity
          or the degree placement, whichever the router gives fewer SWAPs,
          identity on ties; it routes degree only when identity needs a
          SWAP (see {!place}). *)
  optimize : bool;  (** Run the peephole optimizer after decomposition. *)
  router : string;
      (** Name (or alias) of the router the route pass dispatches to
          ({!router_names}); default ["lookahead"].  Unknown names raise
          when the route pass runs. *)
  delay_threshold : float;
      (** Crosstalk pair-error budget above which software-only schedulers
          (murali-delay, cqc-synergy) refuse to run two gates simultaneously
          and delay one instead; default [1e-4]. *)
  warm_start : bool;
      (** Seed each moment's frequency solve with the previous moment's
          witness (ColorDynamic family).  Off by default: warm-started solves
          may land on a different (equally valid) witness within the solver
          tolerance, and the defaults must keep golden outputs byte-identical. *)
  decompose_components : bool;
      (** Allocate each connected component of the active crosstalk subgraph
          independently, one after another in component order.  Off by
          default for the same golden-output reason. *)
}

val default_options : options

(** Per-compilation statistics a scheduler may report (e.g. ColorDynamic's
    cycle and color counts).  Kept as a flat label/value list so the registry
    needs no per-algorithm types and the trace report can serialize any
    scheduler's stats uniformly. *)
type stat_value =
  | Int of int
  | Float of float
  | Text of string

type stat = string * stat_value

(** A scheduling algorithm as the registry sees it. *)
module type SCHEDULER = sig
  val name : string
  (** Canonical name, e.g. ["color-dynamic"] — what
      [Compile.algorithm_to_string] prints and [--trace] reports. *)

  val aliases : string list
  (** Accepted spellings besides [name] (CLI shorthands like ["cd"]). *)

  val table1 : bool
  (** One of the paper's five Table I evaluation columns (drives
      [Compile.all_algorithms] vs [Compile.extended_algorithms]). *)

  val consumes : [ `Native | `Logical ]
  (** What the scheduler's [schedule] expects as its circuit argument.
      [`Native] (every paper scheduler): an already-routed native-gate
      circuit — {!pipeline} runs the classic front end first.  [`Logical]:
      the placement-applied but {e unrouted} program — the scheduler owns
      SWAP insertion and decomposition itself, and {!pipeline} hands it the
      circuit through the combined {!route_schedule} stage instead. *)

  val schedule : options -> Device.t -> Circuit.t -> Schedule.t * stat list
  (** Schedule the circuit (routed native gates for [`Native] consumers, the
      placed logical program for [`Logical] ones), picking whichever options
      apply; returns per-compilation stats ([[]] if none). *)
end

type scheduler = (module SCHEDULER)

val register : scheduler -> unit
(** Add a scheduler to the registry (appended in registration order).
    Re-registering a [name] replaces the previous entry in place, so tests
    can shadow a built-in without growing the registry. *)

val schedulers : unit -> scheduler list
(** All registered schedulers, in registration order. *)

val scheduler_names : unit -> string list
(** Canonical names, in registration order. *)

val find_scheduler : string -> scheduler option
(** Look up by canonical name or alias. *)

val scheduler_exn : string -> scheduler
(** Like {!find_scheduler}.
    @raise Invalid_argument with the list of registered names on a miss. *)

val router_names : string list
(** The routers [options.router] selects, by canonical name:
    ["lookahead"] (SABRE-style windowed lookahead, the default; aliases
    ["sabre"] and ["l"]) and ["greedy"] (shortest-path; aliases
    ["shortest-path"] and ["g"]).  The lookahead router reads the device's
    hop-distance matrix ({!Device.distances}, built once). *)

module Context : sig
  (** Instrumentation record of one executed pass. *)
  type pass_report = {
    pass : string;  (** Stage name ([place], [route], ...). *)
    wall_ns : float;  (** Wall-clock spent in the pass, nanoseconds. *)
    smt_solves : int;  (** {!Fastsc_smt.Smt.find_max_delta} calls made. *)
    solver_hits : int;  (** {!Freq_alloc} solver-cache hits during the pass. *)
    solver_misses : int;
    warm_hits : int;  (** Warm-started solves whose seed was usable. *)
    warm_misses : int;  (** Warm-started solves that fell back cold. *)
    pair_hits : int;  (** {!Fastsc_noise.Crosstalk} pair-cache hits. *)
    pair_misses : int;
  }

  type t = {
    device : Device.t;
    options : options;
    circuit : Circuit.t;  (** The logical input circuit. *)
    deadline : Fastsc_util.Deadline.t option;
        (** The request budget this compilation runs under, when any.
            {!execute} installs it as the ambient deadline for the pipeline;
            it is recorded here so schedulers can read how much budget
            remains. *)
    placement : int array option;  (** Chosen initial mapping (after place). *)
    prerouted : Mapping.result option;
        (** The routing of the placement [`Auto] chose (identity's, or
            degree's when degree routes with fewer SWAPs), kept so the route
            pass adopts it instead of routing again.  [None] under any other
            placement option.  Internal hand-off: consumed by route, and
            cleared by route-schedule, which routes for itself. *)
    routed : Mapping.result option;  (** After route. *)
    native : Circuit.t option;  (** After decompose (and optimize). *)
    schedule : Schedule.t option;  (** After schedule. *)
    metrics : Schedule.metrics option;  (** After evaluate. *)
    algorithm : string option;  (** Canonical scheduler name, set by schedule. *)
    stats : stat list;  (** The scheduler's per-compilation statistics. *)
    trail : pass_report list;  (** Executed passes, most recent first. *)
  }

  val create : ?options:options -> ?deadline:Fastsc_util.Deadline.t -> Device.t -> Circuit.t -> t
  (** A fresh context with no artifacts and an empty trail. *)

  val routed_exn : t -> Mapping.result
  val native_exn : t -> Circuit.t
  val schedule_exn : t -> Schedule.t
  val metrics_exn : t -> Schedule.metrics
  (** Artifact accessors.
      @raise Invalid_argument naming the missing stage when it has not run. *)

  val stat_int : t -> string -> int
  val stat_float : t -> string -> float
  (** Look up one scheduler statistic by label ({!stat_float} also accepts an
      [Int] stat, widening it).
      @raise Invalid_argument if the label is absent or of the wrong kind,
      listing the labels the scheduler did report. *)

  val trail : t -> pass_report list
  (** The executed passes in pipeline order (oldest first). *)

  val report : t -> Json.t
  (** The [--trace] document: algorithm, per-pass timings and cache/solver
      deltas, scheduler stats, current process-wide cache counters
      ({!Freq_alloc.solver_cache_stats}, [Crosstalk.pair_cache_stats]) and the
      evaluation metrics when present.  Valid JSON via {!Fastsc_util.Json}. *)
end

type pass = {
  pass_name : string;
  apply : Context.t -> Context.t;
}

val make_pass : string -> (Context.t -> Context.t) -> pass
(** Wrap a stage function with instrumentation: wall clock (monotonic —
    {!Fastsc_util.Deadline.now_s}), SMT solve count and cache hit/miss
    deltas are measured around the call and appended to the context's
    trail.  (Counters are process-wide, so concurrent compilations on pool
    domains see each other's deltas; per-pass numbers are exact when one
    compilation runs at a time, e.g. under [--trace].)  Every wrapped pass
    also polls the ambient deadline before starting and raises
    [Deadline.Expired] when the budget is already gone. *)

val place : pass
(** Resolve the placement option to a concrete initial mapping.  [`Auto]
    routes the identity placement with [options.router]; if that needs no
    SWAP it is kept outright, since degree could at best tie and ties go to
    identity.  Otherwise it also routes the degree placement and keeps
    degree only if it needs strictly fewer SWAPs.  The routing cost is
    attributed to this pass, and the kept routing is handed to route in
    {!Context.t.prerouted}.  A degree routing that would raise (disconnected
    operands, livelock) is never attempted when identity needs no SWAP. *)

val route : pass
(** SWAP-route the logical circuit onto the device with the chosen placement
    (identity when none was chosen), adopting place's routing from
    {!Context.t.prerouted} instead when [`Auto] left one. *)

val decompose : pass
(** Decompose the routed circuit into native gates per
    [options.decomposition]. *)

val optimize : pass
(** Peephole-optimize the native circuit when [options.optimize] (recorded in
    the trail either way, as a no-op when disabled). *)

val schedule : string -> pass
(** Run the named registered scheduler on the native circuit; records the
    schedule, the canonical algorithm name and the scheduler's stats.
    @raise Invalid_argument (at application time) for an unknown name. *)

val route_schedule : string -> pass
(** The combined stage for [`Logical] consumers: apply the chosen placement
    (widening the program to the device's qubit count) and hand the unrouted
    circuit to the named scheduler, which owns SWAP insertion, decomposition
    and scheduling; records the schedule, algorithm name and stats.
    @raise Invalid_argument (at application time) for an unknown name. *)

val evaluate : pass
(** Evaluate the schedule ({!Schedule.evaluate} at
    [options.crosstalk_distance]) into {!Context.t.metrics}. *)

val prepare_passes : pass list
(** [place; route; decompose; optimize] — the shared front end every
    [`Native] scheduler consumes ({!Compile.prepare}). *)

val pipeline : ?through:[ `Schedule | `Evaluate ] -> algorithm:string -> unit -> pass list
(** The stage list for one algorithm, assembled from the scheduler's declared
    requirements ({!SCHEDULER.consumes}): [`Native] consumers get
    [prepare_passes @ [schedule]], [`Logical] ones get
    [[place; route_schedule]].  [through] (default [`Evaluate]) stops after
    scheduling when metrics are not needed.
    @raise Invalid_argument for an unknown algorithm name. *)

val run_pipeline : pass list -> Context.t -> Context.t

val execute :
  ?options:options ->
  ?deadline:Fastsc_util.Deadline.t ->
  ?through:[ `Schedule | `Evaluate ] ->
  algorithm:string ->
  Device.t -> Circuit.t -> Context.t
(** Build a fresh context and run the standard pipeline:
    [run_pipeline (pipeline ?through ~algorithm ()) (Context.create ...)].
    When [deadline] is given it is installed as the ambient
    {!Fastsc_util.Deadline} for the whole pipeline: passes poll it between
    stages and the SMT solver loops poll it at chunk boundaries, so the call
    raises [Deadline.Expired] (it never hangs past the budget by more than
    one chunk) — the serve layer's degradation ladder catches that and falls
    back to a cheaper tier.
    @raise Invalid_argument for an unknown algorithm name. *)
