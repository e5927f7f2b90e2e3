type options = {
  decomposition : Decompose.strategy;
  crosstalk_distance : int;
  max_colors : int option;
  conflict_threshold : int;
  residual_coupling : float;
  placement : [ `Identity | `Degree | `Auto ];
  optimize : bool;
  router : [ `Lookahead | `Greedy ];
  warm_start : bool;
  decompose_components : bool;
}

let default_options =
  {
    decomposition = Decompose.Hybrid;
    crosstalk_distance = 1;
    max_colors = None;
    conflict_threshold = Color_dynamic.default_conflict_threshold;
    residual_coupling = 0.0;
    placement = `Auto;
    optimize = false;
    router = `Lookahead;
    warm_start = false;
    decompose_components = false;
  }

type stat_value =
  | Int of int
  | Float of float
  | Text of string

type stat = string * stat_value

type scheduler = {
  name : string;
  aliases : string list;
  consumes : [ `Native | `Logical ];
  schedule : options -> Device.t -> Circuit.t -> Schedule.t * stat list;
}

let color_dynamic options device native =
  let schedule, (stats : Color_dynamic.stats) =
    Color_dynamic.run ~crosstalk_distance:options.crosstalk_distance
      ~max_colors:options.max_colors ~conflict_threshold:options.conflict_threshold
      ~warm_start:options.warm_start ~decompose:options.decompose_components device native
  in
  ( schedule,
    [
      ("cycles", Int stats.cycles);
      ("max_colors_used", Int stats.max_colors_used);
      ("postponed", Int stats.postponed);
      ("min_delta", Float stats.min_delta);
      ("components", Int stats.components);
      ("component_max_size", Int stats.component_max_size);
      ("component_sizes", Text stats.component_sizes);
      ("component_solves", Int stats.component_solves);
      ("warm_hits", Int stats.warm_hits);
      ("warm_misses", Int stats.warm_misses);
    ] )

let murali_delay _ device native =
  let schedule, delayed = Murali_delay.pack ~algorithm:"murali-delay" device native in
  ( schedule,
    [
      ("delayed", Int delayed);
      ("steps", Int (Schedule.depth schedule));
      ("threshold", Float Murali_delay.threshold);
    ] )

let cqc_synergy options device placed =
  let schedule, (stats : Cqc_synergy.run_stats) =
    Cqc_synergy.run ~decomposition:options.decomposition
      ~crosstalk_distance:options.crosstalk_distance device placed
  in
  ( schedule,
    [
      ("swaps", Int stats.n_swaps);
      ("conflict_total", Int stats.conflict_total);
      ("delayed", Int stats.delayed);
      ("steps", Int (Schedule.depth schedule));
    ] )

let greedy_spread options device native =
  let schedule, (stats : Greedy_spread.stats) =
    Greedy_spread.run ~crosstalk_distance:options.crosstalk_distance device native
  in
  ( schedule,
    [
      ("idle_colors", Int stats.idle_colors);
      ("interaction_colors", Int stats.interaction_colors);
    ] )

(* The built-in schedulers, in the order [fastsc list], [--help] and the
   serve layer's errors print them.  The scheduler modules sit below this
   one, so the table names them directly: any program that links [Pass] can
   compile with every entry. *)
let schedulers =
  let no_stats run options device circuit = (run options device circuit, []) in
  [
    {
      name = "baseline-n";
      aliases = [ "naive"; "n" ];
      consumes = `Native;
      schedule = no_stats (fun _ -> Baseline_naive.run);
    };
    {
      name = "baseline-g";
      aliases = [ "gmon"; "g" ];
      consumes = `Native;
      schedule =
        no_stats (fun o -> Baseline_gmon.run ~residual_coupling:o.residual_coupling);
    };
    {
      name = "baseline-u";
      aliases = [ "uniform"; "u" ];
      consumes = `Native;
      schedule =
        no_stats (fun _ -> Baseline_uniform.run);
    };
    {
      name = "baseline-s";
      aliases = [ "static"; "s" ];
      consumes = `Native;
      schedule =
        no_stats (fun o -> Baseline_static.run ~crosstalk_distance:o.crosstalk_distance);
    };
    {
      name = "color-dynamic";
      aliases = [ "colordynamic"; "cd" ];
      consumes = `Native;
      schedule = color_dynamic;
    };
    {
      name = "gmon-dynamic";
      aliases = [ "gmondynamic"; "gd" ];
      consumes = `Native;
      (* ColorDynamic's schedule, executed behind tunable couplers
         (paper §VIII) *)
      schedule =
        (fun options device native ->
          let schedule, stats = color_dynamic options device native in
          ( {
              schedule with
              Schedule.algorithm = "gmon-dynamic";
              coupler = Schedule.Tunable_coupler options.residual_coupling;
            },
            stats ));
    };
    {
      name = "anneal-dynamic";
      aliases = [ "annealdynamic"; "ad" ];
      consumes = `Native;
      schedule = no_stats (fun _ device native -> Anneal_dynamic.run device native);
    };
    {
      name = "murali-delay";
      aliases = [ "murali"; "md" ];
      consumes = `Native;
      schedule = murali_delay;
    };
    {
      name = "cqc-synergy";
      aliases = [ "cqc"; "cs" ];
      consumes = `Logical;
      schedule = cqc_synergy;
    };
    {
      name = "greedy-spread";
      aliases = [ "greedy"; "gs" ];
      consumes = `Native;
      schedule = greedy_spread;
    };
  ]

let find_scheduler name =
  List.find_opt (fun s -> s.name = name || List.mem name s.aliases) schedulers

let scheduler_exn name =
  match find_scheduler name with
  | Some s -> s
  | None ->
    invalid_arg
      (Printf.sprintf "Pass: unknown scheduler %S (known: %s)" name
         (String.concat ", " (List.map (fun s -> s.name) schedulers)))

module Context = struct
  type pass_report = {
    pass : string;
    wall_ns : float;
    smt_solves : int;
    solver_hits : int;
    solver_misses : int;
    warm_hits : int;
    warm_misses : int;
    pair_hits : int;
    pair_misses : int;
  }

  type t = {
    device : Device.t;
    options : options;
    circuit : Circuit.t;
    deadline : Deadline.t option;
    placement : int array option;
    prerouted : Mapping.result option;
    routed : Mapping.result option;
    native : Circuit.t option;
    schedule : Schedule.t option;
    metrics : Schedule.metrics option;
    algorithm : string option;
    stats : stat list;
    trail : pass_report list;
  }

  let create ?(options = default_options) ?deadline device circuit =
    {
      device;
      options;
      circuit;
      deadline;
      placement = None;
      prerouted = None;
      routed = None;
      native = None;
      schedule = None;
      metrics = None;
      algorithm = None;
      stats = [];
      trail = [];
    }

  let missing what stage =
    invalid_arg
      (Printf.sprintf "Pass.Context: no %s in the context (has the %s pass run?)" what stage)

  let routed_exn ctx =
    match ctx.routed with Some r -> r | None -> missing "routed circuit" "route"

  let native_exn ctx =
    match ctx.native with Some c -> c | None -> missing "native circuit" "decompose"

  let schedule_exn ctx =
    match ctx.schedule with Some s -> s | None -> missing "schedule" "schedule"

  let metrics_exn ctx =
    match ctx.metrics with Some m -> m | None -> missing "metrics" "evaluate"

  let stat_miss ctx label kind =
    invalid_arg
      (Printf.sprintf "Pass.Context: no %s stat %S (scheduler reported: %s)" kind label
         (match ctx.stats with
         | [] -> "none"
         | stats -> String.concat ", " (List.map fst stats)))

  let stat_int ctx label =
    match List.assoc_opt label ctx.stats with
    | Some (Int v) -> v
    | Some (Float _ | Text _) | None -> stat_miss ctx label "integer"

  let stat_float ctx label =
    match List.assoc_opt label ctx.stats with
    | Some (Float v) -> v
    | Some (Int v) -> float_of_int v
    | Some (Text _) | None -> stat_miss ctx label "float"

  let trail ctx = List.rev ctx.trail

  let json_of_stat = function
    | Int v -> Json.Int v
    | Float v -> Json.Float v
    | Text v -> Json.String v

  let json_of_cache (stats : Freq_alloc.cache_stats) =
    Json.Obj
      [
        ("hits", Json.Int stats.Freq_alloc.hits);
        ("misses", Json.Int stats.Freq_alloc.misses);
        ("entries", Json.Int stats.Freq_alloc.entries);
        ("warm_hits", Json.Int stats.Freq_alloc.warm_hits);
        ("warm_misses", Json.Int stats.Freq_alloc.warm_misses);
      ]

  let json_of_pair_cache (stats : Crosstalk.cache_stats) =
    Json.Obj
      [
        ("hits", Json.Int stats.Crosstalk.hits);
        ("misses", Json.Int stats.Crosstalk.misses);
        ("entries", Json.Int stats.Crosstalk.entries);
      ]

  let json_of_pass r =
    Json.Obj
      [
        ("pass", Json.String r.pass);
        ("wall_ms", Json.Float (r.wall_ns /. 1e6));
        ("smt_solves", Json.Int r.smt_solves);
        ( "solver_cache",
          Json.Obj
            [
              ("hits", Json.Int r.solver_hits);
              ("misses", Json.Int r.solver_misses);
              ("warm_hits", Json.Int r.warm_hits);
              ("warm_misses", Json.Int r.warm_misses);
            ] );
        ( "pair_cache",
          Json.Obj [ ("hits", Json.Int r.pair_hits); ("misses", Json.Int r.pair_misses) ] );
      ]

  let report ctx =
    Json.Obj
      [
        ( "algorithm",
          match ctx.algorithm with Some a -> Json.String a | None -> Json.Null );
        ("passes", Json.List (List.map json_of_pass (trail ctx)));
        ("stats", Json.Obj (List.map (fun (k, v) -> (k, json_of_stat v)) ctx.stats));
        ( "caches",
          Json.Obj
            [
              ("solver", json_of_cache (Freq_alloc.solver_cache_stats ()));
              ("pair", json_of_pair_cache (Crosstalk.pair_cache_stats ()));
              ("smt_solves_total", Json.Int (Fastsc_smt.Smt.find_max_delta_count ()));
            ] );
        ("metrics", (match ctx.metrics with Some m -> Export.metrics m | None -> Json.Null));
      ]
end

type pass = {
  pass_name : string;
  apply : Context.t -> Context.t;
}

let make_pass pass_name f =
  let apply ctx =
    (* Budget boundary: a request already past its deadline does not start
       another stage — this is where an expired budget surfaces between
       passes (the SMT loops poll the same ambient deadline within one). *)
    Deadline.check ~site:("pass:" ^ pass_name) ();
    (* monotonic, not gettimeofday: per-pass wall-clock must survive NTP
       steps, and it shares a timeline with the deadline math *)
    let t0 = Deadline.now_s () in
    let smt0 = Fastsc_smt.Smt.find_max_delta_count () in
    let solver0 = Freq_alloc.solver_cache_stats () in
    let pair0 = Crosstalk.pair_cache_stats () in
    let ctx = f ctx in
    let solver1 = Freq_alloc.solver_cache_stats () in
    let pair1 = Crosstalk.pair_cache_stats () in
    let report =
      {
        Context.pass = pass_name;
        wall_ns = (Deadline.now_s () -. t0) *. 1e9;
        smt_solves = Fastsc_smt.Smt.find_max_delta_count () - smt0;
        solver_hits = solver1.Freq_alloc.hits - solver0.Freq_alloc.hits;
        solver_misses = solver1.Freq_alloc.misses - solver0.Freq_alloc.misses;
        warm_hits = solver1.Freq_alloc.warm_hits - solver0.Freq_alloc.warm_hits;
        warm_misses = solver1.Freq_alloc.warm_misses - solver0.Freq_alloc.warm_misses;
        pair_hits = pair1.Crosstalk.hits - pair0.Crosstalk.hits;
        pair_misses = pair1.Crosstalk.misses - pair0.Crosstalk.misses;
      }
    in
    { ctx with Context.trail = report :: ctx.Context.trail }
  in
  { pass_name; apply }

(* The SWAP-insertion strategy [options.router] picks; schedulers that own
   their routing ([consumes = `Logical]) never consult it. *)
let route_with ctx placement =
  let device = ctx.Context.device and circuit = ctx.Context.circuit in
  match ctx.Context.options.router with
  | `Lookahead ->
    Mapping.route_lookahead ~placement ~dist:(Device.distances device) (Device.graph device)
      circuit
  | `Greedy -> Mapping.route ~placement (Device.graph device) circuit

(* Seeded fault for the verification harness (DESIGN.md §11): let the
   [`Auto] shortcut also skip the degree trial when identity needs one SWAP,
   where degree may need none. *)
let fault_zero_shortcut = Fault.enabled "place-zero-shortcut"

let place =
  make_pass "place" (fun ctx ->
      let graph = Device.graph ctx.Context.device in
      let circuit = ctx.Context.circuit in
      match ctx.Context.options.placement with
      | `Identity ->
        { ctx with Context.placement = Some (Mapping.identity_placement graph circuit) }
      | `Degree ->
        { ctx with Context.placement = Some (Mapping.degree_placement graph circuit) }
      | `Auto ->
        (* Fewer SWAPs wins, identity on ties, so the degree placement is
           routed only when identity needs a SWAP: a SWAP-free identity
           routing cannot lose.  The winning routing goes to the route pass
           so the work is not repeated. *)
        let identity = Mapping.identity_placement graph circuit in
        let by_identity = route_with ctx identity in
        let swaps = by_identity.Mapping.n_swaps in
        let placement, routed =
          if swaps = 0 || (fault_zero_shortcut && swaps = 1) then (identity, by_identity)
          else
            let degree = Mapping.degree_placement graph circuit in
            let by_degree = route_with ctx degree in
            if by_degree.Mapping.n_swaps < by_identity.Mapping.n_swaps then (degree, by_degree)
            else (identity, by_identity)
        in
        { ctx with Context.placement = Some placement; prerouted = Some routed })

let route =
  make_pass "route" (fun ctx ->
      match ctx.Context.prerouted with
      | Some routed -> { ctx with Context.routed = Some routed; prerouted = None }
      | None ->
        let placement =
          match ctx.Context.placement with
          | Some p -> p
          | None ->
            Mapping.identity_placement (Device.graph ctx.Context.device) ctx.Context.circuit
        in
        { ctx with Context.routed = Some (route_with ctx placement) })

let decompose =
  make_pass "decompose" (fun ctx ->
      let routed = Context.routed_exn ctx in
      {
        ctx with
        Context.native =
          Some (Decompose.run ctx.Context.options.decomposition routed.Mapping.circuit);
      })

let optimize =
  make_pass "optimize" (fun ctx ->
      if not ctx.Context.options.optimize then ctx
      else { ctx with Context.native = Some (Optimize.run (Context.native_exn ctx)) })

let schedule s =
  make_pass "schedule" (fun ctx ->
      let sched, stats =
        s.schedule ctx.Context.options ctx.Context.device (Context.native_exn ctx)
      in
      { ctx with Context.schedule = Some sched; algorithm = Some s.name; stats })

(* The combined stage for [consumes = `Logical] schedulers: apply the chosen
   placement by widening the logical circuit to the device's qubit count and
   hand the scheduler the still-unrouted program — SWAP insertion, native
   decomposition and scheduling are then its responsibility (CQC-style
   synergistic compilation interleaves them by design). *)
let route_schedule s =
  make_pass "route-schedule" (fun ctx ->
      let device = ctx.Context.device in
      let circuit = ctx.Context.circuit in
      let placement =
        match ctx.Context.placement with
        | Some p -> p
        | None -> Mapping.identity_placement (Device.graph device) circuit
      in
      let n_phys = Graph.n_vertices (Device.graph device) in
      let b = Circuit.builder n_phys in
      Array.iter
        (fun app ->
          Circuit.add b app.Gate.gate
            (List.map (fun q -> placement.(q)) (Array.to_list app.Gate.qubits)))
        (Circuit.instructions circuit);
      let placed = Circuit.finish b in
      let sched, stats = s.schedule ctx.Context.options device placed in
      {
        ctx with
        Context.prerouted = None;
        schedule = Some sched;
        algorithm = Some s.name;
        stats;
      })

let evaluate =
  make_pass "evaluate" (fun ctx ->
      let metrics =
        Schedule.evaluate ~crosstalk_distance:ctx.Context.options.crosstalk_distance
          (Context.schedule_exn ctx)
      in
      { ctx with Context.metrics = Some metrics })

let prepare_passes = [ place; route; decompose; optimize ]

(* The stage list from the scheduler's declared requirements: a [`Native]
   consumer gets the classic routed/decomposed front end; a [`Logical]
   consumer gets placement only and owns everything after. *)
let stages ~through s =
  let stages =
    match s.consumes with
    | `Native -> prepare_passes @ [ schedule s ]
    | `Logical -> [ place; route_schedule s ]
  in
  match through with `Schedule -> stages | `Evaluate -> stages @ [ evaluate ]

let pipeline ?(through = `Evaluate) ~algorithm () = stages ~through (scheduler_exn algorithm)

let run_pipeline passes ctx = List.fold_left (fun ctx p -> p.apply ctx) ctx passes

let execute ?options ?deadline ?(through = `Evaluate) ~algorithm device circuit =
  (* Fail on an unknown algorithm before doing any routing work. *)
  let passes = stages ~through (scheduler_exn algorithm) in
  let run () = run_pipeline passes (Context.create ?options ?deadline device circuit) in
  match deadline with
  | None -> run ()
  | Some d -> Deadline.with_deadline d run
