type options = {
  decomposition : Decompose.strategy;
  crosstalk_distance : int;
  max_colors : int option;
  conflict_threshold : int;
  residual_coupling : float;
  placement : [ `Identity | `Degree | `Auto ];
  optimize : bool;
  router : string;
  delay_threshold : float;
  warm_start : bool;
  decompose_components : bool;
}

let default_options =
  {
    decomposition = Decompose.Hybrid;
    crosstalk_distance = 1;
    max_colors = None;
    conflict_threshold = 2;
    residual_coupling = 0.0;
    placement = `Auto;
    optimize = false;
    router = "lookahead";
    delay_threshold = 1e-4;
    warm_start = false;
    decompose_components = false;
  }

type stat_value =
  | Int of int
  | Float of float
  | Text of string

type stat = string * stat_value

module type SCHEDULER = sig
  val name : string

  val aliases : string list

  val table1 : bool

  val consumes : [ `Native | `Logical ]

  val schedule : options -> Device.t -> Circuit.t -> Schedule.t * stat list
end

type scheduler = (module SCHEDULER)

(* The registry.  Registration happens at module-initialization time (Compile
   registers the built-in zoo) and lookups happen from pool domains, so the
   list is guarded by a mutex like the memo caches. *)
let registry : scheduler list ref = ref []

let registry_mutex = Mutex.create ()

let name_of (module S : SCHEDULER) = S.name

let register (module S : SCHEDULER) =
  Mutex.lock registry_mutex;
  let replaced = ref false in
  let updated =
    List.map
      (fun entry ->
        if name_of entry = S.name then begin
          replaced := true;
          (module S : SCHEDULER)
        end
        else entry)
      !registry
  in
  registry := (if !replaced then updated else updated @ [ (module S) ]);
  Mutex.unlock registry_mutex

let schedulers () =
  Mutex.lock registry_mutex;
  let all = !registry in
  Mutex.unlock registry_mutex;
  all

let scheduler_names () = List.map name_of (schedulers ())

let find_scheduler name =
  List.find_opt
    (fun (module S : SCHEDULER) -> S.name = name || List.mem name S.aliases)
    (schedulers ())

let scheduler_exn name =
  match find_scheduler name with
  | Some s -> s
  | None ->
    invalid_arg
      (Printf.sprintf "Pass: unknown scheduler %S (registered: %s)" name
         (String.concat ", " (scheduler_names ())))

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

(* The two SWAP-insertion strategies [options.router] names; schedulers that
   own their routing ([consumes = `Logical]) never consult it. *)
let router_names = [ "lookahead"; "greedy" ]

let route_with ctx placement =
  let device = ctx.Context.device and circuit = ctx.Context.circuit in
  match ctx.Context.options.router with
  | "lookahead" | "sabre" | "l" ->
    Mapping.route_lookahead ~placement ~dist:(Device.distances device) (Device.graph device)
      circuit
  | "greedy" | "shortest-path" | "g" -> Mapping.route ~placement (Device.graph device) circuit
  | name ->
    invalid_arg
      (Printf.sprintf "Pass: unknown router %S (registered: %s)" name
         (String.concat ", " router_names))

(* Seeded fault for the verification harness (docs/DESIGN.md §11): let the
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

let schedule algorithm =
  make_pass "schedule" (fun ctx ->
      let (module S : SCHEDULER) = scheduler_exn algorithm in
      let sched, stats =
        S.schedule ctx.Context.options ctx.Context.device (Context.native_exn ctx)
      in
      { ctx with Context.schedule = Some sched; algorithm = Some S.name; stats })

(* The combined stage for [consumes = `Logical] schedulers: apply the chosen
   placement by widening the logical circuit to the device's qubit count and
   hand the scheduler the still-unrouted program — SWAP insertion, native
   decomposition and scheduling are then its responsibility (CQC-style
   synergistic compilation interleaves them by design). *)
let route_schedule algorithm =
  make_pass "route-schedule" (fun ctx ->
      let (module S : SCHEDULER) = scheduler_exn algorithm in
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
      let sched, stats = S.schedule ctx.Context.options device placed in
      {
        ctx with
        Context.prerouted = None;
        schedule = Some sched;
        algorithm = Some S.name;
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

let pipeline ?(through = `Evaluate) ~algorithm () =
  (* Assemble the stage list from the scheduler's declared requirements: a
     [`Native] consumer gets the classic routed/decomposed front end; a
     [`Logical] consumer gets placement only and owns everything after. *)
  let (module S : SCHEDULER) = scheduler_exn algorithm in
  let stages =
    match S.consumes with
    | `Native -> prepare_passes @ [ schedule S.name ]
    | `Logical -> [ place; route_schedule S.name ]
  in
  match through with `Schedule -> stages | `Evaluate -> stages @ [ evaluate ]

let run_pipeline passes ctx = List.fold_left (fun ctx p -> p.apply ctx) ctx passes

let execute ?options ?deadline ?through ~algorithm device circuit =
  (* Fail on an unknown algorithm before doing any routing work. *)
  let (module S : SCHEDULER) = scheduler_exn algorithm in
  let run () =
    run_pipeline
      (pipeline ?through ~algorithm:S.name ())
      (Context.create ?options ?deadline device circuit)
  in
  match deadline with
  | None -> run ()
  | Some d -> Deadline.with_deadline d run
