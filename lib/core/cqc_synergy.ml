(* CQC-style synergistic routing + scheduling (PAPERS.md, Hua et al.):
   SWAP selection and moment packing are one interleaved loop instead of
   two pipeline stages.

   The router is the SABRE-style lookahead of [Mapping.route_lookahead]
   with one addition: a candidate SWAP's score carries a conflict-pressure
   term — [lambda] times the number of crosstalk-graph neighbours its
   coupling has among the couplings active in the current moment burst
   (the two-qubit gates just emitted plus any SWAPs already chosen for this
   blocked round).  Ties and near-ties therefore resolve toward SWAPs that
   will not fight their concurrent peers for spectrum, which is the paper's
   "synergy" between routing and crosstalk-aware scheduling.

   This scheduler declares [consumes = `Logical]: the pass-graph hands it
   the placed but unrouted program and it owns SWAP insertion, native
   decomposition and packing (the packing phase is Murali-style
   threshold-delay at uniform frequencies — CQC is software-only, like
   Murali, so the head-to-head against the frequency-aware schedulers is
   apples-to-apples). *)

(* Seeded fault for the verification harness (docs/DESIGN.md §11): drop the
   conflict-pressure term, reducing SWAP selection to plain depth scoring. *)
let fault_swap_score = Fault.enabled "cqc-swap-score"

let route ?(window = 8) ?(lambda = 0.5) ?(crosstalk_distance = 1) device circuit =
  let graph = Device.graph device in
  let n_physical = Graph.n_vertices graph in
  if Circuit.n_qubits circuit <> n_physical then
    invalid_arg "Cqc_synergy.route: circuit must already be placed onto the device";
  let lambda = if fault_swap_score then 0.0 else lambda in
  let xg = Crosstalk_graph.build ~distance:crosstalk_distance graph in
  let phys_of_log = Array.init n_physical Fun.id in
  let log_of_phys = Array.init n_physical Fun.id in
  let dist = Paths.all_pairs graph in
  let frontier = Mapping.Frontier.create circuit in
  let b = Circuit.builder n_physical in
  let n_swaps = ref 0 in
  let conflict_total = ref 0 in
  let last_swap = ref (-1, -1) in
  (* the concurrent-moment burst: crosstalk-graph vertices of the two-qubit
     operations that will share a moment with the next SWAP.  The first
     emission of each flush round starts a fresh burst; SWAPs join it. *)
  let burst = ref [] in
  let fresh = ref false in
  let coupling_vertex p q = Crosstalk_graph.vertex_of_pair xg (min p q, max p q) in
  let emittable app =
    match app.Gate.qubits with
    | [| _ |] -> true
    | [| a; bq |] ->
      let d = dist.(phys_of_log.(a)).(phys_of_log.(bq)) in
      if d < 0 then invalid_arg "Cqc_synergy.route: operands are disconnected" else d = 1
    | _ -> false
  in
  let emit app =
    if !fresh then begin
      burst := [];
      fresh := false
    end;
    let mapped = List.map (fun q -> phys_of_log.(q)) (Array.to_list app.Gate.qubits) in
    Circuit.add b app.Gate.gate mapped;
    match mapped with [ p; q ] -> burst := coupling_vertex p q :: !burst | _ -> ()
  in
  let apply_swap p q =
    Circuit.add b Gate.Swap [ p; q ];
    incr n_swaps;
    burst := coupling_vertex p q :: !burst;
    last_swap := (min p q, max p q);
    let lp = log_of_phys.(p) and lq = log_of_phys.(q) in
    log_of_phys.(p) <- lq;
    log_of_phys.(q) <- lp;
    if lq >= 0 then phys_of_log.(lq) <- p;
    if lp >= 0 then phys_of_log.(lp) <- q
  in
  let pair_distance (a, bq) = dist.(phys_of_log.(a)).(phys_of_log.(bq)) in
  let gate_pair app = (app.Gate.qubits.(0), app.Gate.qubits.(1)) in
  let swap_budget = 4 * Circuit.length circuit * (Paths.diameter graph + n_physical + 2) in
  while not (Mapping.Frontier.is_done frontier) do
    (* flush everything currently executable *)
    fresh := true;
    Mapping.Frontier.flush frontier ~emittable ~emit;
    if not (Mapping.Frontier.is_done frontier) then begin
      if !n_swaps > swap_budget then
        failwith "Cqc_synergy.route: swap budget exhausted (routing livelock)";
      let front = List.map gate_pair (Mapping.Frontier.ready frontier) in
      assert (front <> []);
      let upcoming = List.map gate_pair (Mapping.Frontier.upcoming frontier window) in
      let score () =
        List.fold_left (fun acc pair -> acc +. float_of_int (pair_distance pair)) 0.0 front
        +. (0.5
           *. List.fold_left
                (fun acc pair -> acc +. float_of_int (pair_distance pair))
                0.0 upcoming)
      in
      let current = score () in
      let candidates =
        List.concat_map
          (fun (a, bq) ->
            List.concat_map
              (fun logical ->
                let p = phys_of_log.(logical) in
                List.map (fun q -> (min p q, max p q)) (Graph.neighbors graph p))
              [ a; bq ])
          front
        |> List.sort_uniq compare
        |> List.filter (fun pq -> pq <> !last_swap)
      in
      let conflict (p, q) = Crosstalk_graph.conflict_count xg (coupling_vertex p q) !burst in
      let trial (p, q) =
        let lp = log_of_phys.(p) and lq = log_of_phys.(q) in
        log_of_phys.(p) <- lq;
        log_of_phys.(q) <- lp;
        if lq >= 0 then phys_of_log.(lq) <- p;
        if lp >= 0 then phys_of_log.(lp) <- q;
        let s = score () in
        log_of_phys.(p) <- lp;
        log_of_phys.(q) <- lq;
        if lq >= 0 then phys_of_log.(lq) <- q;
        if lp >= 0 then phys_of_log.(lp) <- p;
        (* depth gain plus spectrum pressure: the synergy term *)
        s +. (lambda *. float_of_int (conflict (p, q)))
      in
      let best =
        List.fold_left
          (fun acc pq ->
            let s = trial pq in
            match acc with Some (_, s') when s' <= s -> acc | _ -> Some (pq, s))
          None candidates
      in
      match best with
      | Some ((p, q), s) when s < current -. 1e-9 ->
        conflict_total := !conflict_total + conflict (p, q);
        apply_swap p q
      | _ -> (
        let a, bq = List.hd front in
        match Paths.shortest_path graph phys_of_log.(a) phys_of_log.(bq) with
        | Some (p0 :: p1 :: _) ->
          last_swap := (-1, -1);
          conflict_total := !conflict_total + conflict (p0, p1);
          apply_swap p0 p1
        | _ -> invalid_arg "Cqc_synergy.route: operands are disconnected")
    end
  done;
  ( {
      Mapping.circuit = Circuit.finish b;
      initial = Array.init n_physical Fun.id;
      final = Array.copy phys_of_log;
      n_swaps = !n_swaps;
    },
    !conflict_total )

type run_stats = { n_swaps : int; conflict_total : int; delayed : int }

let run ?window ?lambda ?(threshold = 1e-4) ?(decomposition = Decompose.Hybrid)
    ?(crosstalk_distance = 1) device placed =
  let result, conflict_total = route ?window ?lambda ~crosstalk_distance device placed in
  let native = Decompose.run decomposition result.Mapping.circuit in
  let sched, delayed = Murali_delay.pack ~threshold ~algorithm:"cqc-synergy" device native in
  (sched, { n_swaps = result.Mapping.n_swaps; conflict_total; delayed })

let scheduler : Pass.scheduler =
  (module struct
    let name = "cqc-synergy"

    let aliases = [ "cqc"; "cs" ]

    let table1 = false

    let consumes = `Logical

    let schedule (options : Pass.options) device placed =
      let sched, stats =
        run ~threshold:options.Pass.delay_threshold
          ~decomposition:options.Pass.decomposition
          ~crosstalk_distance:options.Pass.crosstalk_distance device placed
      in
      ( sched,
        [
          ("swaps", Pass.Int stats.n_swaps);
          ("conflict_total", Pass.Int stats.conflict_total);
          ("delayed", Pass.Int stats.delayed);
          ("steps", Pass.Int (Schedule.depth sched));
        ] )
  end)
