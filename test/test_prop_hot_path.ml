(* Differential properties of the compile hot path.  The ready-set router
   flush, the per-evaluation memo of operating points and spectator lists,
   and the coupling index each replaced an implementation that recomputed
   the same thing over and over; verbatim copies of those implementations
   (module [Old]) are the oracles.  Every property demands bit-identical
   output: the same routed gates, final permutation and SWAP count, the
   same IEEE-754 bits in every metric. *)
open Helpers
open Fastsc_device
open Fastsc_noise
open Fastsc_core

module Old = struct
  open Schedule

  (* Mapping.route_lookahead: each flush sweeps the whole instruction array
     until a sweep emits nothing, and [front] and [upcoming] rescan it from
     instruction 0. *)
  let route_lookahead ?placement ?(window = 8) device circuit =
    let placement =
      match placement with Some p -> p | None -> Mapping.identity_placement device circuit
    in
    ignore (Mapping.identity_placement device circuit);
    let n_logical = Circuit.n_qubits circuit in
    if Array.length placement <> n_logical then
      invalid_arg "Mapping.route_lookahead: placement size mismatch";
    let n_physical = Graph.n_vertices device in
    let phys_of_log = Array.copy placement in
    let log_of_phys = Array.make n_physical (-1) in
    Array.iteri
      (fun logical physical ->
        if physical < 0 || physical >= n_physical || log_of_phys.(physical) >= 0 then
          invalid_arg "Mapping.route_lookahead: placement is not injective into the device";
        log_of_phys.(physical) <- logical)
      phys_of_log;
    let dist = Paths.all_pairs device in
    let instrs = Circuit.instructions circuit in
    (* per-qubit program-order queues: an instruction is ready when it heads
       the queue of each of its operands *)
    let queues = Array.init n_logical (fun _ -> Queue.create ()) in
    Array.iter
      (fun app -> Array.iter (fun q -> Queue.add app.Gate.id queues.(q)) app.Gate.qubits)
      instrs;
    let ready app =
      Array.for_all
        (fun q -> (not (Queue.is_empty queues.(q))) && Queue.peek queues.(q) = app.Gate.id)
        app.Gate.qubits
    in
    let remaining = ref (Array.length instrs) in
    let b = Circuit.builder n_physical in
    let n_swaps = ref 0 in
    let last_swap = ref (-1, -1) in
    let emit app =
      Circuit.add b app.Gate.gate
        (List.map (fun q -> phys_of_log.(q)) (Array.to_list app.Gate.qubits));
      Array.iter (fun q -> ignore (Queue.pop queues.(q))) app.Gate.qubits;
      decr remaining
    in
    let apply_swap p q =
      Circuit.add b Gate.Swap [ p; q ];
      incr n_swaps;
      last_swap := (min p q, max p q);
      let lp = log_of_phys.(p) and lq = log_of_phys.(q) in
      log_of_phys.(p) <- lq;
      log_of_phys.(q) <- lp;
      if lq >= 0 then phys_of_log.(lq) <- p;
      if lp >= 0 then phys_of_log.(lp) <- q
    in
    let pair_distance (a, bq) = dist.(phys_of_log.(a)).(phys_of_log.(bq)) in
    let gate_pair app = (app.Gate.qubits.(0), app.Gate.qubits.(1)) in
    let swap_budget = 4 * Array.length instrs * (Paths.diameter device + n_physical + 2) in
    while !remaining > 0 do
      (* flush everything currently executable *)
      let progress = ref true in
      while !progress do
        progress := false;
        Array.iter
          (fun app ->
            if ready app then
              match app.Gate.qubits with
              | [| _ |] ->
                emit app;
                progress := true
              | [| a; bq |] ->
                let d = dist.(phys_of_log.(a)).(phys_of_log.(bq)) in
                if d < 0 then
                  invalid_arg "Mapping.route_lookahead: operands are disconnected"
                else if d = 1 then begin
                  emit app;
                  progress := true
                end
              | _ -> ())
          instrs
      done;
      if !remaining > 0 then begin
        if !n_swaps > swap_budget then
          failwith "Mapping.route_lookahead: swap budget exhausted (routing livelock)";
        (* blocked on distant two-qubit gates: pick a SWAP *)
        let front =
          Array.to_list instrs
          |> List.filter (fun app ->
                 Array.length app.Gate.qubits = 2 && ready app && pair_distance (gate_pair app) > 1)
          |> List.map gate_pair
        in
        assert (front <> []);
        (* the next [window] two-qubit gates still pending, in program order *)
        let upcoming =
          let acc = ref [] and count = ref 0 in
          Array.iter
            (fun app ->
              if
                !count < window
                && Array.length app.Gate.qubits = 2
                && (not (Queue.is_empty queues.(app.Gate.qubits.(0))))
                && Queue.peek queues.(app.Gate.qubits.(0)) <= app.Gate.id
              then begin
                acc := gate_pair app :: !acc;
                incr count
              end)
            instrs;
          List.rev !acc
        in
        let score () =
          List.fold_left (fun acc pair -> acc +. float_of_int (pair_distance pair)) 0.0 front
          +. (0.5
             *. List.fold_left
                  (fun acc pair -> acc +. float_of_int (pair_distance pair))
                  0.0 upcoming)
        in
        let current = score () in
        (* candidate SWAPs: device edges touching a front-gate operand *)
        let candidates =
          List.concat_map
            (fun (a, bq) ->
              List.concat_map
                (fun logical ->
                  let p = phys_of_log.(logical) in
                  List.map (fun q -> (min p q, max p q)) (Graph.neighbors device p))
                [ a; bq ])
            front
          |> List.sort_uniq compare
          |> List.filter (fun pq -> pq <> !last_swap)
        in
        let trial (p, q) =
          (* evaluate the score with the swap virtually applied *)
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
          s
        in
        let best =
          List.fold_left
            (fun acc pq ->
              let s = trial pq in
              match acc with Some (_, s') when s' <= s -> acc | _ -> Some (pq, s))
            None candidates
        in
        match best with
        | Some ((p, q), s) when s < current -. 1e-9 -> apply_swap p q
        | _ -> (
          (* no improving candidate: guarantee progress by walking the first
             front gate one step along a shortest path *)
          let a, bq = List.hd front in
          match Paths.shortest_path device phys_of_log.(a) phys_of_log.(bq) with
          | Some (p0 :: p1 :: _) ->
            last_swap := (-1, -1);
            apply_swap p0 p1
          | _ -> invalid_arg "Mapping.route_lookahead: operands are disconnected")
      end
    done;
    {
      Mapping.circuit = Circuit.finish b;
      initial = placement;
      final = Array.copy phys_of_log;
      n_swaps = !n_swaps;
    }

  (* Cqc_synergy.route, with the same sweeps. *)
  let cqc_route ?(window = 8) ?(lambda = 0.5) ?(crosstalk_distance = 1) device circuit =
    let graph = Device.graph device in
    let n_physical = Graph.n_vertices graph in
    if Circuit.n_qubits circuit <> n_physical then
      invalid_arg "Cqc_synergy.route: circuit must already be placed onto the device";
    let xg = Crosstalk_graph.build ~distance:crosstalk_distance graph in
    let phys_of_log = Array.init n_physical Fun.id in
    let log_of_phys = Array.init n_physical Fun.id in
    let dist = Paths.all_pairs graph in
    let instrs = Circuit.instructions circuit in
    let queues = Array.init n_physical (fun _ -> Queue.create ()) in
    Array.iter
      (fun app -> Array.iter (fun q -> Queue.add app.Gate.id queues.(q)) app.Gate.qubits)
      instrs;
    let ready app =
      Array.for_all
        (fun q -> (not (Queue.is_empty queues.(q))) && Queue.peek queues.(q) = app.Gate.id)
        app.Gate.qubits
    in
    let remaining = ref (Array.length instrs) in
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
    let emit app =
      if !fresh then begin
        burst := [];
        fresh := false
      end;
      let mapped = List.map (fun q -> phys_of_log.(q)) (Array.to_list app.Gate.qubits) in
      Circuit.add b app.Gate.gate mapped;
      (match mapped with [ p; q ] -> burst := coupling_vertex p q :: !burst | _ -> ());
      Array.iter (fun q -> ignore (Queue.pop queues.(q))) app.Gate.qubits;
      decr remaining
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
    let swap_budget = 4 * Array.length instrs * (Paths.diameter graph + n_physical + 2) in
    while !remaining > 0 do
      (* flush everything currently executable *)
      fresh := true;
      let progress = ref true in
      while !progress do
        progress := false;
        Array.iter
          (fun app ->
            if ready app then
              match app.Gate.qubits with
              | [| _ |] ->
                emit app;
                progress := true
              | [| a; bq |] ->
                let d = dist.(phys_of_log.(a)).(phys_of_log.(bq)) in
                if d < 0 then invalid_arg "Cqc_synergy.route: operands are disconnected"
                else if d = 1 then begin
                  emit app;
                  progress := true
                end
              | _ -> ())
          instrs
      done;
      if !remaining > 0 then begin
        if !n_swaps > swap_budget then
          failwith "Cqc_synergy.route: swap budget exhausted (routing livelock)";
        let front =
          Array.to_list instrs
          |> List.filter (fun app ->
                 Array.length app.Gate.qubits = 2 && ready app && pair_distance (gate_pair app) > 1)
          |> List.map gate_pair
        in
        assert (front <> []);
        let upcoming =
          let acc = ref [] and count = ref 0 in
          Array.iter
            (fun app ->
              if
                !count < window
                && Array.length app.Gate.qubits = 2
                && (not (Queue.is_empty queues.(app.Gate.qubits.(0))))
                && Queue.peek queues.(app.Gate.qubits.(0)) <= app.Gate.id
              then begin
                acc := gate_pair app :: !acc;
                incr count
              end)
            instrs;
          List.rev !acc
        in
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

  (* Schedule.evaluate and Schedule.step_errors: every gate operand inverts
     the flux curve, every two-qubit gate rescans the device for its
     spectators. *)
  let pair_interacting step (a, b) =
    List.exists (fun (x, y) -> (x = a && y = b) || (x = b && y = a)) step.interacting

  let pair_coupling t step (a, b) =
    let g0 = (Device.params t.device).Device.g0 in
    match t.coupler with
    | Fixed_coupler -> g0
    | Tunable_coupler eta -> if pair_interacting step (a, b) then g0 else eta *. g0

  (* Flux-noise-induced control error for one qubit operating at [freq] for
     [duration] ns: frequency jitter = sensitivity * flux noise, accumulated as
     a coherent phase error. *)
  let flux_error device q ~freq ~duration =
    let tr = Device.transmon device q in
    let freq_clamped = Float.max tr.Transmon.omega_min (Float.min tr.Transmon.omega_max freq) in
    let flux = Transmon.flux_for_freq tr freq_clamped in
    let sensitivity = Transmon.flux_sensitivity tr ~flux in
    let jitter = sensitivity *. (Device.params device).Device.flux_noise in
    let phase = 2.0 *. Float.pi *. jitter *. duration in
    Float.min 0.5 (phase *. phase /. 4.0)

  (* Spectator partners of a two-qubit gate on (a, b): every other qubit
     coupled (or, at distance 2, parasitically coupled) to one of its
     operands.  Per eq 4, crosstalk is charged per gate over its spectator
     couplings — the residual exchange between two {e parked} qubits is a
     bounded coherent oscillation at large detuning and is not accumulated. *)
  let spectators t ~crosstalk_distance (a, b) =
    let n = Device.n_qubits t.device in
    let acc = ref [] in
    for y = 0 to n - 1 do
      if y <> a && y <> b then begin
        let consider x =
          let g = Device.coupling t.device x y in
          let distance_ok =
            g > 0.0
            && (crosstalk_distance >= 2 || g >= (Device.params t.device).Device.g0)
          in
          if distance_ok then acc := (x, y) :: !acc
        in
        consider a;
        consider b
      end
    done;
    !acc

  (* Fold one step's gate-control and crosstalk error terms into the
     accumulators — shared by whole-schedule evaluation and the per-step
     error budget. *)
  let accumulate_step t ~worst_case ~crosstalk_distance gate_acc xtalk_acc step =
    let params = Device.params t.device in
    let alpha q = Transmon.anharmonicity (Device.transmon t.device q) in
    List.iter
      (fun app ->
        (* Control error of the intended gate. *)
        let base =
          if Gate.is_two_qubit app.Gate.gate then params.Device.base_error_2q
          else params.Device.base_error_1q
        in
        Success.add_error gate_acc base;
        Array.iter
          (fun q ->
            Success.add_error gate_acc
              (flux_error t.device q ~freq:step.freqs.(q) ~duration:step.duration))
          app.Gate.qubits;
        (* Crosstalk of a two-qubit gate through its spectator couplings
           (eq 6 generalised to all resonance channels). *)
        match app.Gate.qubits with
        | [| a; b |] ->
          List.iter
            (fun (x, y) ->
              if not (pair_interacting step (x, y)) then begin
                (* direct couplings go through the (possibly deactivated)
                   coupler; parasitic distance-2 coupling bypasses it *)
                let direct = Device.coupling t.device x y in
                let g =
                  if direct >= params.Device.g0 then pair_coupling t step (x, y) else direct
                in
                if g > 0.0 then
                  Success.add_error xtalk_acc
                    (Crosstalk.pair_error ~worst_case ~alpha_a:(alpha x) ~alpha_b:(alpha y)
                       ~g ~omega_a:step.freqs.(x) ~omega_b:step.freqs.(y) ~t:step.duration ())
              end)
            (spectators t ~crosstalk_distance (a, b))
        | _ -> ())
      step.gates

  let step_errors ?(worst_case = false) ?(crosstalk_distance = 1) t step =
    let gate_acc = Success.create () in
    let xtalk_acc = Success.create () in
    accumulate_step t ~worst_case ~crosstalk_distance gate_acc xtalk_acc step;
    (1.0 -. Success.probability gate_acc, 1.0 -. Success.probability xtalk_acc)

  let evaluate ?(worst_case = false) ?(crosstalk_distance = 1)
      ?(decoherence = Decoherence.Exponential) ?coherence t =
    let gate_acc = Success.create () in
    let xtalk_acc = Success.create () in
    let dec_acc = Success.create () in
    List.iter (accumulate_step t ~worst_case ~crosstalk_distance gate_acc xtalk_acc) t.steps;
    let duration = total_time t in
    let qubit_coherence =
      match coherence with
      | Some f -> f
      | None -> fun q -> (Device.t1 t.device q, Device.t2 t.device q)
    in
    (* only qubits that ever carry program state decohere it; spare device
       qubits sit in |0> where T1 decay and dephasing are harmless *)
    List.iter
      (fun q ->
        let t1, t2 = qubit_coherence q in
        Success.add_error dec_acc (Decoherence.error ~model:decoherence ~t1 ~t2 ~t:duration ()))
      (used_qubits t);
    let total = Success.combine gate_acc (Success.combine xtalk_acc dec_acc) in
    {
      success = Success.probability total;
      log10_success = Success.log10_probability total;
      gate_error = 1.0 -. Success.probability gate_acc;
      crosstalk_error = 1.0 -. Success.probability xtalk_acc;
      decoherence_error = 1.0 -. Success.probability dec_acc;
      log10_gate_survival = Success.log10_probability gate_acc;
      log10_crosstalk_survival = Success.log10_probability xtalk_acc;
      log10_decoherence_survival = Success.log10_probability dec_acc;
      depth = depth t;
      total_time = duration;
      n_gates = n_gates t;
      n_two_qubit = n_two_qubit_gates t;
    }

  (* Line_graph.vertex_of_edge: a linear scan of the edge array. *)
  let vertex_of_edge edge_of_vertex (u, v) =
    let canonical = (min u v, max u v) in
    let found = ref (-1) in
    Array.iteri (fun i e -> if e = canonical then found := i) edge_of_vertex;
    if !found < 0 then raise Not_found else !found
end

(* Referencing Compile links it; its initialisation registers the schedulers
   the evaluation property compiles with. *)
let () = ignore Compile.all_algorithms

let topologies = Test_prop_rivals.topologies

let n_topologies = Array.length (Lazy.force topologies)

let device_of i = Device.create ~seed:2020 (Lazy.force topologies).(i)

(* Logical qubit [l] on physical qubit [placement.(l)], drawn from [seed]. *)
let random_placement seed ~n_physical ~n_logical =
  let order = Array.init n_physical Fun.id in
  Rng.shuffle (Rng.create seed) order;
  Array.sub order 0 n_logical

(* The circuit on every device qubit, its qubits moved by a random
   placement: what the place and route passes hand a scheduler. *)
let placed_on device seed c =
  let n_physical = Graph.n_vertices (Device.graph device) in
  let placement = random_placement seed ~n_physical ~n_logical:n_physical in
  Circuit.map_qubits (fun q -> placement.(q)) (Test_prop_rivals.widen device c)

let circuits = Proptest.circuit ~max_qubits:4 ~max_gates:40 ()

let outcome f =
  match f () with r -> Ok r | exception (Invalid_argument m | Failure m) -> Error m

let routed (r : Mapping.result) =
  ( List.map
      (fun app -> (app.Gate.gate, Array.to_list app.Gate.qubits))
      (Array.to_list (Circuit.instructions r.Mapping.circuit)),
    Array.to_list r.Mapping.initial,
    Array.to_list r.Mapping.final,
    r.Mapping.n_swaps )

let prop_route_lookahead =
  prop_case ~count:150 "route_lookahead emits exactly what the sweeping router did"
    Proptest.(
      pair
        (pair (int_range 0 (n_topologies - 1)) (int_range 0 1_000_000))
        (pair (int_range 1 10) circuits))
    (fun ((i, seed), (window, c)) ->
      let graph = Device.graph (device_of i) in
      let placement =
        random_placement seed ~n_physical:(Graph.n_vertices graph)
          ~n_logical:(Circuit.n_qubits c)
      in
      let run route = outcome (fun () -> routed (route graph c)) in
      run (Mapping.route_lookahead ~placement ~window) = run (Old.route_lookahead ~placement ~window))

let prop_cqc_route =
  prop_case ~count:100 "cqc-synergy routing emits exactly what the sweeping router did"
    Proptest.(
      pair
        (pair (int_range 0 (n_topologies - 1)) (int_range 0 1_000_000))
        (pair (int_range 0 2) circuits))
    (fun ((i, seed), (k, c)) ->
      let device = device_of i in
      let placed = placed_on device seed c in
      let lambda = [| 0.0; 0.5; 2.0 |].(k) in
      let run route =
        outcome (fun () ->
            let r, conflict_total = route device placed in
            (routed r, conflict_total))
      in
      run (Cqc_synergy.route ~lambda) = run (Old.cqc_route ~lambda))

let metric_bits (m : Schedule.metrics) =
  ( List.map Int64.bits_of_float
      [
        m.Schedule.success; m.Schedule.log10_success; m.Schedule.gate_error;
        m.Schedule.crosstalk_error; m.Schedule.decoherence_error;
        m.Schedule.log10_gate_survival; m.Schedule.log10_crosstalk_survival;
        m.Schedule.log10_decoherence_survival; m.Schedule.total_time;
      ],
    (m.Schedule.depth, m.Schedule.n_gates, m.Schedule.n_two_qubit) )

let pair_bits (a, b) = (Int64.bits_of_float a, Int64.bits_of_float b)

(* Schedules from every registered scheduler on random placements, under
   the producer's coupler model and under tunable couplers of two residual
   ratios; evaluated at both distances, with and without the worst-case
   envelope. *)
let prop_evaluate =
  prop_case ~count:80 "evaluate and step_errors are bit-identical to the unmemoized path"
    Proptest.(
      pair
        (pair (int_range 0 (n_topologies - 1)) (int_range 0 1_000_000))
        (pair (pair (int_range 0 100) (int_range 0 2)) circuits))
    (fun ((i, seed), ((k, coupler), c)) ->
      let device = device_of i in
      let names = Array.of_list (Pass.scheduler_names ()) in
      let algorithm = names.(k mod Array.length names) in
      let ctx = Pass.execute ~algorithm device (placed_on device seed c) in
      let schedule = Pass.Context.schedule_exn ctx in
      let schedule =
        match coupler with
        | 0 -> schedule
        | 1 -> { schedule with Schedule.coupler = Schedule.Tunable_coupler 0.0 }
        | _ -> { schedule with Schedule.coupler = Schedule.Tunable_coupler 0.15 }
      in
      List.for_all
        (fun (worst_case, crosstalk_distance) ->
          metric_bits (Schedule.evaluate ~worst_case ~crosstalk_distance schedule)
          = metric_bits (Old.evaluate ~worst_case ~crosstalk_distance schedule)
          && List.for_all
               (fun step ->
                 pair_bits (Schedule.step_errors ~worst_case ~crosstalk_distance schedule step)
                 = pair_bits (Old.step_errors ~worst_case ~crosstalk_distance schedule step))
               schedule.Schedule.steps)
        [ (false, 1); (true, 1); (false, 2); (true, 2) ])

let prop_vertex_of_edge =
  prop_case ~count:100 "indexed vertex_of_edge agrees with the linear scan on every pair"
    (Proptest.graph ~max_vertices:12 ~edge_prob:0.35 ())
    (fun g ->
      let n = Graph.n_vertices g in
      let _, edges = Line_graph.build g in
      let index = Line_graph.index n edges in
      let ok = ref true in
      for u = -1 to n do
        for v = -1 to n do
          let lookup f = match f (u, v) with i -> Some i | exception Not_found -> None in
          if lookup (Line_graph.vertex_of_edge index) <> lookup (Old.vertex_of_edge edges) then
            ok := false
        done
      done;
      !ok)

let suite = [ prop_route_lookahead; prop_cqc_route; prop_evaluate; prop_vertex_of_edge ]
