(* Differential properties of the compile hot path.  The ready-set router
   flush, the per-evaluation memo of operating points and spectator lists,
   the coupling index, ColorDynamic's per-moment subgraph, the incremental
   ready set of [Pending], and [`Auto] placement's single routing on the
   device's shared distance matrix each replaced an implementation that
   recomputed the same thing over and over; verbatim copies of those
   implementations (module [Old], and [old_auto_place]) are the oracles.
   Every property demands bit-identical output: the same placement, routed
   gates, final permutation and SWAP count, the same colors, components and
   ready lists, the same IEEE-754 bits in every metric and schedule. *)
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

  (* Crosstalk_graph.active_subgraph and components_of_active: each a
     Graph.subgraph walk over every edge of the crosstalk graph, keeping
     coupling ids (inactive couplings isolated). *)
  let active_subgraph t active = Graph.subgraph t.Crosstalk_graph.graph active

  (* Independent regions of one moment: connected components of the active
     subgraph, restricted to the active vertices (subgraph keeps indices stable
     by leaving inactive vertices isolated, so their singletons are dropped).
     Ordering follows Graph.components — a pure function of the moment. *)
  let components_of_active t active =
    let sub = Graph.subgraph t.Crosstalk_graph.graph active in
    let is_active = Array.make (Graph.n_vertices t.Crosstalk_graph.graph) false in
    List.iter (fun v -> is_active.(v) <- true) active;
    List.filter
      (function [ v ] -> is_active.(v) | _ -> true)
      (Graph.components sub)

  (* Pending: its own per-qubit queues, and a ready set rebuilt and sorted
     on every call. *)
  module Pending = struct
    type t = {
      instrs : Gate.application array;
      crit : int array;
      queues : int Queue.t array;  (* per qubit: gate ids in program order *)
      mutable remaining : int;
    }

    let create circuit =
      let instrs = Circuit.instructions circuit in
      let queues = Array.init (Circuit.n_qubits circuit) (fun _ -> Queue.create ()) in
      Array.iter
        (fun app -> Array.iter (fun q -> Queue.add app.Gate.id queues.(q)) app.Gate.qubits)
        instrs;
      {
        instrs;
        crit = Layers.criticality circuit;
        queues;
        remaining = Array.length instrs;
      }

    let is_empty t = t.remaining = 0

    let n_remaining t = t.remaining

    let is_ready t app =
      Array.for_all
        (fun q -> (not (Queue.is_empty t.queues.(q))) && Queue.peek t.queues.(q) = app.Gate.id)
        app.Gate.qubits

    let ready t =
      let module ISet = Set.Make (Int) in
      let candidates =
        Array.fold_left
          (fun acc queue ->
            if Queue.is_empty queue then acc else ISet.add (Queue.peek queue) acc)
          ISet.empty t.queues
      in
      let apps =
        List.filter (fun app -> is_ready t app)
          (List.map (fun id -> t.instrs.(id)) (ISet.elements candidates))
      in
      List.sort
        (fun a b ->
          match compare t.crit.(b.Gate.id) t.crit.(a.Gate.id) with
          | 0 -> compare a.Gate.id b.Gate.id
          | c -> c)
        apps

    let criticality t app = t.crit.(app.Gate.id)

    let schedule t app =
      if not (is_ready t app) then
        invalid_arg
          (Printf.sprintf "Pending.schedule: gate %d is not ready (dependency violation)"
             app.Gate.id);
      Array.iter (fun q -> ignore (Queue.pop t.queues.(q))) app.Gate.qubits;
      t.remaining <- t.remaining - 1
  end

  (* Color_dynamic.run on the two functions and the Pending above, with
     per-component solves fanned out through Pool.map. *)
  let color_dynamic_run ?(crosstalk_distance = 1) ?(max_colors = None) ?(conflict_threshold = 4)
      ?(colorer = Coloring.welsh_powell) ?(warm_start = false) ?(decompose = false)
      device circuit =
    (match max_colors with
    | Some k when k < 1 -> invalid_arg "Color_dynamic.run: max_colors must be >= 1"
    | _ -> ());
    if conflict_threshold < 1 then invalid_arg "Color_dynamic.run: conflict_threshold must be >= 1";
    let effective_threshold =
      match max_colors with
      | Some k -> min conflict_threshold k
      | None -> conflict_threshold
    in
    let idle_freqs = Freq_alloc.idle_per_qubit device in
    let xg = Crosstalk_graph.build ~distance:crosstalk_distance (Device.graph device) in
    let pending = Pending.create circuit in
    let steps = ref [] in
    let cycles = ref 0 in
    let max_colors_used = ref 0 in
    let postponed = ref 0 in
    let min_delta = ref infinity in
    let components = ref 0 in
    let component_max_size = ref 0 in
    let size_histogram : (int, int) Hashtbl.t = Hashtbl.create 16 in
    let component_solves = ref 0 in
    let warm_hit_count = ref 0 in
    let warm_miss_count = ref 0 in
    (* previous moment's interaction witness, threaded as the next warm seed *)
    let prev_witness = ref None in
    while not (Pending.is_empty pending) do
      incr cycles;
      (* Lines 10-16: select gates for this cycle, most critical first,
         postponing two-qubit gates with too many active crosstalk
         neighbours. *)
      let used = Array.make (Device.n_qubits device) false in
      let chosen = ref [] in
      let active = ref [] in
      List.iter
        (fun app ->
          let free = Array.for_all (fun q -> not used.(q)) app.Gate.qubits in
          if free then begin
            let accept =
              match app.Gate.qubits with
              | [| a; b |] ->
                let v = Crosstalk_graph.vertex_of_pair xg (a, b) in
                if Crosstalk_graph.conflict_count xg v !active < effective_threshold then begin
                  active := v :: !active;
                  true
                end
                else begin
                  incr postponed;
                  false
                end
              | _ -> true
            in
            if accept then begin
              Array.iter (fun q -> used.(q) <- true) app.Gate.qubits;
              chosen := app :: !chosen
            end
          end)
        (Pending.ready pending);
      (* Lines 17-19: color the active subgraph of the crosstalk graph. *)
      let subgraph = active_subgraph xg !active in
      let raw_coloring = colorer subgraph in
      (* Compact the colors appearing on active vertices to 0..k-1, largest
         class first so a color cap keeps the busiest classes. *)
      let class_size = Hashtbl.create 8 in
      List.iter
        (fun v ->
          let c = raw_coloring.(v) in
          Hashtbl.replace class_size c (1 + Option.value ~default:0 (Hashtbl.find_opt class_size c)))
        !active;
      let classes_by_size =
        List.sort
          (fun (c1, n1) (c2, n2) -> match compare n2 n1 with 0 -> compare c1 c2 | c -> c)
          (Hashtbl.fold (fun c n acc -> (c, n) :: acc) class_size [])
      in
      let compact = Hashtbl.create 8 in
      List.iteri (fun i (c, _) -> Hashtbl.replace compact c i) classes_by_size;
      (* Apply the color cap: postpone gates whose compact color exceeds it. *)
      let cap = match max_colors with Some k -> k | None -> max_int in
      let keep_gate app =
        match app.Gate.qubits with
        | [| a; b |] ->
          let v = Crosstalk_graph.vertex_of_pair xg (a, b) in
          let c = Hashtbl.find compact raw_coloring.(v) in
          if c < cap then true
          else begin
            incr postponed;
            false
          end
        | _ -> true
      in
      let gates = List.filter keep_gate (List.rev !chosen) in
      assert (gates <> []);
      (* surviving active vertices and their color multiplicities *)
      let survivors =
        List.filter_map
          (fun app ->
            match app.Gate.qubits with
            | [| a; b |] -> Some (Crosstalk_graph.vertex_of_pair xg (a, b))
            | _ -> None)
          gates
      in
      let n_colors =
        List.fold_left (fun acc v -> max acc (1 + Hashtbl.find compact raw_coloring.(v))) 0 survivors
      in
      max_colors_used := max !max_colors_used n_colors;
      (* Line 20: map colors to interaction frequencies via the solver. *)
      let multiplicity = Array.make (max n_colors 1) 0 in
      List.iter
        (fun v ->
          let c = Hashtbl.find compact raw_coloring.(v) in
          multiplicity.(c) <- multiplicity.(c) + 1)
        survivors;
      (* Independent regions of the moment: bookkeeping always (the trace
         reports decomposability even when allocation stays global), allocation
         fan-out only under [decompose]. *)
      let comps = components_of_active xg survivors in
      List.iter
        (fun comp ->
          let size = List.length comp in
          incr components;
          if size > !component_max_size then component_max_size := size;
          Hashtbl.replace size_histogram size
            (1 + Option.value ~default:0 (Hashtbl.find_opt size_histogram size)))
        comps;
      let color_of v = Hashtbl.find compact raw_coloring.(v) in
      let freq_of_gate =
        if n_colors = 0 then fun _ -> Step_builder.interaction_center device
        else if decompose && List.length comps > 1 then begin
          (* Per-component allocation: each component's color set is remapped
             dense (ascending) and solved as its own small complete-graph
             problem — a pool task whose memo key is the component's color
             count and order, so recurring fragments hit the cache.  Results
             merge in component order; Pool.map stores by index, so the merged
             frequencies are byte-identical at any job count. *)
          let cells =
            List.map
              (fun comp ->
                let cols =
                  List.sort_uniq compare (List.map color_of comp)
                in
                let local_of_col = Hashtbl.create 8 in
                List.iteri (fun i c -> Hashtbl.replace local_of_col c i) cols;
                let mult = Array.make (List.length cols) 0 in
                List.iter
                  (fun v ->
                    let i = Hashtbl.find local_of_col (color_of v) in
                    mult.(i) <- mult.(i) + 1)
                  comp;
                (comp, local_of_col, mult))
              comps
          in
          let assignments =
            Pool.map
              (fun (_, _, mult) ->
                Freq_alloc.interaction device ~n_colors:(Array.length mult)
                  ~multiplicity:mult)
              cells
          in
          component_solves := !component_solves + List.length comps;
          let freq_of_vertex = Hashtbl.create 16 in
          List.iter2
            (fun (comp, local_of_col, _) (assignment : Freq_alloc.assignment) ->
              if assignment.Freq_alloc.delta < !min_delta then
                min_delta := assignment.Freq_alloc.delta;
              List.iter
                (fun v ->
                  Hashtbl.replace freq_of_vertex v
                    assignment.Freq_alloc.freqs.(Hashtbl.find local_of_col (color_of v)))
                comp)
            cells assignments;
          fun app ->
            match app.Gate.qubits with
            | [| a; b |] ->
              Hashtbl.find freq_of_vertex (Crosstalk_graph.vertex_of_pair xg (a, b))
            | _ -> assert false
        end
        else begin
          let warm = if warm_start then !prev_witness else None in
          let warm_used = ref false in
          let assignment =
            Freq_alloc.interaction ?warm ~warm_used device ~n_colors ~multiplicity
          in
          (match warm with
          | Some _ -> if !warm_used then incr warm_hit_count else incr warm_miss_count
          | None -> ());
          if warm_start then prev_witness := Some assignment.Freq_alloc.freqs;
          incr component_solves;
          if assignment.Freq_alloc.delta < !min_delta then
            min_delta := assignment.Freq_alloc.delta;
          fun app ->
            match app.Gate.qubits with
            | [| a; b |] ->
              let v = Crosstalk_graph.vertex_of_pair xg (a, b) in
              assignment.Freq_alloc.freqs.(color_of v)
            | _ -> assert false
        end
      in
      List.iter (Pending.schedule pending) gates;
      steps := Step_builder.make device ~idle_freqs ~freq_of_gate gates :: !steps
    done;
    let schedule =
      {
        Schedule.device;
        algorithm = "color-dynamic";
        steps = List.rev !steps;
        idle_freqs;
        coupler = Schedule.Fixed_coupler;
      }
    in
    let component_sizes =
      String.concat " "
        (List.map
           (fun (size, count) -> Printf.sprintf "%d:%d" size count)
           (List.sort compare (Hashtbl.fold (fun s c acc -> (s, c) :: acc) size_histogram [])))
    in
    ( schedule,
      {
        Color_dynamic.cycles = !cycles;
        max_colors_used = !max_colors_used;
        postponed = !postponed;
        min_delta = !min_delta;
        components = !components;
        component_max_size = !component_max_size;
        component_sizes;
        component_solves = !component_solves;
        warm_hits = !warm_hit_count;
        warm_misses = !warm_miss_count;
      } )
end

(* Pass.place under [`Auto], as it was before the SWAP-free shortcut: route
   both the identity and the degree placement, each routing computing its
   own distance matrix, and keep degree only when it inserts strictly fewer
   SWAPs.  Each registered router by name, as the route pass called it on
   the graph: lookahead is the sweeping copy above, so its matrix and
   diameter come from [Paths.all_pairs] and [Paths.diameter]. *)
let old_routers =
  [
    ("lookahead", fun graph ~placement c -> Old.route_lookahead ~placement graph c);
    ("greedy", fun graph ~placement c -> Mapping.route ~placement graph c);
  ]

let old_auto_place route graph circuit =
  let identity = Mapping.identity_placement graph circuit in
  let degree = Mapping.degree_placement graph circuit in
  let by_identity = route graph ~placement:identity circuit in
  let by_degree = route graph ~placement:degree circuit in
  if by_degree.Mapping.n_swaps < by_identity.Mapping.n_swaps then (degree, by_degree)
  else (identity, by_identity)

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

(* The router reads the device's shared matrix; the oracle builds its own. *)
let prop_route_lookahead =
  prop_case ~count:150 "route_lookahead emits exactly what the sweeping router did"
    Proptest.(
      pair
        (pair (int_range 0 (n_topologies - 1)) (int_range 0 1_000_000))
        (pair (int_range 1 10) circuits))
    (fun ((i, seed), (window, c)) ->
      let device = device_of i in
      let graph = Device.graph device in
      let placement =
        random_placement seed ~n_physical:(Graph.n_vertices graph)
          ~n_logical:(Circuit.n_qubits c)
      in
      let run route = outcome (fun () -> routed (route graph c)) in
      run (Mapping.route_lookahead ~placement ~window ~dist:(Device.distances device))
      = run (Old.route_lookahead ~placement ~window))

(* Cqc_synergy.route reads [Device.distances]; the oracle builds its own. *)
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

let test_device_distances () =
  Array.iter
    (fun device ->
      check_true
        (Printf.sprintf "%s distances" (Device.topology device).Topology.name)
        (Device.distances device = Paths.all_pairs (Device.graph device)))
    (Array.init n_topologies device_of)

(* Circuits for the placement property, by [source]: 0, a random circuit,
   for which identity mostly needs SWAPs, so both trials run; 1, XEB on the
   device's own couplings, for which identity never needs one, so the
   shortcut runs; 2, a small benchmark program, whose chains and stars land
   on both sides. *)
let placement_circuit device (source, (seed, c)) =
  let open Fastsc_benchmarks in
  let graph = Device.graph device in
  let rng = Rng.create seed in
  match source with
  | 0 -> c
  | 1 ->
    Xeb.circuit rng ~graph ~classes:(Baseline_gmon.edge_classes device)
      ~cycles:(1 + Rng.int rng 4) ()
  | _ -> (
    let n = 2 + Rng.int rng (min (Graph.n_vertices graph) 6 - 1) in
    match Rng.int rng 4 with
    | 0 -> Ising.circuit ~steps:(1 + Rng.int rng 2) ~n ()
    | 1 -> Bv.circuit ~n ()
    | 2 -> Qaoa.circuit rng ~n ()
    | _ -> Ghz.circuit ~n ())

(* [Pass.place] and [Pass.route] against [old_auto_place] under each
   registered router.  The one difference allowed: identity routes without a
   SWAP, so the new pass never tries degree, while the oracle's degree trial
   raised. *)
let prop_auto_place =
  prop_case ~count:200 "Auto placement keeps what routing both candidates kept"
    Proptest.(
      pair
        (pair (int_range 0 (n_topologies - 1)) (int_range 0 (List.length old_routers - 1)))
        (pair (int_range 0 2) (pair (int_range 0 1_000_000) circuits)))
    (fun ((i, k), source) ->
      let device = device_of i in
      let graph = Device.graph device in
      let circuit = placement_circuit device source in
      let router, old_route = List.nth old_routers k in
      let placed (placement, r) = (Array.to_list placement, routed r) in
      let got =
        outcome (fun () ->
            let options = { Pass.default_options with Pass.router } in
            let ctx =
              Pass.run_pipeline [ Pass.place; Pass.route ]
                (Pass.Context.create ~options device circuit)
            in
            placed (Option.get ctx.Pass.Context.placement, Pass.Context.routed_exn ctx))
      in
      let want = outcome (fun () -> placed (old_auto_place old_route graph circuit)) in
      let swap_free_identity =
        let identity = Mapping.identity_placement graph circuit in
        match old_route graph ~placement:identity circuit with
        | r when r.Mapping.n_swaps = 0 -> Some (placed (identity, r))
        | _ | (exception (Invalid_argument _ | Failure _)) -> None
      in
      (* XEB gates act on couplings only: every such case takes the shortcut *)
      (fst source <> 1 || swap_free_identity <> None)
      && (got = want
         || match (want, swap_free_identity) with Error _, Some r -> got = Ok r | _ -> false))

let test_routers_covered () =
  Alcotest.(check (list string))
    "the placement property runs every router" Pass.router_names
    (List.map fst old_routers)

(* Identity needs one SWAP here and degree none, so degree wins: the case a
   shortcut at one SWAP would get wrong. *)
let test_auto_one_swap () =
  let device = Device.create ~seed:2020 (Topology.grid 2 2) in
  let graph = Device.graph device in
  let circuit = Fastsc_benchmarks.Ising.circuit ~n:4 () in
  let swaps placement =
    let dist = Device.distances device in
    (Mapping.route_lookahead ~placement ~dist graph circuit).Mapping.n_swaps
  in
  check_int "identity" 1 (swaps (Mapping.identity_placement graph circuit));
  check_int "degree" 0 (swaps (Mapping.degree_placement graph circuit));
  let ctx = Pass.run_pipeline [ Pass.place; Pass.route ] (Pass.Context.create device circuit) in
  check_int "auto" 0 (Pass.Context.routed_exn ctx).Mapping.n_swaps;
  check_true "auto keeps degree"
    (ctx.Pass.Context.placement = Some (Mapping.degree_placement graph circuit))

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

(* A random set of couplings of a crosstalk graph, in random order: each
   coupling is in with a probability drawn from [seed] too. *)
let random_active xg seed =
  let rng = Rng.create seed in
  let n = Graph.n_vertices xg.Crosstalk_graph.graph in
  let p = Rng.float rng in
  let order = Array.init n Fun.id in
  Rng.shuffle rng order;
  List.filter (fun _ -> Rng.float rng < p) (Array.to_list order)

let colorers = [ Coloring.welsh_powell; Coloring.dsatur; Coloring.natural ]

let prop_moment_subgraph =
  prop_case ~count:150 "per-moment subgraph colors and splits like the full-graph subgraph"
    Proptest.(
      pair (pair (int_range 0 (n_topologies - 1)) (int_range 1 2)) (int_range 0 1_000_000))
    (fun ((i, distance), seed) ->
      let xg = Crosstalk_graph.build ~distance (Lazy.force topologies).(i).Topology.graph in
      let active = random_active xg seed in
      let sub, couplings = Crosstalk_graph.moment_subgraph xg active in
      couplings = Array.of_list (List.sort compare active)
      && List.for_all
           (fun colorer ->
             let local = colorer sub and full = colorer (Old.active_subgraph xg active) in
             Array.for_all2 (fun v c -> full.(v) = c) couplings local)
           colorers
      && List.map (List.map (fun i -> couplings.(i))) (Graph.components sub)
         = Old.components_of_active xg active)

(* Both Pendings side by side: after every step the same ready list, and
   each attempt to schedule a gate that is not ready (an unscheduled gate
   outside the ready list, or one already scheduled) fails the same way. *)
let prop_pending =
  prop_case ~count:150 "Pending on the frontier serves what the rescanning Pending did"
    Proptest.(pair (int_range 0 1_000_000) (Proptest.circuit ~max_qubits:6 ~max_gates:60 ()))
    (fun (seed, c) ->
      let rng = Rng.create seed in
      let instrs = Circuit.instructions c in
      let p = Pending.create c and o = Old.Pending.create c in
      let ids apps = List.map (fun app -> app.Gate.id) apps in
      let same = ref true in
      let check b = if not b then same := false in
      while !same && not (Old.Pending.is_empty o) do
        let ready = Old.Pending.ready o in
        check (ids (Pending.ready p) = ids ready);
        check (Pending.n_remaining p = Old.Pending.n_remaining o);
        check (List.for_all (fun a -> Pending.criticality p a = Old.Pending.criticality o a) ready);
        let blocked = List.filter (fun a -> not (List.memq a ready)) (Array.to_list instrs) in
        if blocked <> [] then begin
          let app = List.nth blocked (Rng.int rng (List.length blocked)) in
          check
            (outcome (fun () -> Pending.schedule p app)
            = outcome (fun () -> Old.Pending.schedule o app))
        end;
        let app = List.nth ready (Rng.int rng (List.length ready)) in
        Pending.schedule p app;
        Old.Pending.schedule o app
      done;
      !same && Pending.is_empty p && Pending.ready p = [])

(* A dense random native circuit on every device qubit: CZs on random
   couplings and single-qubit gates, so moments hold several conflicting
   couplings and the color cap has something to drop. *)
let dense_native device seed =
  let rng = Rng.create seed in
  let graph = Device.graph device in
  let couplings = Array.of_list (Graph.edges graph) in
  let b = Circuit.builder (Graph.n_vertices graph) in
  for _ = 1 to 10 + Rng.int rng 50 do
    if Rng.int rng 4 = 0 then
      Circuit.add b (Rng.choose rng [| Gate.H; Gate.X; Gate.Rz 0.3 |])
        [ Rng.int rng (Graph.n_vertices graph) ]
    else begin
      let u, v = Rng.choose rng couplings in
      if Rng.bool rng then Circuit.add b Gate.Cz [ u; v ] else Circuit.add b Gate.Cz [ v; u ]
    end
  done;
  Circuit.finish b

let schedule_bits (s : Schedule.t) =
  ( s.Schedule.algorithm,
    Array.map Int64.bits_of_float s.Schedule.idle_freqs,
    List.map
      (fun (step : Schedule.step) ->
        ( List.map
            (fun app -> (app.Gate.id, app.Gate.gate, Array.to_list app.Gate.qubits))
            step.Schedule.gates,
          Array.map Int64.bits_of_float step.Schedule.freqs,
          step.Schedule.interacting,
          Int64.bits_of_float step.Schedule.duration ))
      s.Schedule.steps )

let stats_bits (st : Color_dynamic.stats) =
  (Int64.bits_of_float st.Color_dynamic.min_delta, { st with Color_dynamic.min_delta = 0.0 })

(* The zoo plus two larger meshes: the color cap drops couplings only when
   a colorer uses more colors than the cap on a moment that the conflict
   threshold (at most the cap) already thinned, which takes a wide moment
   and mostly the natural order. *)
let cd_devices =
  lazy
    (Array.map (Device.create ~seed:2020)
       (Array.append (Lazy.force topologies) [| Topology.grid 4 4; Topology.grid 5 5 |]))

let prop_color_dynamic =
  prop_case ~count:60 "Color_dynamic.run matches the full-graph run in every bit and stat"
    Proptest.(
      pair
        (pair (int_range 0 (Array.length (Lazy.force cd_devices) - 1)) (int_range 0 2))
        (int_range 0 1_000_000))
    (fun ((i, k), seed) ->
      let device = (Lazy.force cd_devices).(i) in
      let native = dense_native device seed in
      let colorer = List.nth colorers k in
      List.for_all
        (fun (max_colors, decompose, warm_start, crosstalk_distance) ->
          let run f =
            outcome (fun () ->
                let s, st =
                  f ?crosstalk_distance:(Some crosstalk_distance) ?max_colors:(Some max_colors)
                    ?conflict_threshold:None ?colorer:(Some colorer) ?warm_start:(Some warm_start)
                    ?decompose:(Some decompose) device native
                in
                (schedule_bits s, stats_bits st))
          in
          run Color_dynamic.run = run Old.color_dynamic_run)
        (List.concat_map
           (fun cap ->
             List.concat_map
               (fun decompose ->
                 List.concat_map
                   (fun warm -> List.map (fun d -> (cap, decompose, warm, d)) [ 1; 2 ])
                   [ false; true ])
               [ false; true ])
           [ None; Some 1; Some 2; Some 3 ]))

let suite =
  [
    prop_route_lookahead;
    prop_cqc_route;
    Alcotest.test_case "device distances are all-pairs" `Quick test_device_distances;
    prop_auto_place;
    Alcotest.test_case "placement property covers every router" `Quick test_routers_covered;
    Alcotest.test_case "auto keeps degree at one identity swap" `Quick test_auto_one_swap;
    prop_evaluate;
    prop_vertex_of_edge;
    prop_moment_subgraph;
    prop_pending;
    prop_color_dynamic;
  ]
