type result = {
  circuit : Circuit.t;
  initial : int array;
  final : int array;
  n_swaps : int;
}

let check_fits device circuit =
  if Graph.n_vertices device < Circuit.n_qubits circuit then
    invalid_arg
      (Printf.sprintf "Mapping: device has %d qubits, circuit needs %d"
         (Graph.n_vertices device) (Circuit.n_qubits circuit))

let identity_placement device circuit =
  check_fits device circuit;
  Array.init (Circuit.n_qubits circuit) Fun.id

let degree_placement device circuit =
  check_fits device circuit;
  let n_logical = Circuit.n_qubits circuit in
  let n_physical = Graph.n_vertices device in
  (* Interaction degree of each logical qubit. *)
  let partners = Array.make n_logical 0 in
  List.iter
    (fun (a, b) ->
      partners.(a) <- partners.(a) + 1;
      partners.(b) <- partners.(b) + 1)
    (Circuit.two_qubit_pairs circuit);
  let logical_order =
    List.sort
      (fun a b ->
        match compare partners.(b) partners.(a) with 0 -> compare a b | c -> c)
      (List.init n_logical Fun.id)
  in
  let placement = Array.make n_logical (-1) in
  let taken = Array.make n_physical false in
  let interaction_pairs = Circuit.two_qubit_pairs circuit in
  let placed_partner logical =
    (* A physical neighbour slot next to an already-placed interaction partner. *)
    List.find_map
      (fun (a, b) ->
        let other = if a = logical then Some b else if b = logical then Some a else None in
        match other with
        | Some o when placement.(o) >= 0 ->
          List.find_opt (fun p -> not taken.(p)) (Graph.neighbors device placement.(o))
        | _ -> None)
      interaction_pairs
  in
  let highest_free_degree () =
    let best = ref (-1) in
    for p = 0 to n_physical - 1 do
      if
        (not taken.(p))
        && (!best < 0 || Graph.degree device p > Graph.degree device !best)
      then best := p
    done;
    !best
  in
  List.iter
    (fun logical ->
      let spot =
        match placed_partner logical with Some p -> p | None -> highest_free_degree ()
      in
      placement.(logical) <- spot;
      taken.(spot) <- true)
    logical_order;
  placement

let quality_placement ~quality device circuit =
  check_fits device circuit;
  let n_logical = Circuit.n_qubits circuit in
  let n_physical = Graph.n_vertices device in
  let partners = Array.make n_logical 0 in
  List.iter
    (fun (a, b) ->
      partners.(a) <- partners.(a) + 1;
      partners.(b) <- partners.(b) + 1)
    (Circuit.two_qubit_pairs circuit);
  let logical_order =
    List.sort
      (fun a b -> match compare partners.(b) partners.(a) with 0 -> compare a b | c -> c)
      (List.init n_logical Fun.id)
  in
  let placement = Array.make n_logical (-1) in
  let taken = Array.make n_physical false in
  let interaction_pairs = Circuit.two_qubit_pairs circuit in
  let best_of candidates =
    List.fold_left
      (fun best p ->
        match best with
        | Some b when quality b >= quality p -> best
        | _ -> Some p)
      None candidates
  in
  let neighbour_spot logical =
    let placed_partner_spots =
      List.filter_map
        (fun (a, b) ->
          let other =
            if a = logical then Some b else if b = logical then Some a else None
          in
          match other with
          | Some o when placement.(o) >= 0 -> Some placement.(o)
          | _ -> None)
        interaction_pairs
    in
    best_of
      (List.concat_map
         (fun spot -> List.filter (fun p -> not taken.(p)) (Graph.neighbors device spot))
         placed_partner_spots)
  in
  let best_free () =
    best_of (List.filter (fun p -> not taken.(p)) (List.init n_physical Fun.id))
  in
  List.iter
    (fun logical ->
      let spot =
        match neighbour_spot logical with
        | Some p -> p
        | None -> Option.get (best_free ())
      in
      placement.(logical) <- spot;
      taken.(spot) <- true)
    logical_order;
  placement

let route ?placement device circuit =
  let placement =
    match placement with Some p -> p | None -> identity_placement device circuit
  in
  check_fits device circuit;
  let n_logical = Circuit.n_qubits circuit in
  if Array.length placement <> n_logical then
    invalid_arg "Mapping.route: placement size mismatch";
  let n_physical = Graph.n_vertices device in
  let phys_of_log = Array.copy placement in
  let log_of_phys = Array.make n_physical (-1) in
  Array.iteri
    (fun logical physical ->
      if physical < 0 || physical >= n_physical || log_of_phys.(physical) >= 0 then
        invalid_arg "Mapping.route: placement is not injective into the device";
      log_of_phys.(physical) <- logical)
    phys_of_log;
  let b = Circuit.builder n_physical in
  let n_swaps = ref 0 in
  let swap_physical p q =
    Circuit.add b Gate.Swap [ p; q ];
    incr n_swaps;
    let lp = log_of_phys.(p) and lq = log_of_phys.(q) in
    log_of_phys.(p) <- lq;
    log_of_phys.(q) <- lp;
    if lq >= 0 then phys_of_log.(lq) <- p;
    if lp >= 0 then phys_of_log.(lp) <- q
  in
  Array.iter
    (fun app ->
      match app.Gate.qubits with
      | [| q |] -> Circuit.add b app.Gate.gate [ phys_of_log.(q) ]
      | [| a; bq |] ->
        let pa = phys_of_log.(a) and pb = phys_of_log.(bq) in
        if Graph.mem_edge device pa pb then Circuit.add b app.Gate.gate [ pa; pb ]
        else begin
          match Paths.shortest_path device pa pb with
          | None ->
            invalid_arg
              (Printf.sprintf "Mapping.route: qubits %d and %d are disconnected" pa pb)
          | Some path ->
            (* Move operand [a] along the path until adjacent to [b]. *)
            let rec hop = function
              | p :: (q :: rest2 as rest) ->
                if rest2 = [] then (p, q)
                else begin
                  swap_physical p q;
                  hop rest
                end
              | _ -> assert false
            in
            let p_final, p_target = hop path in
            Circuit.add b app.Gate.gate [ p_final; p_target ]
        end
      | _ -> assert false)
    (Circuit.instructions circuit);
  {
    circuit = Circuit.finish b;
    initial = placement;
    final = Array.copy phys_of_log;
    n_swaps = !n_swaps;
  }

module Frontier = struct
  module Ids = Set.Make (Int)

  type t = {
    instrs : Gate.application array;
    queues : int Queue.t array;  (* per qubit: positions of its unemitted instructions *)
    emitted : bool array;
    mutable ready : Ids.t;  (* positions heading the queue of every operand *)
    mutable first_unemitted : int;
  }

  let head t q = if Queue.is_empty t.queues.(q) then -1 else Queue.peek t.queues.(q)

  let is_ready t i = Array.for_all (fun q -> head t q = i) t.instrs.(i).Gate.qubits

  let create circuit =
    let instrs = Circuit.instructions circuit in
    let queues = Array.init (Circuit.n_qubits circuit) (fun _ -> Queue.create ()) in
    Array.iteri (fun i app -> Array.iter (fun q -> Queue.add i queues.(q)) app.Gate.qubits) instrs;
    let t =
      {
        instrs;
        queues;
        emitted = Array.make (Array.length instrs) false;
        ready = Ids.empty;
        first_unemitted = 0;
      }
    in
    Array.iteri (fun i _ -> if is_ready t i then t.ready <- Ids.add i t.ready) instrs;
    t

  let is_done t = t.first_unemitted = Array.length t.instrs

  (* Mark [i] emitted and return the positions it made ready. *)
  let retire t i =
    t.emitted.(i) <- true;
    t.ready <- Ids.remove i t.ready;
    while t.first_unemitted < Array.length t.instrs && t.emitted.(t.first_unemitted) do
      t.first_unemitted <- t.first_unemitted + 1
    done;
    let operands = t.instrs.(i).Gate.qubits in
    Array.iter (fun q -> ignore (Queue.pop t.queues.(q))) operands;
    Array.fold_left
      (fun fresh q ->
        let j = head t q in
        if j >= 0 && (not (Ids.mem j t.ready)) && is_ready t j then begin
          t.ready <- Ids.add j t.ready;
          j :: fresh
        end
        else fresh)
      [] operands

  (* Emission at position [i] makes ready only the next instructions on
     [i]'s qubits, and those all come after [i] in program order.  So
     visiting the ready positions in ascending order, each newly readied
     position joining the visit, emits the same instructions in the same
     order as sweeping the whole instruction array in program order until
     a sweep emits nothing: a sweep reaches everything an emission readies
     later in the same sweep, and every sweep after the first emits
     nothing, because [emittable] does not change during a flush. *)
  let flush t ~emittable ~emit =
    let rec visit pending =
      match Ids.min_elt_opt pending with
      | None -> ()
      | Some i ->
        let pending = Ids.remove i pending in
        let app = t.instrs.(i) in
        if emittable app then begin
          emit app;
          visit (List.fold_left (fun pending j -> Ids.add j pending) pending (retire t i))
        end
        else visit pending
    in
    visit t.ready

  let ready t = List.map (fun i -> t.instrs.(i)) (Ids.elements t.ready)

  let upcoming t k =
    let rec scan i k acc =
      if k = 0 || i >= Array.length t.instrs then List.rev acc
      else
        let app = t.instrs.(i) in
        if (not t.emitted.(i)) && Array.length app.Gate.qubits = 2 then
          scan (i + 1) (k - 1) (app :: acc)
        else scan (i + 1) k acc
    in
    scan t.first_unemitted k []
end

let route_lookahead ?placement ?(window = 8) device circuit =
  let placement =
    match placement with Some p -> p | None -> identity_placement device circuit
  in
  check_fits device circuit;
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
  let frontier = Frontier.create circuit in
  let b = Circuit.builder n_physical in
  let n_swaps = ref 0 in
  let last_swap = ref (-1, -1) in
  (* executable now: one-qubit gates, and two-qubit gates on coupled qubits *)
  let emittable app =
    match app.Gate.qubits with
    | [| _ |] -> true
    | [| a; bq |] ->
      let d = dist.(phys_of_log.(a)).(phys_of_log.(bq)) in
      if d < 0 then invalid_arg "Mapping.route_lookahead: operands are disconnected" else d = 1
    | _ -> false
  in
  let emit app =
    Circuit.add b app.Gate.gate
      (List.map (fun q -> phys_of_log.(q)) (Array.to_list app.Gate.qubits))
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
  let swap_budget = 4 * Circuit.length circuit * (Paths.diameter device + n_physical + 2) in
  while not (Frontier.is_done frontier) do
    (* flush everything currently executable *)
    Frontier.flush frontier ~emittable ~emit;
    if not (Frontier.is_done frontier) then begin
      if !n_swaps > swap_budget then
        failwith "Mapping.route_lookahead: swap budget exhausted (routing livelock)";
      (* blocked on distant two-qubit gates: pick a SWAP *)
      let front = List.map gate_pair (Frontier.ready frontier) in
      assert (front <> []);
      (* the next [window] two-qubit gates still pending, in program order *)
      let upcoming = List.map gate_pair (Frontier.upcoming frontier window) in
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
    circuit = Circuit.finish b;
    initial = placement;
    final = Array.copy phys_of_log;
    n_swaps = !n_swaps;
  }

let verify device circuit =
  Array.for_all
    (fun app ->
      match app.Gate.qubits with
      | [| a; b |] -> Graph.mem_edge device a b
      | _ -> true)
    (Circuit.instructions circuit)
