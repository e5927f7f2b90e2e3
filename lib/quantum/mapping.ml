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
  (* [state.(i)] of instruction [i]: [waiting] until it heads the queue of
     every operand, then non-negative while ready (outside a flush, its
     index in [ready]), then [emitted]. *)
  let waiting = -1

  let emitted = -2

  type t = {
    instrs : Gate.application array;
    queues : int array array;  (* per qubit: its instructions' positions, in program order *)
    heads : int array;  (* per qubit: index in its queue of its first unemitted position *)
    state : int array;
    mutable ready : int array;  (* the [n_ready] ready positions; ascending when [sorted] *)
    mutable spare : int array;  (* what a flush rebuilds [ready] into *)
    mutable n_ready : int;
    mutable sorted : bool;
    heap : int array;  (* a flush's min-heap of the positions it readied *)
    mutable first_unemitted : int;
  }

  let head t q =
    let queue = t.queues.(q) and k = t.heads.(q) in
    if k < Array.length queue then queue.(k) else -1

  let heads_all t i =
    let qubits = t.instrs.(i).Gate.qubits in
    let all = ref true in
    for k = 0 to Array.length qubits - 1 do
      if head t qubits.(k) <> i then all := false
    done;
    !all

  let push_ready t i =
    let n = t.n_ready in
    if n > 0 && t.ready.(n - 1) > i then t.sorted <- false;
    t.ready.(n) <- i;
    t.state.(i) <- n;
    t.n_ready <- n + 1

  let sort_ready t =
    if not t.sorted then begin
      let ids = Array.sub t.ready 0 t.n_ready in
      Array.sort Int.compare ids;
      Array.iteri
        (fun k i ->
          t.ready.(k) <- i;
          t.state.(i) <- k)
        ids;
      t.sorted <- true
    end

  let create circuit =
    let instrs = Circuit.instructions circuit in
    let n_qubits = Circuit.n_qubits circuit in
    let lengths = Array.make n_qubits 0 in
    Array.iter
      (fun app -> Array.iter (fun q -> lengths.(q) <- lengths.(q) + 1) app.Gate.qubits)
      instrs;
    let queues = Array.map (fun n -> Array.make n 0) lengths in
    let heads = Array.make n_qubits 0 in
    Array.iteri
      (fun i app ->
        Array.iter
          (fun q ->
            queues.(q).(heads.(q)) <- i;
            heads.(q) <- heads.(q) + 1)
          app.Gate.qubits)
      instrs;
    Array.fill heads 0 n_qubits 0;
    (* ready instructions never share a qubit, so at most [n_qubits] *)
    let t =
      {
        instrs;
        queues;
        heads;
        state = Array.make (Array.length instrs) waiting;
        ready = Array.make n_qubits 0;
        spare = Array.make n_qubits 0;
        n_ready = 0;
        sorted = true;
        heap = Array.make n_qubits 0;
        first_unemitted = 0;
      }
    in
    for q = 0 to n_qubits - 1 do
      let i = head t q in
      if i >= 0 && t.state.(i) = waiting && heads_all t i then push_ready t i
    done;
    sort_ready t;
    t

  let is_done t = t.first_unemitted = Array.length t.instrs

  (* Mark [i], already taken out of [ready], emitted, and pass [readied]
     each instruction that became ready because of it; [readied] must take
     it out of [waiting]. *)
  let advance t i readied =
    t.state.(i) <- emitted;
    while t.first_unemitted < Array.length t.instrs && t.state.(t.first_unemitted) = emitted do
      t.first_unemitted <- t.first_unemitted + 1
    done;
    let qubits = t.instrs.(i).Gate.qubits in
    for k = 0 to Array.length qubits - 1 do
      let q = qubits.(k) in
      t.heads.(q) <- t.heads.(q) + 1
    done;
    for k = 0 to Array.length qubits - 1 do
      let j = head t qubits.(k) in
      if j >= 0 && t.state.(j) = waiting && heads_all t j then readied j
    done

  let retire t i =
    if i < 0 || i >= Array.length t.instrs || t.state.(i) < 0 then
      invalid_arg (Printf.sprintf "Mapping.Frontier.retire: instruction %d is not ready" i);
    (* the last ready position moves into [i]'s slot *)
    let k = t.state.(i) and last = t.n_ready - 1 in
    if k < last then begin
      let j = t.ready.(last) in
      t.ready.(k) <- j;
      t.state.(j) <- k;
      t.sorted <- false
    end;
    t.n_ready <- last;
    let fresh = ref [] in
    advance t i (fun j ->
        push_ready t j;
        fresh := j :: !fresh);
    !fresh

  (* The min-heap [heap.(0) .. heap.(n - 1)]: [x] enters at slot [k]. *)
  let rec sift_up heap k x =
    let parent = (k - 1) / 2 in
    if k > 0 && heap.(parent) > x then begin
      heap.(k) <- heap.(parent);
      sift_up heap parent x
    end
    else heap.(k) <- x

  let rec sift_down heap n k x =
    let c = (2 * k) + 1 in
    let c = if c + 1 < n && heap.(c + 1) < heap.(c) then c + 1 else c in
    if c < n && heap.(c) < x then begin
      heap.(k) <- heap.(c);
      sift_down heap n c x
    end
    else heap.(k) <- x

  (* Emission at position [i] makes ready only the next instructions on
     [i]'s qubits, and those all come after [i] in program order.  So
     visiting the ready positions in ascending order, each newly readied
     position joining the visit, emits the same instructions in the same
     order as sweeping the whole instruction array in program order until
     a sweep emits nothing: a sweep reaches everything an emission readies
     later in the same sweep, and every sweep after the first emits
     nothing, because [emittable] does not change during a flush.  The
     visit merges the sorted ready positions with a heap of the readied
     ones, and writes the refused back in the same ascending order. *)
  let flush t ~emittable ~emit =
    sort_ready t;
    let old = t.ready and n_old = t.n_ready in
    t.ready <- t.spare;
    t.spare <- old;
    t.n_ready <- 0;
    let heap = t.heap and n_heap = ref 0 and next = ref 0 in
    let readied j =
      t.state.(j) <- 0;
      sift_up heap !n_heap j;
      incr n_heap
    in
    while !next < n_old || !n_heap > 0 do
      let i =
        if !n_heap = 0 || (!next < n_old && old.(!next) < heap.(0)) then begin
          incr next;
          old.(!next - 1)
        end
        else begin
          let top = heap.(0) in
          decr n_heap;
          sift_down heap !n_heap 0 heap.(!n_heap);
          top
        end
      in
      let app = t.instrs.(i) in
      if emittable app then begin
        emit app;
        advance t i readied
      end
      else push_ready t i
    done

  let ready t =
    sort_ready t;
    List.init t.n_ready (fun k -> t.instrs.(t.ready.(k)))

  let upcoming t k =
    let rec scan i k acc =
      if k = 0 || i >= Array.length t.instrs then List.rev acc
      else
        let app = t.instrs.(i) in
        if t.state.(i) <> emitted && Array.length app.Gate.qubits = 2 then
          scan (i + 1) (k - 1) (app :: acc)
        else scan (i + 1) k acc
    in
    scan t.first_unemitted k []
end

type pressure = {
  weight : float;
  conflicts : (int * int) list -> int * int -> int;
  mutable total : int;
}

(* Seeded fault for the verification harness (DESIGN.md §11): among
   equally scored SWAP candidates, keep the last instead of the first. *)
let fault_tie_last = Fault.enabled "route-tie-last"

(* The summed distance between the physical qubits of each two-qubit
   instruction's operands. *)
let rec span_sum dist phys_of_log acc = function
  | [] -> acc
  | app :: rest ->
    let qubits = app.Gate.qubits in
    span_sum dist phys_of_log
      (acc + dist.(phys_of_log.(qubits.(0))).(phys_of_log.(qubits.(1))))
      rest

let route_lookahead ?placement ?(window = 8) ?pressure ~dist device circuit =
  let placement =
    match placement with Some p -> p | None -> identity_placement device circuit
  in
  check_fits device circuit;
  let n_logical = Circuit.n_qubits circuit in
  if Array.length placement <> n_logical then
    invalid_arg "Mapping.route_lookahead: placement size mismatch";
  let n_physical = Graph.n_vertices device in
  if Array.length dist <> n_physical then
    invalid_arg "Mapping.route_lookahead: distance matrix does not match the device";
  let phys_of_log = Array.copy placement in
  let log_of_phys = Array.make n_physical (-1) in
  Array.iteri
    (fun logical physical ->
      if physical < 0 || physical >= n_physical || log_of_phys.(physical) >= 0 then
        invalid_arg "Mapping.route_lookahead: placement is not injective into the device";
      log_of_phys.(physical) <- logical)
    phys_of_log;
  let neighbors = Array.init n_physical (fun p -> Array.of_list (Graph.neighbors device p)) in
  (* a SWAP on the coupling [(p, q)], [p < q], is coded [p * n_physical + q],
     so ascending codes are ascending pairs *)
  let code p q = (min p q * n_physical) + max p q in
  (* every front gate's operands' couplings; front gates share no qubit *)
  let candidates =
    Array.make (n_logical * Array.fold_left (fun m nb -> max m (Array.length nb)) 0 neighbors) 0
  in
  let frontier = Frontier.create circuit in
  let b = Circuit.builder n_physical in
  let n_swaps = ref 0 in
  let last_swap = ref (-1) in
  (* [pressure]'s burst (mapping.mli); [fresh] until this flush emits *)
  let burst = ref [] and fresh = ref false in
  let join_burst p q = if Option.is_some pressure then burst := (min p q, max p q) :: !burst in
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
    if !fresh then (burst := []; fresh := false);
    match app.Gate.qubits with
    | [| a |] -> Circuit.add b app.Gate.gate [ phys_of_log.(a) ]
    | qubits ->
      let p = phys_of_log.(qubits.(0)) and q = phys_of_log.(qubits.(1)) in
      Circuit.add b app.Gate.gate [ p; q ];
      join_burst p q
  in
  let swap p q =
    let lp = log_of_phys.(p) and lq = log_of_phys.(q) in
    log_of_phys.(p) <- lq;
    log_of_phys.(q) <- lp;
    if lq >= 0 then phys_of_log.(lq) <- p;
    if lp >= 0 then phys_of_log.(lp) <- q
  in
  let apply_swap p q =
    Option.iter (fun pr -> pr.total <- pr.total + pr.conflicts !burst (min p q, max p q)) pressure;
    Circuit.add b Gate.Swap [ p; q ];
    incr n_swaps;
    join_burst p q;
    last_swap := code p q;
    swap p q
  in
  let swap_budget = 4 * Circuit.length circuit * (Paths.matrix_diameter dist + n_physical + 2) in
  while not (Frontier.is_done frontier) do
    (* flush everything currently executable *)
    fresh := true;
    Frontier.flush frontier ~emittable ~emit;
    if not (Frontier.is_done frontier) then begin
      if !n_swaps > swap_budget then
        failwith "Mapping.route_lookahead: swap budget exhausted (routing livelock)";
      (* blocked on distant two-qubit gates: pick a SWAP *)
      let front = Frontier.ready frontier in
      assert (front <> []);
      (* the next [window] two-qubit gates still pending, in program order *)
      let upcoming = Frontier.upcoming frontier window in
      (* integer distances sum exactly, so this is the float sum term by term *)
      let score () =
        float_of_int (span_sum dist phys_of_log 0 front)
        +. (0.5 *. float_of_int (span_sum dist phys_of_log 0 upcoming))
      in
      let current = score () in
      (* candidate SWAPs: device edges touching a front-gate operand *)
      let n = ref 0 in
      List.iter
        (fun app ->
          let qubits = app.Gate.qubits in
          for k = 0 to 1 do
            let p = phys_of_log.(qubits.(k)) in
            let nb = neighbors.(p) in
            for m = 0 to Array.length nb - 1 do
              candidates.(!n) <- code p nb.(m);
              incr n
            done
          done)
        front;
      let codes = Array.sub candidates 0 !n in
      Array.sort Int.compare codes;
      (* the first candidate of least score, each distinct coupling once,
         the last SWAP excluded; [best] is -1 while there is none *)
      let best = ref (-1) and best_score = ref 0.0 in
      Array.iteri
        (fun k c ->
          if (k = 0 || codes.(k - 1) <> c) && c <> !last_swap then begin
            (* evaluate the score with the swap virtually applied *)
            let p = c / n_physical and q = c mod n_physical in
            swap p q;
            let s = score () in
            swap p q;
            let s =
              match pressure with
              | Some pr -> s +. (pr.weight *. float_of_int (pr.conflicts !burst (p, q)))
              | None -> s
            in
            let keep = if fault_tie_last then !best_score < s else !best_score <= s in
            if !best < 0 || not keep then begin
              best := c;
              best_score := s
            end
          end)
        codes;
      if !best >= 0 && !best_score < current -. 1e-9 then
        apply_swap (!best / n_physical) (!best mod n_physical)
      else begin
        (* no improving candidate: guarantee progress by walking the first
           front gate one step along a shortest path, to the first
           neighbour one step closer (Paths.shortest_path's choice) *)
        let qubits = (List.hd front).Gate.qubits in
        let p0 = phys_of_log.(qubits.(0)) and target = phys_of_log.(qubits.(1)) in
        let d = dist.(p0).(target) in
        match Array.find_opt (fun w -> dist.(w).(target) = d - 1) neighbors.(p0) with
        | Some p1 when d > 0 ->
          last_swap := -1;
          apply_swap p0 p1
        | _ -> invalid_arg "Mapping.route_lookahead: operands are disconnected"
      end
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
