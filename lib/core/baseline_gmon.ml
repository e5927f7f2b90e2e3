let is_grid device =
  let topo = Device.topology device in
  let name = topo.Topology.name in
  String.length name >= 3 && String.sub name 0 3 = "2D-" && topo.Topology.coords <> None

let edge_classes device =
  let graph = Device.graph device in
  if is_grid device then begin
    let topo = Device.topology device in
    let coords = Option.get topo.Topology.coords in
    let rows = 1 + Array.fold_left (fun acc (r, _) -> max acc r) 0 coords in
    let cols = 1 + Array.fold_left (fun acc (_, c) -> max acc c) 0 coords in
    List.map
      (fun (edge, cls) ->
        let id = match cls with Topology.A -> 0 | Topology.B -> 1 | Topology.C -> 2 | Topology.D -> 3 in
        (edge, id))
      (Topology.grid_edge_classes rows cols)
  end
  else begin
    (* A proper edge coloring (= vertex coloring of the line graph) gives
       matching classes on any topology. *)
    let line, edge_of_vertex = Line_graph.build graph in
    let coloring = Coloring.welsh_powell line in
    Array.to_list (Array.mapi (fun v edge -> (edge, coloring.(v))) edge_of_vertex)
  end

let run ~residual_coupling device circuit =
  let idle_freqs = Freq_alloc.idle_per_qubit device in
  let omega_int = Step_builder.interaction_center device in
  let classes = edge_classes device in
  let class_of_pair (a, b) =
    let key = (min a b, max a b) in
    match List.assoc_opt key classes with
    | Some c -> c
    | None -> invalid_arg "Baseline_gmon: gate on uncoupled pair"
  in
  let pending = Pending.create circuit in
  let steps = ref [] in
  while not (Pending.is_empty pending) do
    (* Tiling scheduler: activate the coupler class with the most ready
       two-qubit gates this step. *)
    let counts = Hashtbl.create 8 in
    List.iter
      (fun app ->
        match app.Gate.qubits with
        | [| a; b |] ->
          let c = class_of_pair (a, b) in
          Hashtbl.replace counts c (1 + Option.value ~default:0 (Hashtbl.find_opt counts c))
        | _ -> ())
      (Pending.ready pending);
    let best_class =
      Hashtbl.fold
        (fun c n acc ->
          match acc with
          | Some (_, n') when n' >= n -> acc
          | _ -> Some (c, n))
        counts None
    in
    let accept app =
      match app.Gate.qubits with
      | [| a; b |] -> (
        match best_class with Some (c, _) -> class_of_pair (a, b) = c | None -> false)
      | _ -> true
    in
    let gates = Pending.select pending ~accept in
    assert (gates <> []);
    List.iter (Pending.schedule pending) gates;
    steps :=
      Step_builder.make device ~idle_freqs ~freq_of_gate:(fun _ -> omega_int) gates :: !steps
  done;
  {
    Schedule.device;
    algorithm = "baseline-g";
    steps = List.rev !steps;
    idle_freqs;
    coupler = Schedule.Tunable_coupler residual_coupling;
  }
