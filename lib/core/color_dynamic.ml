type stats = {
  cycles : int;
  max_colors_used : int;
  postponed : int;
  min_delta : float;
  components : int;
  component_max_size : int;
  component_sizes : string;
  component_solves : int;
  warm_hits : int;
  warm_misses : int;
}

let default_conflict_threshold = 2

let run ?(crosstalk_distance = 1) ?(max_colors = None)
    ?(conflict_threshold = default_conflict_threshold)
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
    let active = ref [] in
    let accept app =
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
    let chosen = Pending.select pending ~accept in
    (* Lines 17-19: color the active subgraph of the crosstalk graph, built
       from the active couplings alone (local vertex i is couplings.(i)). *)
    let subgraph, couplings = Crosstalk_graph.moment_subgraph xg !active in
    let raw_coloring = colorer subgraph in
    (* Compact the colors appearing on active vertices to 0..k-1, largest
       class first so a color cap keeps the busiest classes. *)
    let class_size = Array.make (Coloring.n_colors raw_coloring) 0 in
    Array.iter (fun c -> class_size.(c) <- class_size.(c) + 1) raw_coloring;
    let classes_by_size =
      List.init (Array.length class_size) Fun.id
      |> List.filter (fun c -> class_size.(c) > 0)
      |> List.sort (fun c1 c2 ->
             match compare class_size.(c2) class_size.(c1) with 0 -> compare c1 c2 | c -> c)
    in
    let compact = Array.make (Array.length class_size) 0 in
    List.iteri (fun i c -> compact.(c) <- i) classes_by_size;
    let color = Hashtbl.create 16 in
    Array.iteri (fun i v -> Hashtbl.replace color v compact.(raw_coloring.(i))) couplings;
    let color_of v = Hashtbl.find color v in
    (* Apply the color cap: postpone gates whose compact color exceeds it. *)
    let cap = match max_colors with Some k -> k | None -> max_int in
    let keep_gate app =
      match app.Gate.qubits with
      | [| a; b |] ->
        if color_of (Crosstalk_graph.vertex_of_pair xg (a, b)) < cap then true
        else begin
          incr postponed;
          false
        end
      | _ -> true
    in
    let gates = List.filter keep_gate chosen in
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
    let n_colors = List.fold_left (fun acc v -> max acc (1 + color_of v)) 0 survivors in
    max_colors_used := max !max_colors_used n_colors;
    (* Line 20: map colors to interaction frequencies via the solver. *)
    let multiplicity = Array.make (max n_colors 1) 0 in
    List.iter
      (fun v ->
        let c = color_of v in
        multiplicity.(c) <- multiplicity.(c) + 1)
      survivors;
    (* Independent regions of the moment: bookkeeping always (the trace
       reports decomposability even when allocation stays global), allocation
       split only under [decompose].  The cap may drop couplings; only then
       does the survivors' subgraph differ from the one just colored. *)
    let comps =
      let subgraph, couplings =
        if List.compare_length_with survivors (Array.length couplings) = 0 then
          (subgraph, couplings)
        else Crosstalk_graph.moment_subgraph xg survivors
      in
      List.map (List.map (fun i -> couplings.(i))) (Graph.components subgraph)
    in
    List.iter
      (fun comp ->
        let size = List.length comp in
        incr components;
        if size > !component_max_size then component_max_size := size;
        Hashtbl.replace size_histogram size
          (1 + Option.value ~default:0 (Hashtbl.find_opt size_histogram size)))
      comps;
    let freq_of_gate =
      if n_colors = 0 then fun _ -> Step_builder.interaction_center device
      else if decompose && List.length comps > 1 then begin
        (* Per-component allocation: each component's color set is remapped
           dense (ascending) and solved as its own small complete-graph
           problem, whose memo key is the component's color count and order,
           so recurring fragments hit the cache.  The solves run one after
           another, in component order: one takes about 2 us, too little to
           pay for handing it to a pool domain. *)
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
          List.map
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
      cycles = !cycles;
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
