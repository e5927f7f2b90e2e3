(* Greedy-coloring scheduler with evenly spread frequencies — no SMT.

   The bottom rung of the serve layer's degradation ladder: when a request
   has burned its whole budget, this still produces a valid schedule in
   graph-coloring time.  Idle qubits take one spread slot per color of the
   connectivity graph (adjacent qubits never park together); interacting
   pairs take one spread slot per color of the crosstalk graph (pairs within
   crosstalk range never share a frequency).  Spreading maximizes the
   uniform separation for the color count instead of solving for the true
   maximum, so fidelity trails the SMT schedulers — the point is bounded
   latency, not optimality. *)

type stats = { idle_colors : int; interaction_colors : int }

let run ~crosstalk_distance device circuit =
  let partition = Device.partition device in
  (* parking: one slot per connectivity color *)
  let qubit_colors = Coloring.welsh_powell (Device.graph device) in
  let parking =
    Freq_alloc.spread ~lo:partition.Partition.parking_lo
      ~hi:partition.Partition.parking_hi
      (Coloring.n_colors qubit_colors)
  in
  let idle_freqs = Array.map (fun c -> parking.(c)) qubit_colors in
  (* interaction: one slot per crosstalk-graph color, same band floor as the
     SMT path (the bottom |alpha| is reserved for CZ partner qubits) *)
  let xg = Crosstalk_graph.build ~distance:crosstalk_distance (Device.graph device) in
  let pair_colors = Coloring.welsh_powell xg.Crosstalk_graph.graph in
  let reserved = (Device.params device).Device.anharmonicity in
  let lo =
    Float.min
      (partition.Partition.interaction_lo +. reserved)
      partition.Partition.interaction_hi
  in
  let interaction =
    Freq_alloc.spread ~lo ~hi:partition.Partition.interaction_hi
      (Coloring.n_colors pair_colors)
  in
  let freq_of_gate app =
    match app.Gate.qubits with
    | [| a; b |] -> interaction.(pair_colors.(Crosstalk_graph.vertex_of_pair xg (a, b)))
    | _ -> assert false
  in
  let steps =
    List.map
      (fun layer -> Step_builder.make device ~idle_freqs ~freq_of_gate layer)
      (Layers.slice circuit)
  in
  ( {
      Schedule.device;
      algorithm = "greedy-spread";
      steps;
      idle_freqs;
      coupler = Schedule.Fixed_coupler;
    },
    {
      idle_colors = Coloring.n_colors qubit_colors;
      interaction_colors = Coloring.n_colors pair_colors;
    } )
