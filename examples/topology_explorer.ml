(* Exploring device connectivity (paper §VII-F): how dense should a quantum
   chip's coupling graph be?

   Denser connectivity shortens routing (fewer SWAPs) but crowds the
   frequency spectrum.  This example sweeps express-cube topologies from a
   bare 1-D chain to a doubly-augmented grid, compiling the same program on
   each, and reports routing cost, colors, and success — reproducing the
   paper's observation that the best connectivity is "not too sparse nor
   denser than grid".

   Run with: dune exec examples/topology_explorer.exe *)

let () =
  let n = 16 in
  let topologies =
    [
      Topology.path n;
      Topology.express_1d n 4;
      Topology.express_1d n 2;
      Topology.grid 4 4;
      Topology.express_2d 4 4 2;
      Topology.complete n;
    ]
  in
  let circuit = Qaoa.circuit (Rng.create 3) ~n ~edge_prob:0.4 () in
  Printf.printf "program: qaoa(%d), %d logical gates (%d two-qubit)\n\n" n
    (Circuit.length circuit) (Circuit.n_two_qubit circuit);
  let t =
    Tablefmt.create
      [
        "topology"; "couplings"; "diameter"; "SWAPs"; "colors"; "depth"; "log10 success";
      ]
  in
  List.iter
    (fun topology ->
      let device = Device.create ~seed:2020 topology in
      let graph = Device.graph device in
      (* same placement rule as Compile.prepare's `Auto: fewer SWAPs wins *)
      let by_identity =
        Mapping.route ~placement:(Mapping.identity_placement graph circuit) graph circuit
      in
      let by_degree =
        Mapping.route ~placement:(Mapping.degree_placement graph circuit) graph circuit
      in
      let routed =
        if by_degree.Mapping.n_swaps < by_identity.Mapping.n_swaps then by_degree
        else by_identity
      in
      let ctx =
        Pass.execute ~through:`Schedule
          ~algorithm:(Compile.algorithm_to_string Compile.Color_dynamic) device circuit
      in
      let m = Schedule.evaluate (Pass.Context.schedule_exn ctx) in
      Tablefmt.add_row t
        [
          topology.Topology.name;
          Tablefmt.cell_int (Graph.n_edges graph);
          Tablefmt.cell_int (Paths.diameter graph);
          Tablefmt.cell_int routed.Mapping.n_swaps;
          Tablefmt.cell_int (Pass.Context.stat_int ctx "max_colors_used");
          Tablefmt.cell_int m.Schedule.depth;
          Tablefmt.cell_float ~digits:2 m.Schedule.log10_success;
        ])
    topologies;
  Tablefmt.print t;
  print_endline
    "\n(sparse chains pay in SWAPs and depth; express hubs can even serialize\n\
     worse than the chain they augment.  Denser graphs route for free but put\n\
     more spectator couplings around every gate and are increasingly\n\
     unrealistic to fabricate and address — the paper targets the grid-like\n\
     middle of this spectrum for exactly that reason)"
