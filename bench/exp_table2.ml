(* Table II: the benchmark zoo, characterised — logical gate counts plus the
   physical cost after routing and hybrid decomposition on the mesh. *)

let table2 () =
  Exp_common.heading "Table II: NISQ benchmark characteristics";
  let t =
    Tablefmt.create
      [
        "benchmark"; "qubits"; "logical gates"; "logical 2q"; "logical depth";
        "physical gates"; "physical 2q"; "physical depth";
      ]
  in
  List.iter
    (fun bench ->
      let device = Exp_common.mesh_device bench.Exp_common.n in
      let circuit = bench.Exp_common.make device in
      let native = Compile.prepare Pass.default_options device circuit in
      Tablefmt.add_row t
        [
          bench.Exp_common.label;
          Tablefmt.cell_int bench.Exp_common.n;
          Tablefmt.cell_int (Circuit.length circuit);
          Tablefmt.cell_int (Circuit.n_two_qubit circuit);
          Tablefmt.cell_int (Layers.depth circuit);
          Tablefmt.cell_int (Circuit.length native);
          Tablefmt.cell_int (Circuit.n_two_qubit native);
          Tablefmt.cell_int (Layers.depth native);
        ])
    (Exp_common.full_suite ());
  Tablefmt.print t
