(* Ablations of the design choices called out in DESIGN.md: coloring
   heuristic, decomposition strategy, crosstalk distance, and the
   noise_conflict serialization threshold. *)

let benches () =
  [
    Exp_common.benchmark "qaoa" 9;
    Exp_common.benchmark "ising" 9;
    Exp_common.benchmark "xeb" 16;
  ]

let coloring () =
  Exp_common.heading "Ablation: subgraph coloring heuristic in ColorDynamic";
  let heuristics =
    [
      ("welsh-powell", Coloring.welsh_powell);
      ("dsatur", Coloring.dsatur);
      ("natural", Coloring.natural);
    ]
  in
  let t =
    Tablefmt.create
      ("benchmark" :: List.concat_map (fun (n, _) -> [ n; n ^ " colors" ]) heuristics)
  in
  let rows =
    Exp_common.grid
      (fun bench ->
        let device = Exp_common.mesh_device bench.Exp_common.n in
        let circuit = bench.Exp_common.make device in
        let native = Compile.prepare Pass.default_options device circuit in
        let cells =
          List.concat_map
            (fun (_, colorer) ->
              let schedule, stats = Color_dynamic.run ~colorer device native in
              let m = Schedule.evaluate schedule in
              [
                Exp_common.log_cell m.Schedule.log10_success;
                Tablefmt.cell_int stats.Color_dynamic.max_colors_used;
              ])
            heuristics
        in
        bench.Exp_common.label :: cells)
      (benches ())
  in
  List.iter (Tablefmt.add_row t) rows;
  Tablefmt.print t

let decomposition () =
  Exp_common.heading "Ablation: decomposition strategy (paper §V-B5, Fig 8)";
  let strategies = [ Decompose.All_cz; Decompose.All_iswap; Decompose.Hybrid ] in
  let t =
    Tablefmt.create
      ("benchmark" :: List.map Decompose.strategy_to_string strategies)
  in
  let cells =
    List.concat_map
      (fun bench -> List.map (fun s -> (bench, s)) strategies)
      (benches ())
  in
  let metrics =
    Exp_common.grid
      (fun (bench, decomposition) ->
        let device = Exp_common.mesh_device bench.Exp_common.n in
        let options = { Pass.default_options with Pass.decomposition } in
        let m =
          Exp_common.compile_and_evaluate ~options ~algorithm:Compile.Color_dynamic device
            bench
        in
        Exp_common.log_cell m.Schedule.log10_success)
      cells
  in
  List.iter2
    (fun bench row -> Tablefmt.add_row t (bench.Exp_common.label :: row))
    (benches ())
    (Exp_common.rows_of ~width:(List.length strategies) metrics);
  Tablefmt.print t;
  Printf.printf "(log10 success; hybrid should match or beat the uniform strategies)\n"

let distance () =
  Exp_common.heading "Ablation: crosstalk distance d (paper §IV-C3)";
  let t =
    Tablefmt.create
      [ "benchmark"; "d=1 log10 P"; "d=2 log10 P"; "d=1 depth"; "d=2 depth" ]
  in
  let cells =
    List.concat_map (fun bench -> [ (bench, 1); (bench, 2) ]) (benches ())
  in
  let results =
    Exp_common.grid
      (fun (bench, d) ->
        let device = Exp_common.mesh_device bench.Exp_common.n in
        let options = { Pass.default_options with Pass.crosstalk_distance = d } in
        let circuit = bench.Exp_common.make device in
        let schedule = Compile.run ~options Compile.Color_dynamic device circuit in
        (* evaluate both at distance 2 so the d=1 compilation is judged
           against the fuller noise model *)
        (Schedule.evaluate ~crosstalk_distance:2 schedule, Schedule.depth schedule))
      cells
  in
  List.iter2
    (fun bench row ->
      match row with
      | [ (m1, d1); (m2, d2) ] ->
        Tablefmt.add_row t
          [
            bench.Exp_common.label;
            Exp_common.log_cell m1.Schedule.log10_success;
            Exp_common.log_cell m2.Schedule.log10_success;
            Tablefmt.cell_int d1;
            Tablefmt.cell_int d2;
          ]
      | _ -> assert false)
    (benches ())
    (Exp_common.rows_of ~width:2 results);
  Tablefmt.print t;
  Printf.printf "(both compilations scored under the distance-2 noise model)\n"

let threshold () =
  Exp_common.heading "Ablation: noise_conflict serialization threshold (§V-B6)";
  let thresholds = [ 1; 2; 3; 4; 6; 8 ] in
  let t =
    Tablefmt.create
      ("benchmark" :: List.map (fun k -> Printf.sprintf "thr=%d" k) thresholds)
  in
  let cells =
    List.concat_map (fun bench -> List.map (fun k -> (bench, k)) thresholds) (benches ())
  in
  let metrics =
    Exp_common.grid
      (fun (bench, conflict_threshold) ->
        let device = Exp_common.mesh_device bench.Exp_common.n in
        let options = { Pass.default_options with Pass.conflict_threshold } in
        let m =
          Exp_common.compile_and_evaluate ~options ~algorithm:Compile.Color_dynamic device
            bench
        in
        Exp_common.log_cell m.Schedule.log10_success)
      cells
  in
  List.iter2
    (fun bench row -> Tablefmt.add_row t (bench.Exp_common.label :: row))
    (benches ())
    (Exp_common.rows_of ~width:(List.length thresholds) metrics);
  Tablefmt.print t

let optimize () =
  Exp_common.heading "Ablation: peephole circuit optimization before scheduling";
  let t =
    Tablefmt.create
      [ "benchmark"; "gates raw"; "gates optimized"; "raw log10 P"; "optimized log10 P" ]
  in
  let cells =
    List.concat_map (fun bench -> [ (bench, false); (bench, true) ]) (benches ())
  in
  let results =
    Exp_common.grid
      (fun (bench, optimize) ->
        let device = Exp_common.mesh_device bench.Exp_common.n in
        let options = { Pass.default_options with Pass.optimize } in
        let circuit = bench.Exp_common.make device in
        let native = Compile.prepare options device circuit in
        let schedule = Compile.schedule_native options Compile.Color_dynamic device native in
        (Circuit.length native, (Schedule.evaluate schedule).Schedule.log10_success))
      cells
  in
  List.iter2
    (fun bench row ->
      match row with
      | [ (raw_gates, raw_p); (opt_gates, opt_p) ] ->
        Tablefmt.add_row t
          [
            bench.Exp_common.label;
            Tablefmt.cell_int raw_gates;
            Tablefmt.cell_int opt_gates;
            Exp_common.log_cell raw_p;
            Exp_common.log_cell opt_p;
          ]
      | _ -> assert false)
    (benches ())
    (Exp_common.rows_of ~width:2 results);
  Tablefmt.print t;
  Printf.printf "(the optimizer is off by default to match the paper's pipeline)\n"

let router () =
  Exp_common.heading "Ablation: SWAP router (greedy shortest-path vs SABRE-style lookahead)";
  let t =
    Tablefmt.create
      [
        "benchmark"; "greedy 2q"; "lookahead 2q"; "greedy log10 P"; "lookahead log10 P";
      ]
  in
  let router_benches = Exp_common.benchmark "qaoa" 16 :: benches () in
  let cells =
    List.concat_map (fun bench -> [ (bench, `Greedy); (bench, `Lookahead) ]) router_benches
  in
  let results =
    Exp_common.grid
      (fun (bench, router) ->
        let device = Exp_common.mesh_device bench.Exp_common.n in
        let options = { Pass.default_options with Pass.router } in
        let circuit = bench.Exp_common.make device in
        let native = Compile.prepare options device circuit in
        let schedule = Compile.schedule_native options Compile.Color_dynamic device native in
        (Circuit.n_two_qubit native, (Schedule.evaluate schedule).Schedule.log10_success))
      cells
  in
  List.iter2
    (fun bench row ->
      match row with
      | [ (g2q, gp); (l2q, lp) ] ->
        Tablefmt.add_row t
          [
            bench.Exp_common.label;
            Tablefmt.cell_int g2q;
            Tablefmt.cell_int l2q;
            Exp_common.log_cell gp;
            Exp_common.log_cell lp;
          ]
      | _ -> assert false)
    router_benches
    (Exp_common.rows_of ~width:2 results);
  Tablefmt.print t;
  Printf.printf "(fewer routed two-qubit gates mean fewer error terms and less time)\n"

let all () =
  coloring ();
  decomposition ();
  distance ();
  threshold ();
  optimize ();
  router ()
