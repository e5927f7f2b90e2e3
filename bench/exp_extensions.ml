(* Extensions beyond the paper's evaluation: the GHZ/QFT workloads, the
   GmonDynamic algorithm (paper §VIII future work) across the whole suite,
   and real-machine lattices (IBM heavy-hex, Rigetti octagonal). *)

let algorithms = Compile.extended_algorithms

let column_labels = List.map Compile.algorithm_to_string algorithms

let extra_benchmarks () =
  Exp_common.heading "Extension: GHZ and QFT workloads (all algorithms, log10 success)";
  let cases =
    [
      ("ghz(9)", 9, fun () -> Ghz.circuit ~n:9 ());
      ("ghz-tree(16)", 16, fun () -> Ghz.circuit ~fanout:true ~n:16 ());
      ("qft(6)", 9, fun () -> Qft.circuit ~n:6 ());
      ("qft(9)", 9, fun () -> Qft.circuit ~n:9 ());
      ("aqft3(9)", 9, fun () -> Qft.circuit ~approximation:3 ~n:9 ());
    ]
  in
  let t = Tablefmt.create ("benchmark" :: column_labels) in
  let cells =
    List.concat_map
      (fun (label, device_size, make) ->
        List.map (fun algorithm -> (label, device_size, make, algorithm)) algorithms)
      cases
  in
  let metrics =
    Exp_common.grid
      (fun (_, device_size, make, algorithm) ->
        let device = Exp_common.mesh_device device_size in
        let schedule = Compile.run algorithm device (make ()) in
        Exp_common.log_cell (Schedule.evaluate schedule).Schedule.log10_success)
      cells
  in
  List.iter2
    (fun (label, _, _) row -> Tablefmt.add_row t (label :: row))
    cases
    (Exp_common.rows_of ~width:(List.length algorithms) metrics);
  Tablefmt.print t;
  Printf.printf
    "(aqft3 = approximate QFT truncated at pi/8 rotations — the standard\n\
     NISQ-friendly variant; gmon-dynamic is the paper's §VIII extension)\n"

let machine_lattices () =
  Exp_common.heading "Extension: real-machine lattices (IBM heavy-hex, Rigetti octagonal)";
  let lattices =
    [ Topology.grid 4 4; Topology.heavy_hex 1 2; Topology.octagonal 1 2 ]
  in
  let t =
    Tablefmt.create
      [
        "lattice"; "qubits"; "couplings"; "benchmark"; "U log10"; "CD log10"; "CD colors";
      ]
  in
  let kinds = [ "ghz"; "ising"; "xeb" ] in
  let cells =
    List.concat_map
      (fun topology -> List.mapi (fun i kind -> (topology, i, kind)) kinds)
      lattices
  in
  let results =
    Exp_common.grid
      (fun (topology, i, kind) ->
        let device = Exp_common.device_of_topology topology in
        let n = Device.n_qubits device in
        let circuit =
          match kind with
          | "ghz" -> Ghz.circuit ~fanout:true ~n ()
          | "ising" -> Ising.circuit ~n ()
          | _ -> Exp_common.xeb_for_device device
        in
        let u = Schedule.evaluate (Compile.run Compile.Uniform device circuit) in
        let ctx = Exp_common.compile_context ~algorithm:Compile.Color_dynamic device circuit in
        let cd = Schedule.evaluate (Pass.Context.schedule_exn ctx) in
        let colors = Pass.Context.stat_int ctx "max_colors_used" in
        (topology, i, kind, n, Graph.n_edges (Device.graph device), u, cd, colors))
      cells
  in
  List.iter
    (fun (topology, i, kind, n, couplings, u, cd, colors) ->
      Tablefmt.add_row t
        [
          (if i = 0 then topology.Topology.name else "");
          (if i = 0 then Tablefmt.cell_int n else "");
          (if i = 0 then Tablefmt.cell_int couplings else "");
          kind;
          Exp_common.log_cell u.Schedule.log10_success;
          Exp_common.log_cell cd.Schedule.log10_success;
          Tablefmt.cell_int colors;
        ];
      if i = List.length kinds - 1 then Tablefmt.add_separator t)
    results;
  Tablefmt.print t;
  Printf.printf
    "(heavy-hex and octagonal lattices are sparser than the mesh: fewer\n\
     crosstalk channels, so fewer colors suffice — consistent with the\n\
     paper's locality argument, and with why IBM builds heavy-hex)\n"

let pulse_lowering () =
  Exp_common.heading "Extension: pulse-level lowering statistics";
  let t =
    Tablefmt.create
      [
        "benchmark"; "algorithm"; "waveform segs (max/qubit)"; "max slew (Phi0/ns)";
        "checked";
      ]
  in
  let device = Exp_common.mesh_device 9 in
  let cells =
    List.concat_map
      (fun (label, circuit) ->
        List.map
          (fun algorithm -> (label, circuit, algorithm))
          [ Compile.Uniform; Compile.Color_dynamic ])
      [
        ("ising(9)", Ising.circuit ~n:9 ());
        ("xeb(9,5)", Exp_common.xeb_for_device (Exp_common.mesh_device 9));
      ]
  in
  let rows =
    Exp_common.grid
      (fun (label, circuit, algorithm) ->
        let schedule = Compile.run algorithm device circuit in
        let waveforms = Control.lower schedule in
        let max_segments =
          Array.fold_left (fun acc w -> max acc (List.length w)) 0 waveforms
        in
        let max_slew =
          Array.fold_left (fun acc w -> Float.max acc (Control.max_slew_rate w)) 0.0 waveforms
        in
        let ok =
          match Control.check schedule waveforms with Ok () -> "ok" | Error e -> e
        in
        [
          label;
          Compile.algorithm_to_string algorithm;
          Tablefmt.cell_int max_segments;
          Tablefmt.cell_float ~digits:4 max_slew;
          ok;
        ])
      cells
  in
  List.iter (Tablefmt.add_row t) rows;
  Tablefmt.print t;
  Printf.printf
    "(every schedule lowers to a continuous, bounded-flux waveform per qubit —\n\
     the control-stack artifact the paper's flow diagram ends at)\n"

let snake_comparison () =
  Exp_common.heading
    "Extension: coloring+SMT (ColorDynamic) vs direct annealing (Snake-style [31])";
  let t =
    Tablefmt.create
      [
        "benchmark"; "CD log10 P"; "anneal log10 P"; "CD compile (s)"; "anneal compile (s)";
      ]
  in
  (* one cell per benchmark: the two timed compilations stay serial within a
     cell so their wall-clock comparison is not skewed by pool contention *)
  let rows =
    Exp_common.grid
      (fun bench ->
        let device = Exp_common.mesh_device bench.Exp_common.n in
        let circuit = bench.Exp_common.make device in
        let native = Compile.prepare Pass.default_options device circuit in
        let timed algorithm =
          let start = Unix.gettimeofday () in
          let schedule =
            Compile.schedule_native Pass.default_options algorithm device native
          in
          let elapsed = Unix.gettimeofday () -. start in
          ((Schedule.evaluate schedule).Schedule.log10_success, elapsed)
        in
        let cd_p, cd_t = timed Compile.Color_dynamic in
        let an_p, an_t = timed Compile.Anneal_dynamic in
        [
          bench.Exp_common.label;
          Exp_common.log_cell cd_p;
          Exp_common.log_cell an_p;
          Tablefmt.cell_float ~digits:4 cd_t;
          Tablefmt.cell_float ~digits:4 an_t;
        ])
      [
        Exp_common.benchmark "bv" 9;
        Exp_common.benchmark "ising" 9;
        Exp_common.benchmark "xeb" 9;
        Exp_common.benchmark "xeb" 16;
      ]
  in
  List.iter (Tablefmt.add_row t) rows;
  Tablefmt.print t;
  Printf.printf
    "(the paper's §III claim, reproduced: the coloring decomposition matches the\n\
     direct optimizer's quality at a fraction of the compilation cost)\n"

let all () =
  extra_benchmarks ();
  machine_lattices ();
  pulse_lowering ();
  snake_comparison ()
