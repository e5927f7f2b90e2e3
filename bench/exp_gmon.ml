(* Fig 12: Baseline G's sensitivity to residual coupling through deactivated
   couplers, against ColorDynamic on fixed couplers. *)

let fig12 () =
  Exp_common.heading "Fig 12: log10 success vs residual coupling (gmon sensitivity)";
  let etas = [ 0.0; 0.01; 0.02; 0.05; 0.1; 0.2; 0.3; 0.5 ] in
  let bench = Exp_common.benchmark "xeb" 16 in
  let device = Exp_common.mesh_device bench.Exp_common.n in
  let cd =
    Exp_common.compile_and_evaluate ~algorithm:Compile.Color_dynamic device bench
  in
  let t =
    Tablefmt.create
      [
        "residual coupling (x g0)"; "baseline-g"; "color-dynamic (fixed coupler)";
        "gmon-dynamic (extension)";
      ]
  in
  List.iter
    (fun eta ->
      let options = { Pass.default_options with Pass.residual_coupling = eta } in
      let g = Exp_common.compile_and_evaluate ~options ~algorithm:Compile.Gmon device bench in
      let gd =
        Exp_common.compile_and_evaluate ~options ~algorithm:Compile.Gmon_dynamic device bench
      in
      Tablefmt.add_row t
        [
          Tablefmt.cell_float ~digits:2 eta;
          Exp_common.log_cell g.Schedule.log10_success;
          Exp_common.log_cell cd.Schedule.log10_success;
          Exp_common.log_cell gd.Schedule.log10_success;
        ])
    etas;
  Tablefmt.print t;
  Printf.printf
    "(baseline-g decays as residual coupling grows, while ColorDynamic needs no\n\
     couplers at all — the paper's argument for strategic frequency tuning.\n\
     gmon-dynamic composes both mechanisms, the extension proposed in §VIII:\n\
     its decay is far flatter than the tiling-scheduled baseline-g)\n"
