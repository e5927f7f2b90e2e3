(* Fig 11: sweet spot of tunability — success rate as the number of colors
   (distinct per-step interaction frequencies) is capped at 1..6. *)

let fig11 () =
  Exp_common.heading
    "Fig 11: success vs max number of colors (spectral vs temporal optimization)";
  let caps = [ 1; 2; 3; 4; 5; 6 ] in
  let benches =
    [
      Exp_common.benchmark "bv" 9;
      Exp_common.benchmark "qaoa" 9;
      Exp_common.benchmark "ising" 9;
      Exp_common.benchmark "qgan" 9;
      Exp_common.benchmark "xeb" 9;
      Exp_common.benchmark "xeb" 16;
    ]
  in
  let t =
    Tablefmt.create
      ("benchmark" :: List.map (fun k -> Printf.sprintf "%d colors" k) caps @ [ "best" ])
  in
  List.iter
    (fun bench ->
      let device = Exp_common.mesh_device bench.Exp_common.n in
      let series =
        List.map
          (fun cap ->
            let options = { Pass.default_options with Pass.max_colors = Some cap } in
            let m =
              Exp_common.compile_and_evaluate ~options ~algorithm:Compile.Color_dynamic device
                bench
            in
            (cap, m.Schedule.log10_success))
          caps
      in
      let best_cap, _ =
        List.fold_left
          (fun (bk, bv) (k, v) -> if v > bv then (k, v) else (bk, bv))
          (0, neg_infinity) series
      in
      Tablefmt.add_row t
        (bench.Exp_common.label
        :: (List.map (fun (_, v) -> Exp_common.log_cell v) series
           @ [ string_of_int best_cap ])))
    benches;
  Tablefmt.print t;
  Printf.printf
    "(log10 success; paper finds the optimum at 1-2 colors for NISQ benchmarks,\n\
     with diminishing returns beyond)\n"
