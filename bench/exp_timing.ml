(* Bechamel timing suite: one Test.make per table/figure driver (the cost of
   regenerating each experiment) plus micro-benchmarks of the compiler's
   components (crosstalk graph, coloring, SMT, ColorDynamic, routing,
   evaluation).  Which one leads depends on the workload, and SMT is no
   longer among the leaders; DESIGN.md §15 has the measured per-pass
   split. *)

open Bechamel
open Toolkit

let device9 = lazy (Exp_common.mesh_device 9)

let device16 = lazy (Exp_common.mesh_device 16)

let native16 =
  lazy
    (let device = Lazy.force device16 in
     Compile.prepare Compile.default_options device (Exp_common.xeb_for_device device))

let micro_tests () =
  [
    Test.make ~name:"crosstalk-graph-6x6"
      (Staged.stage (fun () ->
           ignore (Crosstalk_graph.build (Topology.grid 6 6).Topology.graph)));
    Test.make ~name:"welsh-powell-6x6-xg"
      (Staged.stage
         (let xg = Crosstalk_graph.build (Topology.grid 6 6).Topology.graph in
          fun () -> ignore (Coloring.welsh_powell xg.Crosstalk_graph.graph)));
    Test.make ~name:"smt-4-colors"
      (Staged.stage (fun () ->
           let device = Lazy.force device9 in
           ignore (Freq_alloc.interaction device ~n_colors:4 ~multiplicity:[| 4; 3; 2; 1 |])));
    Test.make ~name:"colordynamic-xeb16"
      (Staged.stage (fun () ->
           let device = Lazy.force device16 in
           ignore (Color_dynamic.run device (Lazy.force native16))));
    Test.make ~name:"route+decompose-xeb16"
      (Staged.stage (fun () ->
           let device = Lazy.force device16 in
           ignore
             (Compile.prepare Compile.default_options device (Exp_common.xeb_for_device device))));
    Test.make ~name:"evaluate-xeb16"
      (Staged.stage
         (let device = Lazy.force device16 in
          let schedule, _ = Color_dynamic.run device (Lazy.force native16) in
          fun () -> ignore (Schedule.evaluate schedule)));
    Test.make ~name:"lookahead-route-qaoa9"
      (Staged.stage
         (let device = Lazy.force device9 in
          let circuit = Qaoa.circuit (Rng.create 7) ~n:9 () in
          fun () ->
            ignore
              (Mapping.route_lookahead ~dist:(Device.distances device) (Device.graph device)
                 circuit)));
    Test.make ~name:"optimize-ising9"
      (Staged.stage
         (let device = Lazy.force device9 in
          let native =
            Compile.prepare Compile.default_options device (Ising.circuit ~n:9 ())
          in
          fun () -> ignore (Optimize.run native)));
    Test.make ~name:"chromatic-number-4x4-xg"
      (Staged.stage
         (let xg = Crosstalk_graph.build (Topology.grid 4 4).Topology.graph in
          fun () -> ignore (Coloring.chromatic_number xg.Crosstalk_graph.graph)));
    Test.make ~name:"pulse-lower-xeb16"
      (Staged.stage
         (let device = Lazy.force device16 in
          let schedule, _ = Color_dynamic.run device (Lazy.force native16) in
          fun () -> ignore (Control.lower schedule)));
  ]

let experiment_tests () =
  [
    Test.make ~name:"fig2-series"
      (Staged.stage (fun () ->
           for step = 0 to 20 do
             let omega_a = 5.0 +. (0.1 *. float_of_int step) in
             ignore (Coupled_pair.exchange_strength ~omega_a ~omega_b:6.0 ~g:0.03)
           done));
    Test.make ~name:"fig9-cell-cd-bv9"
      (Staged.stage (fun () ->
           let device = Lazy.force device9 in
           ignore
             (Exp_common.compile_and_evaluate ~algorithm:Compile.Color_dynamic device
                (Exp_common.benchmark "bv" 9))));
    Test.make ~name:"fig9-cell-u-bv9"
      (Staged.stage (fun () ->
           let device = Lazy.force device9 in
           ignore
             (Exp_common.compile_and_evaluate ~algorithm:Compile.Uniform device
                (Exp_common.benchmark "bv" 9))));
    Test.make ~name:"fig11-cell-capped"
      (Staged.stage (fun () ->
           let device = Lazy.force device9 in
           let options = { Compile.default_options with Compile.max_colors = Some 2 } in
           ignore
             (Exp_common.compile_and_evaluate ~options ~algorithm:Compile.Color_dynamic device
                (Exp_common.benchmark "ising" 9))));
    Test.make ~name:"fig12-cell-gmon"
      (Staged.stage (fun () ->
           let device = Lazy.force device9 in
           let options = { Compile.default_options with Compile.residual_coupling = 0.1 } in
           ignore
             (Exp_common.compile_and_evaluate ~options ~algorithm:Compile.Gmon device
                (Exp_common.benchmark "xeb" 9))));
    Test.make ~name:"fig15-column"
      (Staged.stage (fun () ->
           let h =
             Coupled_pair.hamiltonian
               { Coupled_pair.omega_a = 6.1; omega_b = 6.0; alpha_a = -0.2; alpha_b = -0.2; g = 0.03 }
           in
           ignore
             (Evolution.transition_series h ~src:1 ~dst:3
                ~times:[ 5.0; 10.0; 15.0; 20.0; 25.0; 30.0 ])));
  ]

(* Machine-readable sibling of the printed table, for tracking performance
   across commits (e.g. the sweep-grid / memoization work): one JSON object
   per benchmark with the OLS ns-per-run estimate.  The label defaults to
   "timing" and can be overridden with FASTSC_BENCH_LABEL so CI can keep
   before/after files side by side. *)
let emit_json measurements =
  let label =
    match Sys.getenv_opt "FASTSC_BENCH_LABEL" with
    | Some l when l <> "" -> l
    | _ -> "timing"
  in
  let path = Printf.sprintf "BENCH_%s.json" label in
  let benchmarks =
    List.map
      (fun (name, ns) ->
        Json.Obj [ ("name", Json.String name); ("ns_per_run", Json.Float ns) ])
      measurements
  in
  (* Cache effectiveness travels with the timings: a perf regression caused
     by a cold or thrashing memo table is visible in the same artifact. *)
  let cache_obj { Freq_alloc.hits; misses; entries; _ } =
    Json.Obj
      [ ("hits", Json.Int hits); ("misses", Json.Int misses); ("entries", Json.Int entries) ]
  in
  let pair_cache_obj { Crosstalk.hits; misses; entries } =
    Json.Obj
      [ ("hits", Json.Int hits); ("misses", Json.Int misses); ("entries", Json.Int entries) ]
  in
  let doc =
    Json.Obj
      [
        ("label", Json.String label);
        ("unit", Json.String "ns/run");
        ("jobs", Json.Int (Pool.default_jobs ()));
        ("benchmarks", Json.List benchmarks);
        ( "caches",
          Json.Obj
            [
              ("solver", cache_obj (Freq_alloc.solver_cache_stats ()));
              ("pair", pair_cache_obj (Crosstalk.pair_cache_stats ()));
              ("smt_solves_total", Json.Int (Fastsc_smt.Smt.find_max_delta_count ()));
            ] );
      ]
  in
  let oc = open_out path in
  output_string oc (Json.to_string doc);
  output_char oc '\n';
  close_out oc;
  Printf.eprintf "wrote %s (%d benchmarks)\n%!" path (List.length benchmarks)

let run () =
  Exp_common.heading "Bechamel timing suite (per-run wall clock)";
  let tests = micro_tests () @ experiment_tests () in
  let grouped = Test.make_grouped ~name:"fastsc" ~fmt:"%s/%s" tests in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:100 ~quota:(Time.second 0.5) ~kde:None () in
  let raw = Benchmark.all cfg instances grouped in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:Measure.[| run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let t = Tablefmt.create [ "benchmark"; "time per run" ] in
  let rows = ref [] in
  Hashtbl.iter
    (fun name ols ->
      let estimate = match Analyze.OLS.estimates ols with Some [ ns ] -> Some ns | _ -> None in
      let cell =
        match estimate with
        | Some ns ->
          if ns > 1e9 then Printf.sprintf "%.2f s" (ns /. 1e9)
          else if ns > 1e6 then Printf.sprintf "%.2f ms" (ns /. 1e6)
          else if ns > 1e3 then Printf.sprintf "%.2f us" (ns /. 1e3)
          else Printf.sprintf "%.0f ns" ns
        | None -> "n/a"
      in
      rows := (name, cell, estimate) :: !rows)
    results;
  let rows = List.sort compare !rows in
  List.iter (fun (name, cell, _) -> Tablefmt.add_row t [ name; cell ]) rows;
  Tablefmt.print t;
  emit_json
    (List.filter_map (fun (name, _, estimate) -> Option.map (fun ns -> (name, ns)) estimate) rows)
