(* Cross-compiler shootout: every registered scheduler — the paper's five
   Table I algorithms, the dynamic extensions, and the rival zoo
   (murali-delay, cqc-synergy) — head-to-head on the table2 workload
   surface across a widened device zoo (mesh, ring, express, heavy-hex,
   octagonal, honeycomb), with per-qubit calibration noise charged through
   [Schedule.evaluate ~coherence] ([Calibration.coherence]: flux-noise
   dephasing at each qubit's parking point shortens its T2).

   One pool cell per (topology, workload, scheduler): each cell fabricates
   its own device and calibration from the cell's seed, so cells are
   independent and stdout/JSON are byte-identical at any job count.

   Emits BENCH_shootout.json.  Env knobs (tier W of `make verify` shrinks
   them to a smoke run):
     FASTSC_SHOOTOUT_SIZES       comma-separated workload sizes (default "4,9,16")
     FASTSC_SHOOTOUT_BENCHES     comma-separated benchmark names
                                 (default "bv,qaoa,ising,qgan,xeb")
     FASTSC_SHOOTOUT_TOPOLOGIES  comma-separated topology names (default
                                 "mesh,ring,express,heavy-hex,octagonal";
                                 "honeycomb" also valid)
     FASTSC_SHOOTOUT_SCRUB       when set, zero wall-clock fields and the
                                 jobs stamp so JSON/stdout from different
                                 job counts compare byte-for-byte *)

let valid_topologies = [ "mesh"; "ring"; "express"; "heavy-hex"; "octagonal"; "honeycomb" ]

(* Tile dimensions tried in order for the cell-based lattices: first entry
   whose instance holds >= n qubits wins (the last is the fallback cap). *)
let tile_steps = [ (1, 1); (1, 2); (2, 2); (2, 3); (3, 3); (3, 4); (4, 4) ]

let grow make n =
  let rec go = function
    | [ (r, c) ] -> make r c
    | (r, c) :: rest ->
      let t = make r c in
      if Graph.n_vertices t.Topology.graph >= n then t else go rest
    | [] -> assert false
  in
  go tile_steps

let sized_topology name n =
  match name with
  | "mesh" -> Topology.square_grid n
  | "ring" -> Topology.ring (max 3 n)
  | "express" ->
    let s = max 2 (int_of_float (Float.ceil (sqrt (float_of_int n)))) in
    Topology.express_2d s s 2
  | "heavy-hex" -> grow Topology.heavy_hex n
  | "octagonal" -> grow Topology.octagonal n
  | "honeycomb" -> grow Topology.honeycomb n
  | other ->
    Printf.eprintf "bench shootout: unknown topology %S (valid: %s)\n%!" other
      (String.concat " " valid_topologies);
    exit 2

let env_list name default =
  match Sys.getenv_opt name with
  | None -> default
  | Some spec -> List.map String.trim (String.split_on_char ',' spec)

let env_sizes () =
  List.map
    (fun s ->
      match int_of_string_opt s with
      | Some v when v >= 2 -> v
      | _ ->
        Printf.eprintf "bench shootout: FASTSC_SHOOTOUT_SIZES needs integers >= 2, got %S\n%!" s;
        exit 2)
    (env_list "FASTSC_SHOOTOUT_SIZES" [ "4"; "9"; "16" ])

let scrubbed () = Sys.getenv_opt "FASTSC_SHOOTOUT_SCRUB" <> None

type cell = {
  scheduler : string;
  log10 : float;
  success : float;
  depth : int;
  total_ns : float;
  compile_ms : float;
}

let eval_cell ~scrub (topo_name, bench, scheduler) =
  let topo = sized_topology topo_name bench.Exp_common.n in
  let device = Device.create ~seed:Exp_common.device_seed topo in
  let cal = Calibration.generate device in
  let circuit = bench.Exp_common.make device in
  let t0 = Unix.gettimeofday () in
  let ctx = Pass.execute ~through:`Schedule ~algorithm:scheduler device circuit in
  let dt = Unix.gettimeofday () -. t0 in
  let sched = Pass.Context.schedule_exn ctx in
  (match Schedule.check sched with
  | Ok () -> ()
  | Error msg ->
    failwith
      (Printf.sprintf "shootout: invalid schedule from %s on %s/%s: %s" scheduler topo_name
         bench.Exp_common.label msg));
  let m = Schedule.evaluate ~coherence:(Calibration.coherence cal) sched in
  {
    scheduler;
    log10 = m.Schedule.log10_success;
    success = m.Schedule.success;
    depth = m.Schedule.depth;
    total_ns = m.Schedule.total_time;
    compile_ms = (if scrub then 0.0 else dt *. 1000.0);
  }

let find_cell cells name = List.find (fun c -> c.scheduler = name) cells

(* The acceptance headline: workloads where the paper's frequency-aware
   scheduler beats Murali-style delays, which beat the naive baseline. *)
let headline_of_mesh mesh_rows =
  let ordered =
    List.filter_map
      (fun (bench, cells) ->
        let cd = find_cell cells "color-dynamic" in
        let md = find_cell cells "murali-delay" in
        let nv = find_cell cells "baseline-n" in
        if cd.success > md.success && md.success > nv.success then
          Some (bench.Exp_common.label, cd.log10, md.log10, nv.log10)
        else None)
      mesh_rows
  in
  (ordered, List.length mesh_rows)

let run () =
  Exp_common.heading "Shootout: all registered schedulers x topology zoo x table2 workloads";
  let scrub = scrubbed () in
  let sizes = env_sizes () in
  let bench_names = env_list "FASTSC_SHOOTOUT_BENCHES" Exp_common.suite_names in
  let topo_names =
    env_list "FASTSC_SHOOTOUT_TOPOLOGIES"
      [ "mesh"; "ring"; "express"; "heavy-hex"; "octagonal" ]
  in
  List.iter (fun t -> if not (List.mem t valid_topologies) then ignore (sized_topology t 4))
    topo_names;
  let schedulers = List.map Compile.algorithm_to_string Compile.extended_algorithms in
  let workloads =
    List.concat_map
      (fun name -> List.map (fun n -> Exp_common.benchmark name n) sizes)
      bench_names
  in
  let cells =
    List.concat_map
      (fun topo ->
        List.concat_map
          (fun bench -> List.map (fun s -> (topo, bench, s)) schedulers)
          workloads)
      topo_names
  in
  let results = Exp_common.grid (eval_cell ~scrub) cells in
  (* regroup the flat in-order cell list: topology -> workload -> scheduler *)
  let per_scheduler = List.length schedulers in
  let per_topology = List.length workloads * per_scheduler in
  let rows_by_topology =
    List.mapi
      (fun i topo ->
        let mine =
          List.filteri
            (fun j _ -> j >= i * per_topology && j < (i + 1) * per_topology)
            results
        in
        let rows =
          List.mapi
            (fun k bench ->
              ( bench,
                List.filteri
                  (fun j _ -> j >= k * per_scheduler && j < (k + 1) * per_scheduler)
                  mine ))
            workloads
        in
        (topo, rows))
      topo_names
  in
  (* one log10-success table per topology: rows = workloads, cols = schedulers *)
  List.iter
    (fun (topo, rows) ->
      Printf.printf "\n[%s] log10 success (calibration-backed)\n" topo;
      let t = Tablefmt.create ("benchmark" :: schedulers) in
      List.iter
        (fun (bench, cells) ->
          Tablefmt.add_row t
            (bench.Exp_common.label :: List.map (fun c -> Exp_common.log_cell c.log10) cells))
        rows;
      Tablefmt.print t)
    rows_by_topology;
  (* compile time and depth, summed over the whole surface per scheduler *)
  Printf.printf "\n[totals across %d cells]\n" (List.length cells);
  let t = Tablefmt.create [ "scheduler"; "compile ms"; "total depth" ] in
  List.iter
    (fun s ->
      let mine = List.filter (fun c -> c.scheduler = s) results in
      Tablefmt.add_row t
        [
          s;
          Tablefmt.cell_float ~digits:1
            (List.fold_left (fun acc c -> acc +. c.compile_ms) 0.0 mine);
          Tablefmt.cell_int (List.fold_left (fun acc c -> acc + c.depth) 0 mine);
        ])
    schedulers;
  Tablefmt.print t;
  (* the headline ordering on the mesh *)
  let headline =
    match List.assoc_opt "mesh" rows_by_topology with
    | None -> None
    | Some mesh_rows ->
      let ordered, total = headline_of_mesh mesh_rows in
      (match ordered with
      | (label, cd, md, nv) :: _ ->
        Printf.printf
          "\nheadline: mesh %s: color-dynamic %.2f > murali-delay %.2f > baseline-n %.2f \
           (%d/%d mesh workloads satisfy the ordering)\n"
          label cd md nv (List.length ordered) total
      | [] -> Printf.printf "\nheadline: ORDERING NOT REPRODUCED on any mesh workload\n");
      Some (List.length ordered, total)
  in
  let doc =
    Json.Obj
      [
        ("label", Json.String "shootout");
        ("jobs", Json.Int (if scrub then 0 else Pool.default_jobs ()));
        ("schedulers", Json.List (List.map (fun s -> Json.String s) schedulers));
        ( "topologies",
          Json.List
            (List.map
               (fun (topo, rows) ->
                 Json.Obj
                   [
                     ("topology", Json.String topo);
                     ( "workloads",
                       Json.List
                         (List.map
                            (fun (bench, cells) ->
                              Json.Obj
                                [
                                  ("benchmark", Json.String bench.Exp_common.label);
                                  ("n", Json.Int bench.Exp_common.n);
                                  ( "cells",
                                    Json.List
                                      (List.map
                                         (fun c ->
                                           Json.Obj
                                             [
                                               ("scheduler", Json.String c.scheduler);
                                               ("log10_success", Json.Float c.log10);
                                               ("success", Json.Float c.success);
                                               ("depth", Json.Int c.depth);
                                               ("total_time_ns", Json.Float c.total_ns);
                                               ("compile_ms", Json.Float c.compile_ms);
                                             ])
                                         cells) );
                                ])
                            rows) );
                   ])
               rows_by_topology) );
        ( "headline",
          match headline with
          | None -> Json.Null
          | Some (ordered, total) ->
            Json.Obj
              [
                ("ordered_workloads", Json.Int ordered);
                ("mesh_workloads", Json.Int total);
                ("holds", Json.Bool (ordered > 0));
              ] );
      ]
  in
  let oc = open_out "BENCH_shootout.json" in
  output_string oc (Json.to_string doc);
  output_char oc '\n';
  close_out oc;
  Printf.eprintf "wrote BENCH_shootout.json\n%!"
