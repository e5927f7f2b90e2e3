open Helpers
open Fastsc_core

let test_build_path () =
  (* path 0-1-2-3: couplings e01, e12, e23.  At d=1 all pairs are within
     reach: e01/e12 share a vertex, e01/e23 have endpoint distance 1. *)
  let g = (Topology.path 4).Topology.graph in
  let xg = Crosstalk_graph.build g in
  check_int "vertices" 3 (Graph.n_vertices xg.Crosstalk_graph.graph);
  check_int "all pairs conflict" 3 (Graph.n_edges xg.Crosstalk_graph.graph)

let test_longer_path_localized () =
  (* path of 6: e01 and e45 are far apart and must NOT conflict at d=1 *)
  let g = (Topology.path 6).Topology.graph in
  let xg = Crosstalk_graph.build g in
  let v01 = Crosstalk_graph.vertex_of_pair xg (0, 1) in
  let v45 = Crosstalk_graph.vertex_of_pair xg (4, 5) in
  check_true "distant couplings independent"
    (not (Graph.mem_edge xg.Crosstalk_graph.graph v01 v45));
  let v23 = Crosstalk_graph.vertex_of_pair xg (2, 3) in
  check_true "nearby couplings conflict" (Graph.mem_edge xg.Crosstalk_graph.graph v01 v23)

let test_distance_2_reaches_further () =
  let g = (Topology.path 6).Topology.graph in
  let xg1 = Crosstalk_graph.build ~distance:1 g in
  let xg2 = Crosstalk_graph.build ~distance:2 g in
  check_true "d=2 denser"
    (Graph.n_edges xg2.Crosstalk_graph.graph > Graph.n_edges xg1.Crosstalk_graph.graph);
  let v01 = Crosstalk_graph.vertex_of_pair xg2 (0, 1) in
  let v34 = Crosstalk_graph.vertex_of_pair xg2 (3, 4) in
  check_true "d=2 connects endpoint-distance-2 couplings"
    (Graph.mem_edge xg2.Crosstalk_graph.graph v01 v34)

let test_supergraph_of_line_graph () =
  let g = (Topology.grid 3 3).Topology.graph in
  let line, _ = Line_graph.build g in
  let xg = Crosstalk_graph.build g in
  Graph.iter_edges
    (fun u v ->
      check_true "line graph edges preserved" (Graph.mem_edge xg.Crosstalk_graph.graph u v))
    line

let test_mesh_colorable_with_8 () =
  (* the paper's Fig 7 structural result: distance-1 crosstalk graphs of 2-D
     meshes are 8-colorable *)
  List.iter
    (fun n ->
      let g = (Topology.grid n n).Topology.graph in
      let xg = Crosstalk_graph.build g in
      let coloring = Coloring.welsh_powell xg.Crosstalk_graph.graph in
      check_true
        (Printf.sprintf "%dx%d mesh within 8+slack colors" n n)
        (Coloring.n_colors coloring <= Crosstalk_graph.max_colors_mesh + 2);
      check_true "proper" (Coloring.is_proper xg.Crosstalk_graph.graph coloring))
    [ 3; 4; 5 ]

let test_mesh_chromatic_number_exactly_8 () =
  (* the stronger half of the Fig 7 claim, verified exactly: 8 is the MINIMUM
     for N x N meshes from 3x3 up *)
  List.iter
    (fun n ->
      let g = (Topology.grid n n).Topology.graph in
      let xg = Crosstalk_graph.build g in
      check_int
        (Printf.sprintf "chi of %dx%d mesh crosstalk graph" n n)
        Crosstalk_graph.max_colors_mesh
        (Coloring.chromatic_number xg.Crosstalk_graph.graph))
    [ 3; 4 ]

let test_conflict_count () =
  let g = (Topology.path 4).Topology.graph in
  let xg = Crosstalk_graph.build g in
  let v01 = Crosstalk_graph.vertex_of_pair xg (0, 1) in
  let v12 = Crosstalk_graph.vertex_of_pair xg (1, 2) in
  let v23 = Crosstalk_graph.vertex_of_pair xg (2, 3) in
  check_int "two conflicts" 2 (Crosstalk_graph.conflict_count xg v01 [ v12; v23 ]);
  check_int "self not counted" 0 (Crosstalk_graph.conflict_count xg v01 [ v01 ]);
  check_int "empty" 0 (Crosstalk_graph.conflict_count xg v01 [])

let test_active_subgraph () =
  (* path 0-...-7 at d=1: e01 and e23 conflict, e67 is out of everyone's
     reach, e34 is inactive although it conflicts with e23 *)
  let g = (Topology.path 8).Topology.graph in
  let xg = Crosstalk_graph.build g in
  let full = xg.Crosstalk_graph.graph in
  let v01 = Crosstalk_graph.vertex_of_pair xg (0, 1) in
  let v23 = Crosstalk_graph.vertex_of_pair xg (2, 3) in
  let v67 = Crosstalk_graph.vertex_of_pair xg (6, 7) in
  let h, couplings = Crosstalk_graph.moment_subgraph xg [ v67; v01; v23 ] in
  Alcotest.(check (array int))
    "local vertices in ascending coupling order"
    (Array.of_list (List.sort compare [ v01; v23; v67 ]))
    couplings;
  check_int "one local vertex per active coupling" 3 (Graph.n_vertices h);
  Graph.iter_edges
    (fun i j ->
      check_true "edges only between conflicting active couplings"
        (Graph.mem_edge full couplings.(i) couplings.(j)))
    h;
  Array.iteri
    (fun i u ->
      Array.iteri
        (fun j v ->
          if i < j && Graph.mem_edge full u v then
            check_true "every conflict among active couplings kept" (Graph.mem_edge h i j))
        couplings)
    couplings;
  check_int "e01-e23 is the only edge" 1 (Graph.n_edges h);
  let local_of v = Option.get (Array.find_index (( = ) v) couplings) in
  check_int "isolated active coupling stays a vertex" 0 (Graph.degree h (local_of v67));
  let v34 = Crosstalk_graph.vertex_of_pair xg (3, 4) in
  let h2, _ = Crosstalk_graph.moment_subgraph xg [ v01; v34 ] in
  check_int "no conflicts among distant couplings" 0 (Graph.n_edges h2);
  let empty, none = Crosstalk_graph.moment_subgraph xg [] in
  check_int "empty moment has no vertices" 0 (Graph.n_vertices empty);
  check_int "and no couplings" 0 (Array.length none)

let test_validation () =
  let g = (Topology.path 3).Topology.graph in
  Alcotest.check_raises "d=0" (Invalid_argument "Crosstalk_graph.build: distance must be >= 1")
    (fun () -> ignore (Crosstalk_graph.build ~distance:0 g))

let prop_vertices_match_couplings =
  prop_case "one vertex per coupling" (int_range 2 6) (fun n ->
      let g = (Topology.grid n n).Topology.graph in
      let xg = Crosstalk_graph.build g in
      Graph.n_vertices xg.Crosstalk_graph.graph = Graph.n_edges g)

let suite =
  [
    Alcotest.test_case "build path" `Quick test_build_path;
    Alcotest.test_case "localized on longer path" `Quick test_longer_path_localized;
    Alcotest.test_case "distance 2" `Quick test_distance_2_reaches_further;
    Alcotest.test_case "supergraph of line graph" `Quick test_supergraph_of_line_graph;
    Alcotest.test_case "mesh 8-colorable" `Quick test_mesh_colorable_with_8;
    Alcotest.test_case "mesh chromatic number = 8" `Quick test_mesh_chromatic_number_exactly_8;
    Alcotest.test_case "conflict count" `Quick test_conflict_count;
    Alcotest.test_case "active subgraph" `Quick test_active_subgraph;
    Alcotest.test_case "validation" `Quick test_validation;
    prop_vertices_match_couplings;
  ]
