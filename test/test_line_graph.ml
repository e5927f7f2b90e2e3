open Helpers

let test_path_line_graph () =
  (* line graph of a path is a shorter path *)
  let g = (Topology.path 5).Topology.graph in
  let lg, edges = Line_graph.build g in
  check_int "vertices = edges of g" 4 (Graph.n_vertices lg);
  check_int "edges" 3 (Graph.n_edges lg);
  check_int "edge array length" 4 (Array.length edges)

let test_triangle_line_graph () =
  (* line graph of a triangle is a triangle *)
  let g = Graph.of_edges 3 [ (0, 1); (1, 2); (0, 2) ] in
  let lg, _ = Line_graph.build g in
  check_int "vertices" 3 (Graph.n_vertices lg);
  check_int "edges" 3 (Graph.n_edges lg)

let test_star_line_graph () =
  (* line graph of a star K(1,4) is K4 *)
  let g = Graph.of_edges 5 [ (0, 1); (0, 2); (0, 3); (0, 4) ] in
  let lg, _ = Line_graph.build g in
  check_int "K4 edges" 6 (Graph.n_edges lg)

let test_adjacency_semantics () =
  let g = (Topology.grid 2 2).Topology.graph in
  let lg, edges = Line_graph.build g in
  Graph.iter_edges
    (fun i j ->
      let u1, v1 = edges.(i) and u2, v2 = edges.(j) in
      check_true "adjacent line vertices share an endpoint"
        (u1 = u2 || u1 = v2 || v1 = u2 || v1 = v2))
    lg

let test_vertex_of_edge () =
  let g = (Topology.path 4).Topology.graph in
  let _, edges = Line_graph.build g in
  let index = Line_graph.index 4 edges in
  let idx = Line_graph.vertex_of_edge index (2, 1) in
  check_true "lookup accepts reversed order" (edges.(idx) = (1, 2));
  Array.iteri
    (fun i (u, v) ->
      check_int "every edge maps back to its vertex" i (Line_graph.vertex_of_edge index (v, u)))
    edges;
  List.iter
    (fun pair ->
      Alcotest.check_raises "missing edge" Not_found (fun () ->
          ignore (Line_graph.vertex_of_edge index pair)))
    [ (0, 3); (1, 1); (-1, 0); (3, 4) ]

let prop_line_graph_size =
  (* m(L(G)) = sum over vertices of C(deg, 2) *)
  qcheck_case "line graph edge count formula" QCheck.(int_range 2 7) (fun n ->
      let g = (Topology.grid n n).Topology.graph in
      let lg, _ = Line_graph.build g in
      let expected =
        List.fold_left
          (fun acc v ->
            let d = Graph.degree g v in
            acc + (d * (d - 1) / 2))
          0 (Graph.vertices g)
      in
      Graph.n_edges lg = expected)

let suite =
  [
    Alcotest.test_case "path" `Quick test_path_line_graph;
    Alcotest.test_case "triangle" `Quick test_triangle_line_graph;
    Alcotest.test_case "star" `Quick test_star_line_graph;
    Alcotest.test_case "adjacency semantics" `Quick test_adjacency_semantics;
    Alcotest.test_case "vertex_of_edge" `Quick test_vertex_of_edge;
    prop_line_graph_size;
  ]
