open Helpers

let test_grid () =
  let t = Topology.grid 3 4 in
  check_int "vertices" 12 (Graph.n_vertices t.Topology.graph);
  (* edges: 3*(4-1) horizontal + (3-1)*4 vertical = 9 + 8 *)
  check_int "edges" 17 (Graph.n_edges t.Topology.graph);
  check_true "connected" (Graph.is_connected t.Topology.graph);
  check_true "coords" (Topology.coords_exn t 5 = (1, 1))

let test_grid_bipartite () =
  let t = Topology.grid 5 5 in
  check_true "grid is 2-colorable" (Coloring.two_color t.Topology.graph <> None)

let test_path_ring () =
  let p = Topology.path 6 in
  check_int "path edges" 5 (Graph.n_edges p.Topology.graph);
  let r = Topology.ring 6 in
  check_int "ring edges" 6 (Graph.n_edges r.Topology.graph);
  List.iter (fun v -> check_int "ring degree" 2 (Graph.degree r.Topology.graph v))
    (Graph.vertices r.Topology.graph)

let test_ring_too_small () =
  Alcotest.check_raises "n=2" (Invalid_argument "Topology.ring: needs at least 3 vertices")
    (fun () -> ignore (Topology.ring 2))

let test_complete () =
  let t = Topology.complete 5 in
  check_int "edges" 10 (Graph.n_edges t.Topology.graph)

let test_square_grid () =
  check_int "16 -> 4x4" 24 (Graph.n_edges (Topology.square_grid 16).Topology.graph);
  check_int "12 -> 3x4" 17 (Graph.n_edges (Topology.square_grid 12).Topology.graph);
  (* prime size falls back to a path *)
  check_int "7 -> path" 6 (Graph.n_edges (Topology.square_grid 7).Topology.graph)

let test_express_1d () =
  let t = Topology.express_1d 9 4 in
  let g = t.Topology.graph in
  check_true "name" (t.Topology.name = "1EX-4");
  (* path edges 8, express edges (0,4) and (4,8) *)
  check_int "edges" 10 (Graph.n_edges g);
  check_true "express link" (Graph.mem_edge g 0 4 && Graph.mem_edge g 4 8);
  (* express links shorten the diameter *)
  check_true "diameter shrinks" (Paths.diameter g < 8)

let test_express_2d () =
  let base = (Topology.grid 5 5).Topology.graph in
  let t = Topology.express_2d 5 5 2 in
  let g = t.Topology.graph in
  check_true "denser than grid" (Graph.n_edges g > Graph.n_edges base);
  check_true "express row link" (Graph.mem_edge g 0 2);
  check_true "express column link" (Graph.mem_edge g 0 10)

let test_express_validation () =
  Alcotest.check_raises "k=1" (Invalid_argument "Topology.express_1d: k must be >= 2")
    (fun () -> ignore (Topology.express_1d 5 1))

let test_tiling_classes_cover () =
  let rows = 4 and cols = 4 in
  let classes = Topology.grid_edge_classes rows cols in
  let g = (Topology.grid rows cols).Topology.graph in
  check_int "every edge classified" (Graph.n_edges g) (List.length classes);
  List.iter
    (fun ((u, v), _) -> check_true "edge exists" (Graph.mem_edge g u v))
    classes

let test_tiling_classes_are_matchings () =
  let classes = Topology.grid_edge_classes 5 5 in
  List.iter
    (fun cls ->
      let members = List.filter (fun (_, c) -> c = cls) classes in
      let qubits = List.concat_map (fun ((u, v), _) -> [ u; v ]) members in
      check_int "no qubit repeats within a class"
        (List.length qubits)
        (List.length (List.sort_uniq compare qubits)))
    [ Topology.A; Topology.B; Topology.C; Topology.D ]

let test_honeycomb () =
  let t = Topology.honeycomb 2 2 in
  let g = t.Topology.graph in
  check_true "connected" (Graph.is_connected g);
  check_true "degree at most 3" (Graph.max_degree g <= 3);
  check_true "bipartite (hexagonal faces)" (Coloring.two_color g <> None)

let test_subdivide () =
  let base = Topology.grid 2 2 in
  let sub = Topology.subdivide base in
  let g = sub.Topology.graph in
  check_int "vertices = n + m" (4 + 4) (Graph.n_vertices g);
  check_int "edges doubled" 8 (Graph.n_edges g);
  check_true "connected" (Graph.is_connected g);
  (* original vertices are never adjacent after subdivision *)
  Graph.iter_edges (fun u v -> check_true "bridge structure" (u >= 4 || v >= 4)) g

let test_heavy_hex () =
  let t = Topology.heavy_hex 2 2 in
  let g = t.Topology.graph in
  check_true "named" (t.Topology.name = "HH-2x2");
  check_true "connected" (Graph.is_connected g);
  (* inserted qubits have degree exactly 2 *)
  let base = Graph.n_vertices (Topology.honeycomb 2 2).Topology.graph in
  List.iter
    (fun v -> if v >= base then check_int "edge qubit degree" 2 (Graph.degree g v))
    (Graph.vertices g)

let test_octagonal () =
  let t = Topology.octagonal 2 2 in
  let g = t.Topology.graph in
  check_int "qubits" 32 (Graph.n_vertices g);
  (* 4 rings x 8 edges + 2 horizontal pairs x 2 + 2 vertical pairs x 2 *)
  check_int "edges" ((4 * 8) + (2 * 2) + (2 * 2)) (Graph.n_edges g);
  check_true "connected" (Graph.is_connected g);
  check_true "degree at most 3" (Graph.max_degree g <= 3)

let test_coords_missing () =
  Alcotest.check_raises "no embedding"
    (Invalid_argument "Topology.coords_exn: RING-4 has no embedding") (fun () ->
      ignore (Topology.coords_exn (Topology.ring 4) 0))

let prop_express_2d_connected =
  prop_case "express cubes stay connected" (QCheck.pair (int_range 2 6) (int_range 2 5))
    (fun (n, k) ->
      Graph.is_connected (Topology.express_2d n n k).Topology.graph
      && Graph.is_connected (Topology.express_1d (n * n) k).Topology.graph)

let suite =
  [
    Alcotest.test_case "grid" `Quick test_grid;
    Alcotest.test_case "grid bipartite" `Quick test_grid_bipartite;
    Alcotest.test_case "path/ring" `Quick test_path_ring;
    Alcotest.test_case "ring too small" `Quick test_ring_too_small;
    Alcotest.test_case "complete" `Quick test_complete;
    Alcotest.test_case "square grid" `Quick test_square_grid;
    Alcotest.test_case "express 1d" `Quick test_express_1d;
    Alcotest.test_case "express 2d" `Quick test_express_2d;
    Alcotest.test_case "express validation" `Quick test_express_validation;
    Alcotest.test_case "honeycomb" `Quick test_honeycomb;
    Alcotest.test_case "subdivide" `Quick test_subdivide;
    Alcotest.test_case "heavy hex" `Quick test_heavy_hex;
    Alcotest.test_case "octagonal" `Quick test_octagonal;
    Alcotest.test_case "tiling covers edges" `Quick test_tiling_classes_cover;
    Alcotest.test_case "tiling classes are matchings" `Quick test_tiling_classes_are_matchings;
    Alcotest.test_case "coords missing" `Quick test_coords_missing;
    prop_express_2d_connected;
  ]
