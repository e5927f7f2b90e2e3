open Helpers

let triangle () = Graph.of_edges 3 [ (0, 1); (1, 2); (0, 2) ]

let test_create_empty () =
  let g = Graph.create 4 in
  check_int "vertices" 4 (Graph.n_vertices g);
  check_int "edges" 0 (Graph.n_edges g);
  check_true "not connected" (not (Graph.is_connected g))

let test_add_edge () =
  let g = Graph.create 3 in
  Graph.add_edge g 0 1;
  Graph.add_edge g 1 0;
  (* duplicate, reversed *)
  check_int "one edge" 1 (Graph.n_edges g);
  check_true "mem both ways" (Graph.mem_edge g 0 1 && Graph.mem_edge g 1 0);
  Alcotest.check_raises "self loop" (Invalid_argument "Graph.add_edge: self-loop")
    (fun () -> Graph.add_edge g 1 1)

let test_remove_edge () =
  let g = triangle () in
  Graph.remove_edge g 0 1;
  check_int "edges after removal" 2 (Graph.n_edges g);
  check_true "edge gone" (not (Graph.mem_edge g 0 1));
  Graph.remove_edge g 0 1;
  check_int "idempotent" 2 (Graph.n_edges g)

let test_neighbors_degree () =
  let g = triangle () in
  Alcotest.(check (list int)) "neighbors sorted" [ 1; 2 ] (Graph.neighbors g 0);
  check_int "degree" 2 (Graph.degree g 0);
  check_int "max degree" 2 (Graph.max_degree g)

let test_edges_canonical () =
  let g = Graph.of_edges 4 [ (3, 1); (2, 0); (1, 0) ] in
  Alcotest.(check (list (pair int int)))
    "canonical sorted" [ (0, 1); (0, 2); (1, 3) ] (Graph.edges g)

let test_copy_isolated () =
  let g = triangle () in
  let h = Graph.copy g in
  Graph.remove_edge h 0 1;
  check_true "original untouched" (Graph.mem_edge g 0 1)

let test_subgraph () =
  let g = triangle () in
  let h = Graph.subgraph g [ 0; 1 ] in
  check_int "same vertex count" 3 (Graph.n_vertices h);
  check_int "only internal edge" 1 (Graph.n_edges h);
  check_true "kept edge" (Graph.mem_edge h 0 1)

let test_connected () =
  check_true "triangle connected" (Graph.is_connected (triangle ()));
  let g = Graph.of_edges 4 [ (0, 1); (2, 3) ] in
  check_true "two components" (not (Graph.is_connected g))

let test_complement_vertices () =
  let g = Graph.create 5 in
  Alcotest.(check (list int)) "complement" [ 0; 2; 4 ] (Graph.complement_vertices g [ 1; 3 ])

let test_out_of_range () =
  let g = Graph.create 2 in
  Alcotest.check_raises "bad vertex" (Invalid_argument "Graph: vertex 5 out of range [0,2)")
    (fun () -> ignore (Graph.neighbors g 5))

let test_components () =
  let g = Graph.of_edges 7 [ (0, 1); (1, 2); (4, 5) ] in
  Alcotest.(check (list (list int)))
    "components sorted by smallest vertex, isolated as singletons"
    [ [ 0; 1; 2 ]; [ 3 ]; [ 4; 5 ]; [ 6 ] ]
    (Graph.components g);
  let ids, k = Graph.component_ids g in
  check_int "four components" 4 k;
  Alcotest.(check (list int)) "ids follow component order" [ 0; 0; 0; 1; 2; 2; 3 ]
    (Array.to_list ids);
  Alcotest.(check (list (list int))) "empty graph has no components" []
    (Graph.components (Graph.create 0))

let prop_components_partition =
  prop_case "components partition the vertices and never split an edge"
    (QCheck.pair (int_range 1 20)
       QCheck.(list_of_size (Gen.int_range 0 40) (pair small_nat small_nat)))
    (fun (n, pairs) ->
      let g = Graph.create n in
      List.iter (fun (a, b) -> if a mod n <> b mod n then Graph.add_edge g (a mod n) (b mod n)) pairs;
      let comps = Graph.components g in
      let flattened = List.sort compare (List.concat comps) in
      let ids, _ = Graph.component_ids g in
      flattened = Graph.vertices g
      && List.for_all (fun (u, v) -> ids.(u) = ids.(v)) (Graph.edges g))

let prop_handshake =
  prop_case "sum of degrees = 2m"
    (QCheck.pair (int_range 2 20)
       QCheck.(list_of_size (Gen.int_range 0 60) (pair small_nat small_nat)))
    (fun (n, pairs) ->
      let g = Graph.create n in
      List.iter (fun (a, b) -> if a mod n <> b mod n then Graph.add_edge g (a mod n) (b mod n)) pairs;
      let degree_sum = List.fold_left (fun acc v -> acc + Graph.degree g v) 0 (Graph.vertices g) in
      degree_sum = 2 * Graph.n_edges g)

let prop_edges_match_mem =
  prop_case "edges list matches mem_edge"
    (QCheck.pair (int_range 2 15)
       QCheck.(list_of_size (Gen.int_range 0 40) (pair small_nat small_nat)))
    (fun (n, pairs) ->
      let g = Graph.create n in
      List.iter (fun (a, b) -> if a mod n <> b mod n then Graph.add_edge g (a mod n) (b mod n)) pairs;
      List.for_all (fun (u, v) -> Graph.mem_edge g u v) (Graph.edges g)
      && List.length (Graph.edges g) = Graph.n_edges g)

let suite =
  [
    Alcotest.test_case "create empty" `Quick test_create_empty;
    Alcotest.test_case "add edge" `Quick test_add_edge;
    Alcotest.test_case "remove edge" `Quick test_remove_edge;
    Alcotest.test_case "neighbors/degree" `Quick test_neighbors_degree;
    Alcotest.test_case "edges canonical" `Quick test_edges_canonical;
    Alcotest.test_case "copy isolated" `Quick test_copy_isolated;
    Alcotest.test_case "subgraph" `Quick test_subgraph;
    Alcotest.test_case "connectivity" `Quick test_connected;
    Alcotest.test_case "complement vertices" `Quick test_complement_vertices;
    Alcotest.test_case "out of range" `Quick test_out_of_range;
    Alcotest.test_case "components" `Quick test_components;
    prop_components_partition;
    prop_handshake;
    prop_edges_match_mem;
  ]
