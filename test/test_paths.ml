open Helpers

let grid3 = lazy (Topology.grid 3 3).Topology.graph

let test_bfs_distances () =
  let g = Lazy.force grid3 in
  let d = Paths.bfs_distances g 0 in
  check_int "self" 0 d.(0);
  check_int "adjacent" 1 d.(1);
  check_int "corner to corner" 4 d.(8)

let test_unreachable () =
  let g = Graph.of_edges 4 [ (0, 1) ] in
  let d = Paths.bfs_distances g 0 in
  check_int "unreachable is -1" (-1) d.(3)

let test_all_pairs_symmetric () =
  let g = Lazy.force grid3 in
  let d = Paths.all_pairs g in
  for u = 0 to 8 do
    for v = 0 to 8 do
      check_int "symmetric" d.(u).(v) d.(v).(u)
    done
  done

let test_shortest_path () =
  let g = Lazy.force grid3 in
  match Paths.shortest_path g 0 8 with
  | None -> Alcotest.fail "expected a path"
  | Some p ->
    check_int "length" 5 (List.length p);
    check_int "starts at src" 0 (List.hd p);
    check_int "ends at dst" 8 (List.nth p 4);
    (* consecutive vertices adjacent *)
    let rec ok = function
      | a :: (b :: _ as rest) -> Graph.mem_edge g a b && ok rest
      | _ -> true
    in
    check_true "edges valid" (ok p)

let test_shortest_path_disconnected () =
  let g = Graph.of_edges 4 [ (0, 1) ] in
  check_true "no path" (Paths.shortest_path g 0 3 = None)

let test_shortest_path_deterministic () =
  let g = Lazy.force grid3 in
  check_true "same result twice" (Paths.shortest_path g 0 8 = Paths.shortest_path g 0 8)

let test_diameter () =
  let both name expected g =
    check_int name expected (Paths.diameter g);
    check_int (name ^ " from the matrix") expected (Paths.matrix_diameter (Paths.all_pairs g))
  in
  both "3x3 grid diameter" 4 (Lazy.force grid3);
  both "path diameter" 4 (Topology.path 5).Topology.graph;
  both "single vertex" 0 (Graph.create 1);
  both "disconnected" (-1) (Graph.create 3);
  both "empty" (-1) (Graph.create 0)

let test_eccentricity () =
  let g = Lazy.force grid3 in
  check_int "center" 2 (Paths.eccentricity g 4);
  check_int "corner" 4 (Paths.eccentricity g 0)

let test_edge_distance () =
  let g = Lazy.force grid3 in
  (* edges (0,1) and (1,2) share vertex 1 *)
  check_int "sharing vertex" 0 (Paths.edge_distance g (0, 1) (1, 2));
  (* edges (0,1) and (2,5): endpoint distance 1 *)
  check_int "distance one" 1 (Paths.edge_distance g (0, 1) (2, 5));
  (* far apart: (0,1) and (7,8) *)
  check_int "far" 2 (Paths.edge_distance g (0, 1) (7, 8))

let prop_triangle_inequality =
  prop_case "distance triangle inequality"
    (QCheck.triple (int_range 0 8) (int_range 0 8) (int_range 0 8))
    (fun (a, b, c) ->
      let g = Lazy.force grid3 in
      let d = Paths.all_pairs g in
      d.(a).(c) <= d.(a).(b) + d.(b).(c))

let suite =
  [
    Alcotest.test_case "bfs distances" `Quick test_bfs_distances;
    Alcotest.test_case "unreachable" `Quick test_unreachable;
    Alcotest.test_case "all pairs symmetric" `Quick test_all_pairs_symmetric;
    Alcotest.test_case "shortest path" `Quick test_shortest_path;
    Alcotest.test_case "shortest path disconnected" `Quick test_shortest_path_disconnected;
    Alcotest.test_case "shortest path deterministic" `Quick test_shortest_path_deterministic;
    Alcotest.test_case "diameter" `Quick test_diameter;
    Alcotest.test_case "eccentricity" `Quick test_eccentricity;
    Alcotest.test_case "edge distance" `Quick test_edge_distance;
    prop_triangle_inequality;
  ]
