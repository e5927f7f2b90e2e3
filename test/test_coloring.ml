open Helpers

let test_welsh_powell_proper () =
  let g = random_graph 1 30 0.3 in
  let c = Coloring.welsh_powell g in
  check_true "proper" (Coloring.is_proper g c)

let test_dsatur_proper () =
  let g = random_graph 2 30 0.3 in
  check_true "proper" (Coloring.is_proper g (Coloring.dsatur g))

let test_natural_proper () =
  let g = random_graph 3 30 0.3 in
  check_true "proper" (Coloring.is_proper g (Coloring.natural g))

let test_complete_graph_colors () =
  let g = (Topology.complete 6).Topology.graph in
  check_int "K6 needs 6 colors" 6 (Coloring.n_colors (Coloring.welsh_powell g));
  check_int "dsatur too" 6 (Coloring.n_colors (Coloring.dsatur g))

let test_bipartite_two_colors () =
  let g = (Topology.grid 4 4).Topology.graph in
  match Coloring.two_color g with
  | None -> Alcotest.fail "grid is bipartite"
  | Some c ->
    check_true "proper" (Coloring.is_proper g c);
    check_int "two colors" 2 (Coloring.n_colors c)

let test_two_color_rejects_odd_cycle () =
  let g = (Topology.ring 5).Topology.graph in
  check_true "odd ring not bipartite" (Coloring.two_color g = None)

let test_two_color_disconnected () =
  let g = Graph.of_edges 4 [ (0, 1); (2, 3) ] in
  match Coloring.two_color g with
  | None -> Alcotest.fail "forest is bipartite"
  | Some c -> check_true "proper" (Coloring.is_proper g c)

let test_welsh_powell_bound () =
  (* Welsh-Powell guarantee: at most (max degree + 1) colors. *)
  let g = random_graph 4 40 0.2 in
  let c = Coloring.welsh_powell g in
  check_true "within degree bound" (Coloring.n_colors c <= Graph.max_degree g + 1)

let test_greedy_order_validation () =
  let g = Graph.create 3 in
  Alcotest.check_raises "bad order"
    (Invalid_argument "Coloring.greedy: order must list every vertex exactly once")
    (fun () -> ignore (Coloring.greedy ~order:[ 0; 1 ] g));
  Alcotest.check_raises "duplicate"
    (Invalid_argument "Coloring.greedy: order must list every vertex exactly once")
    (fun () -> ignore (Coloring.greedy ~order:[ 0; 1; 1 ] g))

let test_color_classes () =
  let g = (Topology.path 4).Topology.graph in
  let c = Coloring.natural g in
  let classes = Coloring.color_classes c in
  let total = Array.fold_left (fun acc l -> acc + List.length l) 0 classes in
  check_int "classes cover all vertices" 4 total;
  Array.iteri
    (fun k members -> List.iter (fun v -> check_int "class matches color" k c.(v)) members)
    classes

let test_restrict () =
  let g = (Topology.path 4).Topology.graph in
  let c = Coloring.natural g in
  Alcotest.(check (list (pair int int)))
    "restrict" [ (1, c.(1)); (3, c.(3)) ] (Coloring.restrict c [ 1; 3 ])

let test_empty_coloring () =
  check_int "no colors" 0 (Coloring.n_colors [||])

let test_k_colorable_exact () =
  let k4 = (Topology.complete 4).Topology.graph in
  check_true "K4 not 3-colorable" (Coloring.k_colorable k4 3 = None);
  (match Coloring.k_colorable k4 4 with
  | Some c -> check_true "proper 4-coloring" (Coloring.is_proper k4 c && Coloring.n_colors c <= 4)
  | None -> Alcotest.fail "K4 is 4-colorable");
  let ring5 = (Topology.ring 5).Topology.graph in
  check_true "odd ring not 2-colorable" (Coloring.k_colorable ring5 2 = None);
  check_true "odd ring 3-colorable" (Coloring.k_colorable ring5 3 <> None)

let test_chromatic_number () =
  check_int "K6" 6 (Coloring.chromatic_number (Topology.complete 6).Topology.graph);
  check_int "even ring" 2 (Coloring.chromatic_number (Topology.ring 6).Topology.graph);
  check_int "odd ring" 3 (Coloring.chromatic_number (Topology.ring 7).Topology.graph);
  check_int "empty graph" 1 (Coloring.chromatic_number (Graph.create 5));
  check_int "zero vertices" 0 (Coloring.chromatic_number (Graph.create 0))

let test_budget_exhaustion () =
  let g = random_graph 9 25 0.5 in
  check_true "tiny budget fails loudly"
    (try
       ignore (Coloring.chromatic_number ~budget:3 g);
       false
     with Failure _ -> true)

let prop_greedy_never_beats_exact =
  prop_case ~count:25 "welsh-powell >= chromatic number" (int_range 1 5000) (fun seed ->
      let g = random_graph seed 12 0.4 in
      Coloring.n_colors (Coloring.welsh_powell g) >= Coloring.chromatic_number g)

let prop_all_heuristics_proper =
  prop_case "all heuristics give proper colorings"
    (QCheck.pair (int_range 1 10_000) (int_range 2 25))
    (fun (seed, n) ->
      let g = random_graph seed n 0.4 in
      Coloring.is_proper g (Coloring.welsh_powell g)
      && Coloring.is_proper g (Coloring.dsatur g)
      && Coloring.is_proper g (Coloring.natural g))

let prop_dsatur_no_worse_on_bipartite =
  prop_case "dsatur is exact on even rings" (int_range 2 12) (fun half ->
      let g = (Topology.ring (2 * half)).Topology.graph in
      Coloring.n_colors (Coloring.dsatur g) = 2)

let suite =
  [
    Alcotest.test_case "welsh-powell proper" `Quick test_welsh_powell_proper;
    Alcotest.test_case "dsatur proper" `Quick test_dsatur_proper;
    Alcotest.test_case "natural proper" `Quick test_natural_proper;
    Alcotest.test_case "complete graph" `Quick test_complete_graph_colors;
    Alcotest.test_case "bipartite 2 colors" `Quick test_bipartite_two_colors;
    Alcotest.test_case "odd cycle rejected" `Quick test_two_color_rejects_odd_cycle;
    Alcotest.test_case "disconnected bipartite" `Quick test_two_color_disconnected;
    Alcotest.test_case "welsh-powell bound" `Quick test_welsh_powell_bound;
    Alcotest.test_case "greedy order validation" `Quick test_greedy_order_validation;
    Alcotest.test_case "color classes" `Quick test_color_classes;
    Alcotest.test_case "restrict" `Quick test_restrict;
    Alcotest.test_case "empty coloring" `Quick test_empty_coloring;
    Alcotest.test_case "k-colorable exact" `Quick test_k_colorable_exact;
    Alcotest.test_case "chromatic number" `Quick test_chromatic_number;
    Alcotest.test_case "budget exhaustion" `Quick test_budget_exhaustion;
    prop_greedy_never_beats_exact;
    prop_all_heuristics_proper;
    prop_dsatur_no_worse_on_bipartite;
  ]
