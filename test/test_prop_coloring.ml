(* Property-based oracles for the coloring heuristics: every algorithm must
   return a proper coloring (the paper's frequency-assignment correctness
   rests on it, SIV-C), and the greedy family must respect the classical
   max_degree + 1 bound. *)
open Helpers

let g_arb = graph ~max_vertices:12 ~edge_prob:0.35 ()

let greedy_bound g coloring =
  Graph.n_vertices g = 0 || Coloring.n_colors coloring <= Graph.max_degree g + 1

let prop_welsh_powell =
  prop_case ~count:100 "welsh-powell is proper and bounded" g_arb (fun g ->
      let c = Coloring.welsh_powell g in
      Coloring.is_proper g c && greedy_bound g c)

let prop_dsatur =
  prop_case ~count:100 "dsatur is proper and bounded" g_arb (fun g ->
      let c = Coloring.dsatur g in
      Coloring.is_proper g c && greedy_bound g c)

let prop_natural =
  prop_case ~count:100 "natural greedy is proper and bounded" g_arb (fun g ->
      let c = Coloring.natural g in
      Coloring.is_proper g c && greedy_bound g c)

let prop_greedy_any_order =
  prop_case ~count:100 "greedy is proper in reversed order too" g_arb (fun g ->
      let order = List.rev (Graph.vertices g) in
      Coloring.is_proper g (Coloring.greedy ~order g))

let prop_two_color_bipartite =
  prop_case ~count:100 "two_color succeeds on constructed bipartite graphs"
    (bipartite_graph ~max_side:6 ~edge_prob:0.4 ())
    (fun g ->
      match Coloring.two_color g with
      | None -> false
      | Some c -> Coloring.is_proper g c && Coloring.n_colors c <= 2)

let prop_color_classes_partition =
  prop_case ~count:100 "color_classes partitions the vertex set" g_arb (fun g ->
      let c = Coloring.welsh_powell g in
      let classes = Coloring.color_classes c in
      let total = Array.fold_left (fun acc vs -> acc + List.length vs) 0 classes in
      total = Graph.n_vertices g
      && Array.to_list classes
         |> List.concat
         |> List.sort compare
         |> ( = ) (Graph.vertices g))

let suite =
  [
    prop_welsh_powell;
    prop_dsatur;
    prop_natural;
    prop_greedy_any_order;
    prop_two_color_bipartite;
    prop_color_classes_partition;
  ]
