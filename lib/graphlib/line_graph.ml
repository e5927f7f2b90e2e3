let build g =
  let edge_list = Graph.edges g in
  let edge_of_vertex = Array.of_list edge_list in
  let m = Array.length edge_of_vertex in
  let lg = Graph.create m in
  (* Group edge indices by endpoint: edges sharing an endpoint are pairwise
     adjacent in the line graph. *)
  let incident = Array.make (Graph.n_vertices g) [] in
  Array.iteri
    (fun i (u, v) ->
      incident.(u) <- i :: incident.(u);
      incident.(v) <- i :: incident.(v))
    edge_of_vertex;
  Array.iter
    (fun edge_ids ->
      let rec pairs = function
        | [] -> ()
        | i :: rest ->
          List.iter (fun j -> Graph.add_edge lg i j) rest;
          pairs rest
      in
      pairs edge_ids)
    incident;
  (lg, edge_of_vertex)

(* Coupling lookup, indexed by the smaller endpoint: [row.(u)] to
   [row.(u + 1) - 1] are the slots of the edges (u, v) with u < v, each
   holding v and the edge's index.  A lookup scans one row, at most the
   degree of u entries, instead of the whole edge array. *)
type edge_index = { row : int array; larger : int array; vertex : int array }

let index n_vertices edge_of_vertex =
  let row = Array.make (n_vertices + 1) 0 in
  Array.iter (fun (u, v) -> row.(min u v + 1) <- row.(min u v + 1) + 1) edge_of_vertex;
  for u = 1 to n_vertices do
    row.(u) <- row.(u) + row.(u - 1)
  done;
  let m = Array.length edge_of_vertex in
  let next = Array.sub row 0 n_vertices in
  let larger = Array.make m 0 and vertex = Array.make m 0 in
  Array.iteri
    (fun i (u, v) ->
      let k = next.(min u v) in
      larger.(k) <- max u v;
      vertex.(k) <- i;
      next.(min u v) <- k + 1)
    edge_of_vertex;
  { row; larger; vertex }

let vertex_of_edge idx (u, v) =
  let lo = min u v and hi = max u v in
  if lo < 0 || hi >= Array.length idx.row - 1 then raise Not_found;
  let stop = idx.row.(lo + 1) in
  let rec scan k =
    if k >= stop then raise Not_found
    else if idx.larger.(k) = hi then idx.vertex.(k)
    else scan (k + 1)
  in
  scan idx.row.(lo)
