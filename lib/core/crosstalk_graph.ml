type t = {
  graph : Graph.t;
  edge_of_vertex : (int * int) array;
  index : Line_graph.edge_index;
  distance : int;
}

let build ?(distance = 1) connectivity =
  if distance < 1 then invalid_arg "Crosstalk_graph.build: distance must be >= 1";
  let line, edge_of_vertex = Line_graph.build connectivity in
  (* Algorithm 2: beyond shared endpoints (already in the line graph), connect
     couplings whose endpoints are within [distance] of each other.

     Earlier revisions materialised Paths.all_pairs, whose n^2 distance matrix
     is what actually capped the mesh size (~800 MB at 100x100).  Crosstalk is
     local, so a bounded BFS ball of radius [distance] around each device
     vertex sees exactly the same endpoint pairs: couplings i and j become
     adjacent iff some endpoint of j lies inside the ball of some endpoint of
     i.  The relation is symmetric, so emitting each unordered pair once
     (j > i, as the old double loop did) rebuilds the identical graph. *)
  let n = Graph.n_vertices connectivity in
  let incident = Array.make n [] in
  Array.iteri
    (fun i (u, v) ->
      incident.(u) <- i :: incident.(u);
      incident.(v) <- i :: incident.(v))
    edge_of_vertex;
  let depth = Array.make n (-1) in
  let ball a =
    let queue = Queue.create () in
    let touched = ref [ a ] in
    depth.(a) <- 0;
    Queue.add a queue;
    let members = ref [] in
    while not (Queue.is_empty queue) do
      let u = Queue.pop queue in
      members := u :: !members;
      if depth.(u) < distance then
        List.iter
          (fun v ->
            if depth.(v) = -1 then begin
              depth.(v) <- depth.(u) + 1;
              touched := v :: !touched;
              Queue.add v queue
            end)
          (Graph.neighbors connectivity u)
    done;
    List.iter (fun v -> depth.(v) <- -1) !touched;
    !members
  in
  let balls = Array.init n ball in
  Array.iteri
    (fun i (u1, v1) ->
      let connect_from a =
        List.iter
          (fun b ->
            List.iter (fun j -> if j > i then Graph.add_edge line i j) incident.(b))
          balls.(a)
      in
      connect_from u1;
      connect_from v1)
    edge_of_vertex;
  { graph = line; edge_of_vertex; index = Line_graph.index n edge_of_vertex; distance }

let vertex_of_pair t pair = Line_graph.vertex_of_edge t.index pair

let conflict_count t v active =
  List.fold_left
    (fun acc u -> if u <> v && Graph.mem_edge t.graph v u then acc + 1 else acc)
    0 active

let active_subgraph t active = Graph.subgraph t.graph active

(* Independent regions of one moment: connected components of the active
   subgraph, restricted to the active vertices (subgraph keeps indices stable
   by leaving inactive vertices isolated, so their singletons are dropped).
   Ordering follows Graph.components — a pure function of the moment. *)
let components_of_active t active =
  let sub = Graph.subgraph t.graph active in
  let is_active = Array.make (Graph.n_vertices t.graph) false in
  List.iter (fun v -> is_active.(v) <- true) active;
  List.filter
    (function [ v ] -> is_active.(v) | _ -> true)
    (Graph.components sub)

let max_colors_mesh = 8
