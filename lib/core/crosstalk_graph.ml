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

(* Seeded fault for the verification harness (DESIGN.md §11): leave
   out the edges between active couplings, so every one gets color 0. *)
let fault_moment_edge_drop = Fault.enabled "xtalk-moment-edge-drop"

(* Local vertex [i] is the [i]-th smallest active coupling, so ids keep
   their order; each active coupling walks only its own neighbour list, so
   nothing here is proportional to the whole crosstalk graph. *)
let moment_subgraph t active =
  let couplings = Array.of_list (List.sort_uniq Int.compare active) in
  let local = Hashtbl.create (Array.length couplings) in
  Array.iteri (fun i v -> Hashtbl.replace local v i) couplings;
  let sub = Graph.create (Array.length couplings) in
  if not fault_moment_edge_drop then
    Array.iteri
      (fun i v ->
        List.iter
          (fun w ->
            match Hashtbl.find_opt local w with
            | Some j when j > i -> Graph.add_edge sub i j
            | _ -> ())
          (Graph.neighbors t.graph v))
      couplings;
  (sub, couplings)

let max_colors_mesh = 8
