module ISet = Set.Make (Int)

type t = { n : int; adj : ISet.t array; mutable m : int }

let create n =
  if n < 0 then invalid_arg "Graph.create: negative vertex count";
  { n; adj = Array.make n ISet.empty; m = 0 }

let n_vertices g = g.n

let n_edges g = g.m

let check_vertex g v =
  if v < 0 || v >= g.n then
    invalid_arg (Printf.sprintf "Graph: vertex %d out of range [0,%d)" v g.n)

let mem_edge g u v =
  check_vertex g u;
  check_vertex g v;
  ISet.mem v g.adj.(u)

let add_edge g u v =
  check_vertex g u;
  check_vertex g v;
  if u = v then invalid_arg "Graph.add_edge: self-loop";
  if not (ISet.mem v g.adj.(u)) then begin
    g.adj.(u) <- ISet.add v g.adj.(u);
    g.adj.(v) <- ISet.add u g.adj.(v);
    g.m <- g.m + 1
  end

let remove_edge g u v =
  check_vertex g u;
  check_vertex g v;
  if ISet.mem v g.adj.(u) then begin
    g.adj.(u) <- ISet.remove v g.adj.(u);
    g.adj.(v) <- ISet.remove u g.adj.(v);
    g.m <- g.m - 1
  end

let of_edges n edge_list =
  let g = create n in
  List.iter (fun (u, v) -> add_edge g u v) edge_list;
  g

let copy g = { n = g.n; adj = Array.copy g.adj; m = g.m }

let neighbors g v =
  check_vertex g v;
  ISet.elements g.adj.(v)

let degree g v =
  check_vertex g v;
  ISet.cardinal g.adj.(v)

let max_degree g =
  Array.fold_left (fun acc s -> max acc (ISet.cardinal s)) 0 g.adj

let iter_edges f g =
  for u = 0 to g.n - 1 do
    ISet.iter (fun v -> if u < v then f u v) g.adj.(u)
  done

let edges g =
  let acc = ref [] in
  iter_edges (fun u v -> acc := (u, v) :: !acc) g;
  List.rev !acc

let vertices g = List.init g.n Fun.id

let subgraph g vs =
  let keep = Array.make g.n false in
  List.iter
    (fun v ->
      check_vertex g v;
      keep.(v) <- true)
    vs;
  let h = create g.n in
  iter_edges (fun u v -> if keep.(u) && keep.(v) then add_edge h u v) g;
  h

let is_connected g =
  if g.n = 0 then true
  else begin
    let seen = Array.make g.n false in
    let queue = Queue.create () in
    Queue.add 0 queue;
    seen.(0) <- true;
    let count = ref 1 in
    while not (Queue.is_empty queue) do
      let u = Queue.pop queue in
      ISet.iter
        (fun v ->
          if not seen.(v) then begin
            seen.(v) <- true;
            incr count;
            Queue.add v queue
          end)
        g.adj.(u)
    done;
    !count = g.n
  end

let components g =
  let seen = Array.make g.n false in
  let queue = Queue.create () in
  let comps = ref [] in
  for start = 0 to g.n - 1 do
    if not seen.(start) then begin
      seen.(start) <- true;
      Queue.add start queue;
      let members = ref [] in
      while not (Queue.is_empty queue) do
        let u = Queue.pop queue in
        members := u :: !members;
        ISet.iter
          (fun v ->
            if not seen.(v) then begin
              seen.(v) <- true;
              Queue.add v queue
            end)
          g.adj.(u)
      done;
      comps := List.sort compare !members :: !comps
    end
  done;
  List.rev !comps

let component_ids g =
  let ids = Array.make g.n (-1) in
  let count = ref 0 in
  List.iter
    (fun members ->
      List.iter (fun v -> ids.(v) <- !count) members;
      incr count)
    (components g);
  (ids, !count)

let complement_vertices g vs =
  let inside = Array.make g.n false in
  List.iter
    (fun v ->
      check_vertex g v;
      inside.(v) <- true)
    vs;
  List.filter (fun v -> not inside.(v)) (vertices g)

let pp fmt g =
  Format.fprintf fmt "graph(n=%d, m=%d, edges=[%a])" g.n g.m
    (Format.pp_print_list
       ~pp_sep:(fun fmt () -> Format.pp_print_string fmt "; ")
       (fun fmt (u, v) -> Format.fprintf fmt "%d-%d" u v))
    (edges g)
