let bfs_distances g src =
  let n = Graph.n_vertices g in
  let dist = Array.make n (-1) in
  let queue = Queue.create () in
  dist.(src) <- 0;
  Queue.add src queue;
  while not (Queue.is_empty queue) do
    let u = Queue.pop queue in
    List.iter
      (fun v ->
        if dist.(v) < 0 then begin
          dist.(v) <- dist.(u) + 1;
          Queue.add v queue
        end)
      (Graph.neighbors g u)
  done;
  dist

let all_pairs g =
  Array.init (Graph.n_vertices g) (fun src -> bfs_distances g src)

let distance g u v = (bfs_distances g u).(v)

let shortest_path g u v =
  let dist = bfs_distances g v in
  if dist.(u) < 0 then None
  else begin
    (* Walk downhill from [u] toward [v]; neighbours are sorted, so picking
       the first strictly-closer neighbour makes routing deterministic. *)
    let rec walk current acc =
      if current = v then Some (List.rev (v :: acc))
      else
        let next =
          List.find_opt (fun w -> dist.(w) = dist.(current) - 1) (Graph.neighbors g current)
        in
        match next with
        | None -> None (* unreachable by construction of [dist] *)
        | Some w -> walk w (current :: acc)
    in
    walk u []
  end

let eccentricity g v =
  Array.fold_left max 0 (bfs_distances g v)

let diameter g =
  let n = Graph.n_vertices g in
  if n = 0 || not (Graph.is_connected g) then -1
  else
    let best = ref 0 in
    for v = 0 to n - 1 do
      best := max !best (eccentricity g v)
    done;
    !best

let matrix_diameter dist =
  if Array.length dist = 0 || Array.exists (Array.exists (fun d -> d < 0)) dist then -1
  else Array.fold_left (Array.fold_left max) 0 dist

let edge_distance g (u1, v1) (u2, v2) =
  let d_from src =
    let dist = bfs_distances g src in
    fun target -> dist.(target)
  in
  let d1 = d_from u1 and d2 = d_from v1 in
  let candidates = [ d1 u2; d1 v2; d2 u2; d2 v2 ] in
  let reachable = List.filter (fun d -> d >= 0) candidates in
  match reachable with [] -> -1 | ds -> List.fold_left min max_int ds
