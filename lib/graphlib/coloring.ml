type coloring = int array

let smallest_free used =
  let rec scan k = if List.mem k used then scan (k + 1) else k in
  scan 0

(* Seeded fault for the verification harness (docs/DESIGN.md §11). *)
let fault_greedy_clash = Fastsc_util.Fault.enabled "color-greedy-clash"

let greedy ~order g =
  let n = Graph.n_vertices g in
  if List.length order <> n then
    invalid_arg "Coloring.greedy: order must list every vertex exactly once";
  let seen = Array.make n false in
  List.iter
    (fun v ->
      if v < 0 || v >= n || seen.(v) then
        invalid_arg "Coloring.greedy: order must list every vertex exactly once";
      seen.(v) <- true)
    order;
  let colors = Array.make n (-1) in
  List.iter
    (fun v ->
      let used =
        List.filter_map
          (fun u -> if colors.(u) >= 0 then Some colors.(u) else None)
          (Graph.neighbors g v)
      in
      colors.(v) <- (if fault_greedy_clash then 0 else smallest_free used))
    order;
  colors

let natural g = greedy ~order:(Graph.vertices g) g

let welsh_powell g =
  let by_degree_desc u v =
    match compare (Graph.degree g v) (Graph.degree g u) with
    | 0 -> compare u v
    | c -> c
  in
  greedy ~order:(List.sort by_degree_desc (Graph.vertices g)) g

let dsatur g =
  let n = Graph.n_vertices g in
  let colors = Array.make n (-1) in
  let module ISet = Set.Make (Int) in
  (* saturation.(v): set of distinct neighbour colors *)
  let saturation = Array.make n ISet.empty in
  let pick_next () =
    let best = ref (-1) in
    for v = 0 to n - 1 do
      if colors.(v) < 0 then
        match !best with
        | -1 -> best := v
        | b ->
          let sat_v = ISet.cardinal saturation.(v)
          and sat_b = ISet.cardinal saturation.(b) in
          if
            sat_v > sat_b
            || (sat_v = sat_b && Graph.degree g v > Graph.degree g b)
          then best := v
    done;
    !best
  in
  for _ = 1 to n do
    let v = pick_next () in
    let used = ISet.elements saturation.(v) in
    let c = smallest_free used in
    colors.(v) <- c;
    List.iter
      (fun u -> if colors.(u) < 0 then saturation.(u) <- ISet.add c saturation.(u))
      (Graph.neighbors g v)
  done;
  colors

let n_colors coloring =
  Array.fold_left (fun acc c -> max acc (c + 1)) 0 coloring

let is_proper g coloring =
  let ok = ref true in
  Graph.iter_edges (fun u v -> if coloring.(u) = coloring.(v) then ok := false) g;
  !ok

let two_color g =
  let n = Graph.n_vertices g in
  let colors = Array.make n (-1) in
  let queue = Queue.create () in
  let ok = ref true in
  for start = 0 to n - 1 do
    if colors.(start) < 0 then begin
      colors.(start) <- 0;
      Queue.add start queue;
      while not (Queue.is_empty queue) do
        let u = Queue.pop queue in
        List.iter
          (fun v ->
            if colors.(v) < 0 then begin
              colors.(v) <- 1 - colors.(u);
              Queue.add v queue
            end
            else if colors.(v) = colors.(u) then ok := false)
          (Graph.neighbors g u)
      done
    end
  done;
  if !ok then Some colors else None

exception Decided of int array option

let k_colorable ?(budget = 10_000_000) g k =
  let n = Graph.n_vertices g in
  if k < 0 then invalid_arg "Coloring.k_colorable: negative k";
  if n = 0 then Some [||]
  else begin
    let colors = Array.make n (-1) in
    let nodes = ref 0 in
    (* DSATUR-style dynamic ordering: always branch on the uncolored vertex
       with the most distinctly-colored neighbours (ties by degree). *)
    let module ISet = Set.Make (Int) in
    let saturation = Array.make n ISet.empty in
    let pick () =
      let best = ref (-1) in
      for v = 0 to n - 1 do
        if colors.(v) < 0 then
          match !best with
          | -1 -> best := v
          | b ->
            let sv = ISet.cardinal saturation.(v) and sb = ISet.cardinal saturation.(b) in
            if sv > sb || (sv = sb && Graph.degree g v > Graph.degree g b) then best := v
      done;
      !best
    in
    let rec search colored max_used =
      incr nodes;
      if !nodes > budget then failwith "Coloring.k_colorable: search budget exhausted";
      if colored = n then raise (Decided (Some (Array.copy colors)))
      else begin
        let v = pick () in
        (* symmetry breaking: allow at most one fresh color *)
        let limit = min (k - 1) (max_used + 1) in
        for c = 0 to limit do
          if not (ISet.mem c saturation.(v)) then begin
            colors.(v) <- c;
            let touched =
              List.filter_map
                (fun u ->
                  if colors.(u) < 0 && not (ISet.mem c saturation.(u)) then begin
                    saturation.(u) <- ISet.add c saturation.(u);
                    Some u
                  end
                  else None)
                (Graph.neighbors g v)
            in
            search (colored + 1) (max max_used c);
            List.iter (fun u -> saturation.(u) <- ISet.remove c saturation.(u)) touched;
            colors.(v) <- -1
          end
        done
      end
    in
    try
      if k = 0 then None
      else begin
        search 0 (-1);
        None
      end
    with Decided answer -> answer
  end

let chromatic_number ?budget g =
  let rec try_k k =
    if k > Graph.n_vertices g then Graph.n_vertices g
    else
      match k_colorable ?budget g k with
      | Some _ -> k
      | None -> try_k (k + 1)
  in
  if Graph.n_vertices g = 0 then 0 else try_k 1

let color_classes coloring =
  let k = n_colors coloring in
  let classes = Array.make k [] in
  for v = Array.length coloring - 1 downto 0 do
    let c = coloring.(v) in
    classes.(c) <- v :: classes.(c)
  done;
  classes

let restrict coloring vs = List.map (fun v -> (v, coloring.(v))) vs
