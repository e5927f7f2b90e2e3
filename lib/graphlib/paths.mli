(** Shortest paths and distances on unweighted graphs.

    Distances drive two parts of the system: the crosstalk-graph construction
    (Algorithm 2 connects couplings whose endpoints are within crosstalk
    distance [d]) and the SWAP router (non-adjacent two-qubit gates travel
    along a shortest path of the connectivity graph). *)

val bfs_distances : Graph.t -> int -> int array
(** [bfs_distances g src] gives the hop distance from [src] to every vertex;
    [-1] marks unreachable vertices. *)

val all_pairs : Graph.t -> int array array
(** [all_pairs g] is the full distance matrix ([-1] for unreachable pairs);
    O(n·(n+m)) via repeated BFS. *)

val distance : Graph.t -> int -> int -> int
(** Single-pair distance, [-1] if unreachable. *)

val shortest_path : Graph.t -> int -> int -> int list option
(** [shortest_path g u v] is a minimum-hop vertex sequence from [u] to [v]
    (inclusive), or [None] if disconnected.  Ties are broken toward smaller
    vertex ids so routing is deterministic. *)

val eccentricity : Graph.t -> int -> int
(** Greatest distance from the vertex to any reachable vertex. *)

val diameter : Graph.t -> int
(** Largest eccentricity over all vertices; [-1] for a disconnected or empty
    graph. *)

val matrix_diameter : int array array -> int
(** {!diameter} read off a distance matrix from {!all_pairs}: its largest
    entry, or [-1] if the matrix is empty or holds an unreachable pair.
    [matrix_diameter (all_pairs g) = diameter g]. *)

val edge_distance : Graph.t -> int * int -> int * int -> int
(** [edge_distance g (u1,v1) (u2,v2)] is the length of the shortest path
    connecting the two edges, i.e. the minimum pairwise endpoint distance
    (footnote 3 of the paper).  Edges sharing a vertex are at distance 0. *)
