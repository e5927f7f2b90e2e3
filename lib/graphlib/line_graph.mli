(** Line graphs.

    The crosstalk graph of the paper (§IV-C2) is built on top of the line
    graph of the device connectivity graph: every coupling (edge) becomes a
    vertex, and couplings sharing a qubit become adjacent.  Algorithm 2 then
    densifies this with distance-[d] edges; that step lives in
    [Fastsc_core.Crosstalk_graph], while the pure line-graph construction is
    here. *)

val build : Graph.t -> Graph.t * (int * int) array
(** [build g] returns [(lg, edge_of_vertex)] where vertex [i] of [lg]
    corresponds to the canonical edge [edge_of_vertex.(i)] of [g], and two
    vertices of [lg] are adjacent iff their edges share an endpoint in [g].
    The edge array is in the order of {!Graph.edges}, so indices are stable
    and reproducible. *)

type edge_index
(** Inverse of an [edge_of_vertex] array, for {!vertex_of_edge}. *)

val index : int -> (int * int) array -> edge_index
(** [index n edge_of_vertex] indexes the edges of a graph on [n] vertices by
    their smaller endpoint, in O(n + m). *)

val vertex_of_edge : edge_index -> int * int -> int
(** Inverse lookup into the indexed [edge_of_vertex] array; accepts either
    endpoint order.  Scans only the edges at the smaller endpoint, so a
    lookup costs at most its degree — constant on a device graph.
    @raise Not_found if the pair is not an edge of the original graph. *)
