(** Undirected simple graphs over integer vertices [0 .. n-1].

    This is the in-house replacement for the NetworkX graphs used by the
    paper's reference implementation: device connectivity graphs, their line
    graphs and the derived crosstalk graphs are all values of this type.
    Vertices are dense integers so adjacency is an array of sorted sets, which
    keeps neighbourhood queries cheap for the coloring inner loops.

    The structure is mutable during construction ({!add_edge}) and treated as
    immutable afterwards; all analysis functions are pure. *)

type t

val create : int -> t
(** [create n] is the edgeless graph on [n] vertices.
    @raise Invalid_argument if [n < 0]. *)

val n_vertices : t -> int

val n_edges : t -> int

val add_edge : t -> int -> int -> unit
(** [add_edge g u v] inserts the undirected edge [{u,v}].  Inserting an
    existing edge is a no-op.
    @raise Invalid_argument on self-loops or out-of-range vertices. *)

val remove_edge : t -> int -> int -> unit
(** Removes the edge if present; no-op otherwise. *)

val of_edges : int -> (int * int) list -> t
(** [of_edges n edges] builds a graph on [n] vertices with the given edges. *)

val copy : t -> t

val mem_edge : t -> int -> int -> bool

val neighbors : t -> int -> int list
(** Sorted list of neighbours. *)

val degree : t -> int -> int

val max_degree : t -> int

val edges : t -> (int * int) list
(** All edges in canonical form [(u, v)] with [u < v], sorted
    lexicographically. *)

val vertices : t -> int list

val iter_edges : (int -> int -> unit) -> t -> unit
(** Iterates each edge once, in canonical orientation. *)

val subgraph : t -> int list -> t
(** [subgraph g vs] keeps only vertices in [vs] (edges between them survive);
    the result still has [n_vertices g] vertices so indices are stable —
    vertices outside [vs] are simply isolated. *)

val is_connected : t -> bool
(** True when every vertex is reachable from vertex 0 (vacuously true for the
    empty graph). *)

val components : t -> int list list
(** Connected components.  Each component is sorted ascending and the
    components are ordered by their smallest vertex, so the partition is a
    pure function of the graph — the determinism anchor for everything that
    walks components in this order.  Isolated vertices appear as singleton
    components. *)

val component_ids : t -> int array * int
(** [(ids, k)] where [ids.(v)] is the index of [v]'s component in
    {!components} order and [k] the component count. *)

val complement_vertices : t -> int list -> int list
(** [complement_vertices g vs] is the sorted list of vertices not in [vs]. *)

val pp : Format.formatter -> t -> unit
(** Debug printer: [graph(n=#, m=#, edges=...)]. *)
