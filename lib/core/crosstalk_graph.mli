(** The crosstalk graph G_x^(d) (paper §IV-C2 and Algorithm 2).

    Vertices are the couplings (edges) of the device connectivity graph; two
    vertices are connected when simultaneous two-qubit gates on the
    corresponding couplings could interfere — i.e. when the couplings share a
    qubit or lie within graph distance [d] of each other.  A proper coloring
    of (the active subgraph of) this graph therefore yields sets of couplings
    that may safely share one interaction frequency. *)

type t = {
  graph : Graph.t;  (** The crosstalk graph itself. *)
  edge_of_vertex : (int * int) array;
      (** Vertex [i] corresponds to this device coupling. *)
  index : Line_graph.edge_index;  (** [edge_of_vertex] inverted, for {!vertex_of_pair}. *)
  distance : int;  (** The [d] it was built with. *)
}

val build : ?distance:int -> Graph.t -> t
(** [build ~distance g] runs Algorithm 2 on connectivity graph [g];
    [distance] defaults to 1 (nearest-neighbour crosstalk).
    @raise Invalid_argument if [distance < 1]. *)

val vertex_of_pair : t -> int * int -> int
(** Index of a device coupling (either endpoint order), from the index
    [build] makes: the schedulers ask this several times per two-qubit gate
    per moment, so it costs at most the degree of the smaller endpoint, not
    a scan of every coupling.
    @raise Not_found if the pair is not a coupling. *)

val conflict_count : t -> int -> int list -> int
(** [conflict_count t v active] counts how many of the [active] vertices are
    adjacent to [v] — the quantity behind the scheduler's [noise_conflict]
    test (Algorithm 1 line 13). *)

val moment_subgraph : t -> int list -> Graph.t * int array
(** [moment_subgraph t active] is the subgraph induced by the active
    couplings of one time step (Algorithm 1 line 18), renumbered: local
    vertex [i] is coupling [couplings.(i)], where [couplings] is the second
    component, [active] sorted ascending without duplicates.  An active
    coupling with no active neighbour is an isolated local vertex.  It costs
    the active couplings' neighbour lists, never a walk over the whole
    graph.

    Because the renumbering keeps the order of coupling ids and the
    couplings it leaves out would be isolated, the greedy colorers
    ({!Coloring.welsh_powell}, {!Coloring.dsatur}, {!Coloring.natural}) give
    every active coupling the color they give it on the full graph with
    only the active edges kept, and {!Graph.components} of the result,
    mapped through [couplings], lists the same components in the same
    order.  These components are the independent allocation subproblems of
    one moment: couplings in different components share no crosstalk edge,
    so their frequency regions never constrain each other. *)

val max_colors_mesh : int
(** The paper's result (Fig 7): 8 colors suffice for maximum simultaneous
    operation on any 2-D mesh at distance 1. *)
