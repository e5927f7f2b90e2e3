(** Device topology generators.

    The paper evaluates on a 2-D mesh (the primary target, §IV-B), and on a
    family of increasingly dense "express cube" connectivities (Dally 1991)
    for the generality study of §VII-F: a 1-D path or 2-D grid augmented with
    an express link every [k] nodes.  The Sycamore ABCD coupler tiling used by
    Baseline G (§VI-A) is also a property of the grid and lives here. *)

type t = {
  name : string;  (** e.g. ["2D-5x5"], ["1EX-4"]. *)
  graph : Graph.t;
  coords : (int * int) array option;
      (** Planar coordinates (row, col) when the topology has a natural
          embedding; used for pretty-printing frequency maps (Fig 14). *)
}

val grid : int -> int -> t
(** [grid rows cols]: nearest-neighbour mesh; vertex [(r, c)] has id
    [r * cols + c]. *)

val square_grid : int -> t
(** [square_grid n] for a perfect square [n] is [grid √n √n]; otherwise the
    most balanced [r x c] grid with [r * c = n] (falling back to a path when
    [n] is prime). *)

val path : int -> t
(** 1-D chain of [n] qubits. *)

val ring : int -> t
(** Cycle of [n >= 3] qubits. *)

val complete : int -> t
(** All-to-all coupling (unrealistic; upper bound for density sweeps). *)

val express_1d : int -> int -> t
(** [express_1d n k] ("1EX-k"): path of [n] nodes plus an express channel
    between node [i] and [i + k] for every [i] divisible by [k]
    (requires [k >= 2]). *)

val express_2d : int -> int -> int -> t
(** [express_2d rows cols k] ("2EX-k"): grid plus express channels every [k]
    nodes along every row and every column (requires [k >= 2]). *)

val honeycomb : int -> int -> t
(** [honeycomb rows cols]: a brick-wall honeycomb lattice of hexagonal cells
    ([rows] x [cols] bricks), every vertex of degree <= 3 — the skeleton of
    IBM's heavy-hexagon devices. *)

val subdivide : t -> t
(** Replace every coupling by a path of length 2 through a fresh vertex.
    [subdivide (honeycomb r c)] is the IBM {e heavy-hex} lattice; applied to
    any topology it halves the maximum degree pressure at the cost of extra
    qubits.  Coordinates are dropped (no planar embedding is maintained). *)

val heavy_hex : int -> int -> t
(** [heavy_hex rows cols] = [subdivide (honeycomb rows cols)], named
    ["HH-<rows>x<cols>"]. *)

val octagonal : int -> int -> t
(** [octagonal rows cols]: a grid of 8-qubit rings with two inter-ring
    couplings per adjacent pair — the Rigetti Aspen lattice family. *)

type tiling_class = A | B | C | D

val grid_edge_classes : int -> int -> ((int * int) * tiling_class) list
(** [grid_edge_classes rows cols] assigns every mesh edge to one of the four
    Sycamore-style activation classes; each class is a matching, so activating
    one class at a time never drives two couplers on the same qubit. *)

val coords_exn : t -> int -> int * int
(** Coordinates of a vertex.
    @raise Invalid_argument if the topology has no embedding. *)
