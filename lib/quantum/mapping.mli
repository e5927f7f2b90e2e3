(** Qubit placement and SWAP routing.

    Benchmark programs address logical qubits freely; the device only couples
    physically adjacent qubits.  This pass (the Qiskit-transpiler equivalent)
    pins each logical qubit to a physical one and inserts SWAP gates along
    shortest connectivity paths whenever a two-qubit gate targets non-adjacent
    qubits, updating the mapping as it goes.  The output circuit addresses
    physical qubits only and every two-qubit gate acts on a coupled pair.

    Routing is deterministic (shortest paths tie-break toward smaller ids) so
    compilations are reproducible. *)

type result = {
  circuit : Circuit.t;  (** Routed circuit on physical qubits. *)
  initial : int array;  (** [initial.(logical)] = physical qubit at start. *)
  final : int array;  (** Mapping after execution (SWAPs permute it). *)
  n_swaps : int;  (** Inserted SWAP count — the connectivity-reduction cost
                      discussed in §III. *)
}

val identity_placement : Graph.t -> Circuit.t -> int array
(** Logical qubit [i] on physical qubit [i].
    @raise Invalid_argument if the device is smaller than the circuit. *)

val degree_placement : Graph.t -> Circuit.t -> int array
(** Heuristic placement: logical qubits with the most two-qubit partners go
    on physical qubits of highest degree, neighbours packed first. *)

val quality_placement : quality:(int -> float) -> Graph.t -> Circuit.t -> int array
(** Variability-aware placement (after Tannu & Qureshi's case for
    variability-aware policies, cited by the paper): like
    {!degree_placement}, but spots are ranked by the supplied per-physical-
    qubit [quality] score (e.g. a combined coherence figure), so the busiest
    logical qubits land on the best fabricated qubits and spares absorb the
    duds.  Ties among free neighbours of already-placed partners also break
    by quality. *)

val route : ?placement:int array -> Graph.t -> Circuit.t -> result
(** Route the circuit onto the device graph; [placement] defaults to
    {!identity_placement}.
    @raise Invalid_argument if the device graph is disconnected where needed
    or smaller than the circuit. *)

(** The pending instructions of a circuit being routed: which have been
    emitted, and which are {e ready} — first in program order on every
    operand, so nothing earlier still waits on their qubits.  Shared by
    {!route_lookahead} and the CQC-style router in [Fastsc_core]. *)
module Frontier : sig
  type t

  val create : Circuit.t -> t
  (** Nothing emitted yet. *)

  val is_done : t -> bool
  (** Every instruction has been emitted. *)

  val flush :
    t -> emittable:(Gate.application -> bool) -> emit:(Gate.application -> unit) -> unit
  (** Emit every ready instruction [emittable] accepts, and every one that
      becomes ready and accepted as a result, until none is left, in
      program order — the order of sweeping the whole circuit until a sweep
      emits nothing, but each emission costs a ready-set update instead of
      a sweep.  [emittable] must not change its answer during a flush (the
      routers swap only between flushes). *)

  val ready : t -> Gate.application list
  (** The ready instructions, in program order; right after a {!flush}, the
      ones [emittable] refused. *)

  val upcoming : t -> int -> Gate.application list
  (** [upcoming t k] is the first [k] unemitted two-qubit instructions in
      program order, scanned from the first unemitted instruction. *)
end

val route_lookahead : ?placement:int array -> ?window:int -> Graph.t -> Circuit.t -> result
(** SABRE-style lookahead routing: instead of walking each distant gate along
    its own shortest path, candidate SWAPs are scored against the whole
    ready front {e and} a [window] (default 8) of upcoming two-qubit gates,
    so one SWAP serves several gates.  Falls back to a shortest-path move
    whenever no candidate improves the front (guaranteeing progress), so it
    never SWAPs more than {!route} on adversarial inputs by more than the
    window heuristic costs.  Same result contract as {!route}. *)

val verify : Graph.t -> Circuit.t -> bool
(** All two-qubit gates act on adjacent physical qubits. *)
