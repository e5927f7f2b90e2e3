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

val route : ?placement:int array -> Graph.t -> Circuit.t -> result
(** Route the circuit onto the device graph; [placement] defaults to
    {!identity_placement}.
    @raise Invalid_argument if the device graph is disconnected where needed
    or smaller than the circuit. *)

(** The pending instructions of a circuit being routed or scheduled: which
    have been emitted, and which are {e ready} — first in program order on
    every operand, so nothing earlier still waits on their qubits.  An
    instruction is named by its position in {!Circuit.instructions}, which
    is also its gate id.  Shared by {!route_lookahead}, with or without a
    {!pressure}, and [Pending], which the queueing schedulers in
    [Fastsc_core] go through.

    Flat int arrays throughout: each qubit's instructions in program order
    with a cursor at its first unemitted one, a state per instruction, and
    the ready positions in an array with their slots. *)
module Frontier : sig
  type t

  val create : Circuit.t -> t
  (** Nothing emitted yet. *)

  val retire : t -> int -> int list
  (** [retire t i] marks the ready instruction [i] emitted and returns the
      instructions that became ready because of it (each comes after [i] in
      program order and shares a qubit with it), in no particular order.
      Costs a constant per operand, never a scan: [i] leaves the ready
      array by taking its last entry into its slot.
      @raise Invalid_argument if [i] is not ready. *)

  val flush :
    t -> emittable:(Gate.application -> bool) -> emit:(Gate.application -> unit) -> unit
  (** Emit every ready instruction [emittable] accepts, and every one that
      becomes ready and accepted as a result, until none is left, in
      program order — the order of sweeping the whole circuit until a sweep
      emits nothing, but each emission costs a heap update instead of a
      sweep: the visit merges the ready positions, in order, with a heap of
      the ones it readied, in time [O(r + e log r)] for [r] ready
      instructions and [e] emissions.  [emittable] must not change its
      answer during a flush (the routers swap only between flushes). *)

  val ready : t -> Gate.application list
  (** The ready instructions, in program order; right after a {!flush}, the
      ones [emittable] refused, which the flush left sorted.  After
      {!retire} it sorts them first. *)

  val upcoming : t -> int -> Gate.application list
  (** [upcoming t k] is the first [k] unemitted two-qubit instructions in
      program order, scanned from the first unemitted instruction. *)
end

(** A crosstalk-pressure term for {!route_lookahead}.  The {e burst} is the
    couplings that will share a moment with the next SWAP: the two-qubit
    gates of the last flush that emitted anything, plus the SWAPs inserted
    since, as physical pairs [(p, q)] with [p < q].  [conflicts burst pq]
    counts the couplings of [burst] that crosstalk with [pq]; a candidate
    SWAP on [pq] scores the lookahead score [s] as [s +. weight *. count],
    and each inserted SWAP adds its count, taken before it joins the burst,
    to [total]. *)
type pressure = {
  weight : float;
  conflicts : (int * int) list -> int * int -> int;
  mutable total : int;  (** Out-parameter. *)
}

val route_lookahead :
  ?placement:int array -> ?window:int -> ?pressure:pressure -> dist:int array array ->
  Graph.t -> Circuit.t -> result
(** SABRE-style lookahead routing: instead of walking each distant gate along
    its own shortest path, candidate SWAPs are scored against the whole
    ready front {e and} a [window] (default 8) of upcoming two-qubit gates,
    so one SWAP serves several gates.  Falls back to a shortest-path move
    whenever no candidate improves the front (guaranteeing progress), so it
    never SWAPs more than {!route} on adversarial inputs by more than the
    window heuristic costs.  Same result contract as {!route}.

    Without [pressure] the score is [s] itself; weight [0.] routes the same.
    Candidates are the device couplings at a front gate's operands, each
    once, in ascending [(p, q)] order without the last SWAP; the first of
    least score wins.  Each coupling is coded as the int
    [p * n_physical + q] and the neighbours are read from arrays built once
    per call, so choosing a SWAP builds no list of pairs.

    [dist] is the graph's distance matrix, [Paths.all_pairs graph] (a
    device's [Device.distances]); the router only reads it, so one matrix
    serves every routing on the same device.  The livelock bound on SWAPs
    takes the graph's diameter from it too.
    @raise Invalid_argument if [dist] does not have one row per graph
    vertex. *)

val verify : Graph.t -> Circuit.t -> bool
(** All two-qubit gates act on adjacent physical qubits. *)
