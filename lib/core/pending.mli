(** Ready-gate tracking and moment packing for the queueing schedulers
    (Algorithm 1 lines 9-16).

    The five queueing schedulers consume the circuit through this
    structure: a gate is {e ready} once every earlier gate sharing one of its
    qubits has been scheduled.  Ready gates are served in order of
    non-increasing criticality (longest dependency chain to the end of the
    program), which is how the paper's scheduler protects the critical path
    while serializing.  Every scheduler packs its moments with {!select}
    and supplies only its [accept] policy.

    Readiness comes from {!Mapping.Frontier}, the structure the router uses;
    this module adds the ready set ordered by criticality, as a sorted array
    of int keys.  A gate is ready only when it heads the queue of each of
    its qubits, so ready gates never share a qubit.  Nothing is rescanned
    per moment: {!schedule} marks its gate and notes the gates it readied,
    in constant time, and the next {!ready} or {!select} merges those in
    and drops the scheduled ones in one pass, so a moment costs the size of
    the ready set plus a sort of the gates it readied. *)

type t

val create : Circuit.t -> t
(** The readiness frontier and the criticality table of a (native-gate)
    circuit. *)

val is_empty : t -> bool
(** All gates scheduled. *)

val n_remaining : t -> int

val ready : t -> Gate.application list
(** Currently ready gates, sorted by criticality descending (ties by id
    ascending, i.e. program order). *)

val criticality : t -> Gate.application -> int

val select : t -> accept:(Gate.application -> bool) -> Gate.application list
(** One moment: walk {!ready} in order and choose each gate that [accept]
    takes.  [accept] is asked about every ready gate, in that order, so it
    may track the moment's accepted gates itself.  Returns the chosen gates
    in ready order; it schedules none of them. *)

val schedule : t -> Gate.application -> unit
(** Mark a gate as executed, unblocking its successors.
    @raise Invalid_argument if the gate is not currently ready (this guards
    the schedulers against dependency violations). *)
