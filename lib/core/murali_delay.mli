(** Murali-style software-only crosstalk-adaptive scheduling (rival compiler
    zoo; PAPERS.md, ASPLOS 2020).

    Static uniform frequencies exactly like Baseline N, but simultaneous
    two-qubit gates whose modeled crosstalk error against the gates already
    in the moment exceeds a threshold are {e delayed} into later moments.
    The inserted idle time is costed through the existing decoherence model
    by {!Schedule.evaluate} — no special path.  [Pass] serves it as
    ["murali-delay"] (aliases ["murali"], ["md"]). *)

val threshold : float
(** The crosstalk pair-error budget above which two gates are not run
    simultaneously and one is delayed instead: [1e-4]. *)

val simultaneous_error : Device.t -> t:float -> int * int -> int * int -> float
(** [simultaneous_error device ~t (a, b) (c, d)] — the summed crosstalk
    pair-error of running two-qubit gates on couplings [(a, b)] and [(c, d)]
    simultaneously for [t] ns with every operand at the shared interaction
    frequency: one {!Fastsc_noise.Crosstalk.pair_error} term per coupled
    spectator channel between the two operand sets.  Exposed so the directed
    tests can assert the scheduler's acceptance invariant. *)

val pack : algorithm:string -> Device.t -> Circuit.t -> Schedule.t * int
(** Threshold-packing of a routed native circuit at uniform frequencies:
    criticality-ordered greedy moments where a two-qubit gate joins only if
    {!simultaneous_error} against every accepted gate stays within
    {!threshold}.  Returns the schedule (labeled
    [algorithm]) and the number of delay events.  Shared with
    {!Cqc_synergy}, whose packing phase is identical. *)
