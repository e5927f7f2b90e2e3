(** Separation-constraint solver over bounded reals.

    This module replaces the Z3 usage of the paper's reference implementation
    (§V-B3).  The compiler's frequency-assignment subproblem is: given one
    real variable per color, bounds [lo <= x_c <= hi] (eq. 1), and pairwise
    constraints [|x_i + offset - x_j| >= delta] — offset 0 for the plain
    separation of eq. 2 and offset = anharmonicity for the sideband
    separation of eq. 3 — find a feasible assignment, and find the largest
    [delta] for which one exists (the paper's [smt_find] binary search).

    The number of variables equals the number of colors, which the
    compilation pipeline keeps small (§VII-C), so a complete backtracking
    search over value orderings is affordable and exact.  When the caller
    supplies a total [order] (the paper orders colors by multiplicity so that
    busier colors get higher frequencies), the search is restricted to
    assignments respecting that order. *)

type t
(** A problem instance; mutable while constraints are added. *)

val create : ?lo:float -> ?hi:float -> int -> t
(** [create n] makes a problem with [n] variables, each bounded by the given
    default range (defaults [0., 1.]).
    @raise Invalid_argument if [n < 0] or [lo > hi]. *)

val set_bounds : t -> int -> lo:float -> hi:float -> unit
(** Override the bounds of one variable. *)

val add_separation : ?offset:float -> t -> int -> int -> unit
(** [add_separation ~offset t i j] records [|x_i + offset - x_j| >= delta]
    (with [delta] supplied at solve time).  [i = j] with [offset <> 0.] is
    allowed and constrains a variable against its own sideband; [i = j] with
    [offset = 0.] is rejected as unsatisfiable for positive [delta]. *)

val add_forbidden : t -> int -> center:float -> t
(** [add_forbidden t i ~center] forbids [x_i] from the open interval
    [(center - delta, center + delta)] — used to keep interaction frequencies
    away from fixed parked neighbours.  Returns [t] for chaining. *)

val solve : ?order:int list -> t -> delta:float -> float array option
(** [solve t ~delta] finds a feasible assignment or [None].  With [order],
    the assignment additionally satisfies
    [x_order(0) <= x_order(1) <= ...].

    Without [order] the search tries every placement order and stops after
    200,000 search nodes, so a [None] past that budget is not a proof of
    infeasibility.  The compiler's problems (one variable per color, a
    separation between every pair) are far too small to reach it; a problem
    of about ten variables with only a few separations can. *)

val margin : t -> float array -> float option
(** [margin t a] is the smallest constraint slack of [a]: the largest delta
    at which [a] still verifies ([verify t ~delta:m a] holds whenever
    [m <= margin]).  [None] when [a] is invalid independently of delta
    (wrong length, non-finite, out of bounds).  Feeds warm starts: a
    previous witness with margin [m] lets {!find_max_delta} open its binary
    search at [lo = m]. *)

type violation =
  | Length_mismatch of int  (** Assignment length (problem size expected). *)
  | Not_finite of int  (** Variable holding NaN or an infinity. *)
  | Out_of_bounds of int  (** Variable outside its [lo, hi] range. *)
  | Separation_violated of int * int * float
      (** [(i, j, offset)] with [|x_i + offset - x_j| < delta]. *)
  | Forbidden_violated of int * float
      (** [(i, center)] with [x_i] inside the forbidden interval. *)

val violations : t -> delta:float -> float array -> violation list
(** Every constraint the assignment breaks at the given [delta], in a
    deterministic order (length, finiteness, bounds, separations, forbidden
    zones).  Comparisons carry a small epsilon slack so assignments exactly
    at the boundary — e.g. two variables separated by precisely [delta] —
    verify as satisfying.  Non-finite values are violations: an all-NaN
    array satisfies no constraint system. *)

val verify : t -> delta:float -> float array -> bool
(** Independent verifier: does the assignment satisfy bounds, separations and
    forbidden zones at the given [delta]?  Equivalent to
    [violations t ~delta a = []] — an oracle for any assignment regardless of
    which search path produced it.  Used by the property-based suites and as
    an internal sanity assertion. *)

val find_max_delta_count : unit -> int
(** Process-wide count of {!find_max_delta} invocations (each one full binary
    search).  Atomic, so safe to read while pool domains solve; the compiler's
    pass instrumentation reports per-pass deltas of this counter. *)

val find_max_delta :
  ?order:int list -> ?tolerance:float -> ?delta_hi:float -> ?warm:float array ->
  t -> (float * float array) option
(** Binary search for the maximum feasible [delta] (within [tolerance],
    default [1e-4]); returns the witness assignment found at that [delta].
    [None] when even [delta = 0] is infeasible.  [delta_hi] bounds the search
    from above (defaults to the widest variable range).  Each probe is one
    {!solve}, so without [order] its node budget applies to every probe.

    [warm] seeds the search with a previous witness: when it has positive
    {!margin} [m] (and is monotone along [order], if given) the delta = 0
    probe is skipped and the search opens at [lo = m], typically saving most
    of the feasible-side probes.  An invalid seed silently falls back to the
    cold path, so warm starting never changes feasibility — and because the
    ordered search only restricts the problem, a warm result can never beat
    the cold unordered maximum by more than [tolerance].

    Cooperative cancellation: {!solve} and {!find_max_delta} poll the
    ambient {!Fastsc_util.Deadline} at chunk boundaries (per bisection
    probe, per 256 search nodes) and raise [Deadline.Expired] once the
    budget is gone — never [None], so an expired deadline cannot masquerade
    as infeasibility. *)
