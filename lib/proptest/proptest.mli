(** Property-based testing with shrinking and deterministic replay.

    A from-scratch QCheck-style engine built on the code base's own splitmix64
    {!Rng}, so that every generated case is a pure function of an integer seed
    and failures replay bit-identically on any platform.  The compiler stack
    is full of invariants that hold for {e all} inputs — satisfying frequency
    assignments re-verify against their constraints, colorings are proper,
    decompositions preserve the unitary, parallel sweeps match their
    sequential reference — and this module is how the test suite states them.

    A property is a predicate over values drawn from an {!arbitrary} (a
    generator bundled with a shrinker and a printer).  The runner draws
    [count] cases; case [k] of a run with base seed [s] is generated from
    [Rng.create (s + k)].  When a case fails, the shrinker greedily walks to
    a local minimum counterexample, and the failure report prints the case's
    seed together with a [FASTSC_PROPTEST_SEED=...] incantation that re-runs
    exactly that case (the failing seed becomes case 0 of the replay).

    Environment:
    - [FASTSC_PROPTEST_COUNT] sets the number of cases of a property without
      [~count] (default 100), and scales an explicit [~count] by itself over
      100 (see {!scaled_count});
    - [FASTSC_PROPTEST_SEED] overrides the base seed (default fixed, so runs
      are deterministic unless asked otherwise). *)

module Gen : sig
  type 'a t = Rng.t -> 'a
  (** A generator is a pure function of generator state. *)

  val return : 'a -> 'a t

  val map : ('a -> 'b) -> 'a t -> 'b t

  val bind : 'a t -> ('a -> 'b t) -> 'b t

  val pair : 'a t -> 'b t -> ('a * 'b) t

  val triple : 'a t -> 'b t -> 'c t -> ('a * 'b * 'c) t

  val bool : bool t

  val int_range : int -> int -> int t
  (** [int_range lo hi] is uniform on the inclusive range.
      @raise Invalid_argument if [lo > hi]. *)

  val float_range : float -> float -> float t
  (** Uniform on [\[lo, hi)] ([lo] when the range is empty). *)

  val oneof : 'a t list -> 'a t
  (** Uniform choice among sub-generators (non-empty). *)

  val frequency : (int * 'a t) list -> 'a t
  (** Weighted choice; weights must be positive. *)

  val choose : 'a array -> 'a t
  (** Uniform element of a non-empty array. *)

  val list : ?min_len:int -> max_len:int -> 'a t -> 'a list t
  (** Length uniform in [\[min_len, max_len\]] (default [min_len = 0]). *)

  val array : ?min_len:int -> max_len:int -> 'a t -> 'a array t
end

module Shrink : sig
  type 'a t = 'a -> 'a Seq.t
  (** Candidate simpler values, most aggressive first.  The runner keeps the
      first candidate that still fails and iterates to a fixpoint. *)

  val nothing : 'a t

  val int_toward : int -> int t
  (** Candidates between the destination and the value, halving the gap:
      the destination itself first, then ever-smaller steps. *)

  val int : int t
  (** [int_toward 0]. *)

  val float_toward : float -> float t

  val pair : 'a t -> 'b t -> ('a * 'b) t

  val list : ?elt:'a t -> 'a list t
  (** Structural list shrinking: keep one half, drop single elements, then
      shrink individual elements with [elt] when given. *)

  val array : ?elt:'a t -> 'a array t
end

type 'a arbitrary = {
  gen : 'a Gen.t;
  shrink : 'a Shrink.t;
  print : 'a -> string;
  size : 'a -> int;
      (** Structural size of a value (list length, vertices + edges, qubits +
          gates...), reported alongside the shrink-step count so a failure
          report says how small the minimum actually got. *)
}

val make :
  ?shrink:'a Shrink.t -> ?print:('a -> string) -> ?size:('a -> int) -> 'a Gen.t -> 'a arbitrary
(** Default shrinker is {!Shrink.nothing}; default printer is ["<opaque>"];
    default size is constant [0] (unknown structure). *)

val int_range : int -> int -> int arbitrary
(** Shrinks toward the lower bound. *)

val float_range : float -> float -> float arbitrary
(** Shrinks toward the lower bound. *)

val bool : bool arbitrary

val pair : 'a arbitrary -> 'b arbitrary -> ('a * 'b) arbitrary

val list : ?min_len:int -> max_len:int -> 'a arbitrary -> 'a list arbitrary

val array : ?min_len:int -> max_len:int -> 'a arbitrary -> 'a array arbitrary

val graph : ?min_vertices:int -> max_vertices:int -> edge_prob:float -> unit -> Graph.t arbitrary
(** Erdős–Rényi-style random graph: vertex count uniform in
    [\[min_vertices, max_vertices\]] (default [min_vertices = 0]), each edge
    present with probability [edge_prob].  Shrinks by removing the last
    vertex and by dropping single edges. *)

val bipartite_graph : max_side:int -> edge_prob:float -> unit -> Graph.t arbitrary
(** Random bipartite graph: sides of up to [max_side] vertices each (left
    part first), edges only across the parts, so 2-colorability is
    guaranteed by construction.  Shrinking drops edges (which preserves
    bipartiteness). *)

val circuit : max_qubits:int -> max_gates:int -> unit -> Circuit.t arbitrary
(** Random circuit over the {e full} gate set of {!Gate.t} — including the
    non-native [Cnot]/[Swap] and the parametric rotations and [Xy] family —
    on [1 .. max_qubits] qubits.  Two-qubit gates are only emitted on
    registers with at least two qubits.  Shrinks by dropping gates. *)

type failure = {
  test_name : string;
  case : int;  (** 1-based index of the failing case. *)
  cases : int;  (** Cases the run would have executed. *)
  seed : int;  (** Seed that regenerates the failing case. *)
  original : string;  (** Printed counterexample as generated. *)
  shrunk : string;  (** Printed minimal counterexample. *)
  shrink_steps : int;
  shrunk_size : int;  (** {!arbitrary.size} of the minimal counterexample. *)
  exn : string option;  (** Set when the property raised rather than returned [false]. *)
  message : string;  (** Full human-readable report, including the replay line. *)
}

type result = Pass of int  (** Number of cases that ran. *) | Fail of failure

type test

val test : name:string -> ?count:int -> 'a arbitrary -> ('a -> bool) -> test
(** Package a property that runs {!scaled_count} [count] cases ([count]
    defaults to 100), read at run time.  A property fails by returning
    [false] or by raising. *)

val scaled_count : int -> int
(** [scaled_count c] is [max 1 (c * v / 100)] when [FASTSC_PROPTEST_COUNT]
    is set to a positive integer [v], else [c]: the variable alone sets the
    count of a property without [~count] and scales every other.  So the
    replay line's [FASTSC_PROPTEST_COUNT=1] runs one case of any property
    written for fewer than 200, and that case is the failing one. *)

val base_seed : unit -> int
(** [FASTSC_PROPTEST_SEED] when set to an integer, else the fixed default. *)

val run : ?seed:int -> test -> result
(** Execute the property.  The base seed is [~seed], else {!base_seed}. *)

val check : ?seed:int -> test -> unit
(** {!run}, raising [Failure] with the failure report on a counterexample —
    the form the Alcotest suites consume. *)
