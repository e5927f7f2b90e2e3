(** The performance-regression gate of [make verify] tier W.

    Compares a freshly produced benchmark document (BENCH_sim.json) against
    a committed baseline under [bench/baselines/], walking both JSON trees
    in lockstep.  Leaf fields are classified by key name:

    - [jobs] and any [*speedup*] field are ignored — they record machine
      shape, and parallel-speedup ratios on a single-core CI box are
      scheduling noise;
    - fields with a [ms]/[ns] unit token, [seconds], [secs] or [wall] are
      wall-clock timings, lower better; [*per_sec*] fields are throughput,
      higher better.  Each timing field contributes a regression ratio
      (1.0 = parity), with small absolute differences snapped to parity by a
      per-unit noise floor;
    - everything else (counters, deltas, fidelities, labels, flags) is
      deterministic output and must match the baseline exactly.

    The gate fails on any structural mismatch (different keys, array lengths
    or value shapes), on any exact-field drift, or when the {e median} of the
    timing ratios exceeds [1 + tolerance] (default 25%).  A median over many
    fields is what makes a single-core machine workable: one noisy field
    cannot fail the gate, a systemic slowdown shifts the whole distribution.

    A baseline timing field holding [0.0] is taken as scrubbed (the
    determinism benches zero wall-clock fields before comparing); the fresh
    field must then be [0.0] too. *)

type field_class =
  | Ignored
  | Exact
  | Timing of { higher_better : bool; noise_floor : float }

val classify : string -> field_class
(** Classification of a JSON object key, as described above. *)

type comparison = {
  path : string;  (** JSONPath-style location, e.g. [$.sim[2].ns_per_gate_flat]. *)
  higher_better : bool;
  baseline : float;
  fresh : float;
  ratio : float;  (** Regression ratio: 1.0 is parity, above 1.0 is slower. *)
}

type result = {
  timings : comparison list;
  exact_checked : int;
      (** Numeric fields compared for equality: those classified {!Exact},
          plus scrubbed timing fields. *)
  exact_mismatches : string list;
  structural_errors : string list;
  ignored : int;
}

val compare_docs : baseline:Json.t -> fresh:Json.t -> result

val median_regression : result -> float
(** Median of the timing ratios; [1.0] when there are none. *)

val default_tolerance : float
(** [0.25]: fail beyond a 25% median regression. *)

type verdict =
  | Ok
  | Regression of string  (** Timing past tolerance, or exact-field drift. *)
  | Structural of string list  (** Documents are not comparable. *)

val evaluate : ?tolerance:float -> result -> verdict

val passes : ?tolerance:float -> result -> bool

val render : ?tolerance:float -> label:string -> result -> string
(** Human-readable verdict: header, any errors, the five worst timing
    fields, and the PASS/FAIL line. *)
