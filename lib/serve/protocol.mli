(** Wire protocol of the compile service (JSONL requests and responses).

    A request line is a JSON object:

    {v
    { "id": "r1", "bench": "qaoa", "n": 9, "topology": "grid",
      "seed": 2020, "algorithm": "color-dynamic", "deadline_ms": 250,
      "warm_start": false, "decompose_components": false,
      "crosstalk_distance": 1 }
    v}

    Only ["id"] is mandatory; every other field has the CLI's default.  An
    inline ["qasm"] string replaces the named benchmark.  Responses are one
    compact JSON object per line: on success the evaluation metrics plus the
    degradation-ladder trace (tier, retries, per-tier latency); on failure a
    structured error with a stable [code]. *)

exception Bad_request of string
(** Raised by the decoders on any malformed request; the daemon maps it to
    an error response with code ["bad_request"].  Never escapes the serve
    loop. *)

type request = {
  id : string;
  bench : string;  (** Benchmark family (ignored when [qasm] is given). *)
  qasm : string option;  (** Inline OpenQASM circuit text. *)
  n : int;
  topology : string;  (** CLI topology spec: grid, path, ring, 1ex:k, 2ex:k, complete. *)
  seed : int;
  algorithm : string;  (** A name or alias of [Pass.schedulers]. *)
  deadline_ms : float option;  (** Per-request budget; [None] = server default. *)
  warm_start : bool;
  decompose_components : bool;
  crosstalk_distance : int;
}

val benchmark_names : string list

val parse_topology : string -> int -> Topology.t
(** [parse_topology spec n]: the [n]-qubit topology a spec names (the
    [topology] field of {!request}; the CLI's [--topology] too).
    @raise Bad_request on an unknown spec, bad parameters or a size the
    topology cannot have. *)

val make_benchmark : string -> int -> int -> Device.t -> Circuit.t
(** [make_benchmark name n seed device]: the named benchmark on [n] qubits,
    its random choices seeded by [seed] (XEB also reads the device's
    couplings).
    @raise Bad_request on a name outside {!benchmark_names} or a size the
    benchmark cannot have. *)

val request_of_json : Json.t -> request
(** @raise Bad_request on a non-object, missing [id], mistyped field,
    unknown benchmark, or a negative/non-finite deadline. *)

val parse_request : string -> request
(** Decode one request line ({!Json.parse} + {!request_of_json}).
    @raise Bad_request also on invalid JSON (including bodies nested beyond
    [Json.max_depth]). *)

val cache_key : request -> string
(** Canonical identity of the compile problem the request poses — every
    field that determines the answer and nothing else (no [id], no
    deadline).  Takes [algorithm] as written, so the degradation ladder,
    which keys its stale-witness cache on it, resolves aliases first. *)

val realize : request -> Device.t * Circuit.t
(** Fabricate the device and build (or parse) the circuit.
    @raise Bad_request on an unknown topology/benchmark or QASM errors. *)

(** One rung of the degradation ladder as tried for a request. *)
type attempt = {
  a_tier : string;
  a_ms : float;  (** Wall-clock spent on the attempt, milliseconds. *)
  a_outcome : string;  (** ["ok"], ["expired"], ["miss"], ["hit"] or ["error"]. *)
}

type ok_body = {
  ok_id : string;
  tier : string;  (** The rung that produced the witness. *)
  algorithm : string;
  retries : int;  (** Rungs that failed before [tier] succeeded. *)
  latency_ms : float;
  attempts : attempt list;  (** In the order tried. *)
  metrics : Schedule.metrics;
}

type error_code = Overloaded | Bad_request_code | Internal

type response =
  | Ok_response of ok_body
  | Error_response of { err_id : string; code : error_code; message : string }

val response_to_json : ?scrub:bool -> response -> Json.t
(** [scrub] (default false) zeroes every latency field ([latency_ms], each
    attempt's [ms]) — wall-clock is the only legitimately nondeterministic
    part of a response, and the smoke test byte-compares responses across
    job counts. *)

val response_line : ?scrub:bool -> response -> string
(** The response as one compact JSON line (no trailing newline). *)
