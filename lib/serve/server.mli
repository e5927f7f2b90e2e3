(** The [fastsc serve] daemon loop.

    Reads JSONL compile requests from stdin (default) or a Unix-domain
    socket, submits them to the process pool ({!Fastsc_util.Pool.submit};
    inline when [FASTSC_JOBS=1]), and writes one compact JSON response
    line per request.  Admission control sheds load beyond [max_inflight]
    with structured [overloaded] errors.  EOF, SIGTERM and SIGINT stop
    intake and drain in-flight requests for at most [drain_grace_ms];
    requests still queued or running when the grace expires are dropped
    when the process exits, which nothing waits on.

    When [snapshot_dir] is set, the solver memo cache is loaded from a
    checksummed snapshot at boot (corrupt files are quarantined, never a
    crash) and re-saved every [snapshot_every] completed requests and at
    drain. *)

type config = {
  socket : string option;  (** Unix-socket path; [None] = stdin/stdout. *)
  deadline_ms : float option;
      (** Default per-request budget for requests that carry none. *)
  max_inflight : int;  (** Admission-control bound; excess is shed. *)
  snapshot_dir : string option;  (** Where solver-cache snapshots live. *)
  snapshot_every : int;  (** Snapshot period in completed requests; 0 = only at drain. *)
  stats_every : int;
      (** Emit the {!Telemetry} stats line to stderr every this many
          completed requests; 0 (the default) disables it, and then no
          request is recorded. *)
  drain_grace_ms : float;  (** Grace for in-flight requests at shutdown. *)
  scrub : bool;
      (** Zero latency fields in responses (also [FASTSC_SERVE_SCRUB=1]). *)
}

val default_config : config
(** stdin transport, no default deadline, [max_inflight = 64],
    no snapshots, [snapshot_every = 32], stats line off, 2 s drain grace,
    no scrub. *)

val run : config -> unit
(** Run the daemon until EOF on its transport or SIGTERM/SIGINT, then
    drain and return.  Installs signal handlers for the duration. *)
