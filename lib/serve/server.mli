(** The [fastsc serve] daemon loop.

    Reads JSONL compile requests from stdin (default) or a Unix-domain
    socket, submits them to the process pool ({!Fastsc_util.Pool.submit};
    inline when [FASTSC_JOBS=1]), and writes one compact JSON response
    line per request.  Admission control sheds load beyond [max_inflight]
    with structured [overloaded] errors.  EOF, SIGTERM and SIGINT stop
    intake and drain in-flight requests for at most [drain_grace_ms];
    requests still queued or running when the grace expires are dropped
    when the process exits, which nothing waits on.  The solver memo is not
    persisted: every daemon boots cold. *)

type config = {
  socket : string option;  (** Unix-socket path; [None] = stdin/stdout. *)
  deadline_ms : float option;
      (** Default per-request budget for requests that carry none. *)
  max_inflight : int;  (** Admission-control bound; excess is shed. *)
  stats_every : int;
      (** Emit the {!Telemetry} stats line to stderr every this many
          completed requests; 0 (the default) disables it, and then no
          request is recorded. *)
  drain_grace_ms : float;  (** Grace for in-flight requests at shutdown. *)
  scrub : bool;
      (** Zero latency fields in responses. *)
}

val run : config -> unit
(** Run the daemon until EOF on its transport or SIGTERM/SIGINT, then
    drain and return.  Installs signal handlers for the duration. *)
