(** Bounded retry with exponential backoff and deterministic jitter.

    Used around snapshot IO, with one fixed policy: 3 attempts; the backoff
    after attempt [k] fails is [min (10 * 2^k) 1000] ms, scaled by a jitter
    factor in [0.75, 1.25] that is a pure hash of [k] — deterministic, so
    test runs replay identical schedules. *)

val backoff_ms : int -> float
(** The sleep (in milliseconds) before retrying after attempt [k] failed.
    Exposed for tests; always within [[0, 1250]]. *)

val with_backoff : ?sleep:(float -> unit) -> (int -> 'a) -> 'a
(** [with_backoff f] calls [f 0]; on an exception it sleeps per the backoff
    schedule and calls [f 1], then [f 2], and re-raises the third failure
    with its backtrace.  [sleep] (default [Unix.sleepf], argument in
    milliseconds) is injectable for tests. *)
