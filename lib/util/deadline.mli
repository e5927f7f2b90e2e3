(** Monotonic deadlines for budget-bounded compilation.

    The serve layer gives every request a wall-clock budget; passes and SMT
    solves poll the deadline at chunk boundaries and abandon work by raising
    {!Expired}, which the degradation ladder catches to fall back to a
    cheaper tier.  All arithmetic is on [CLOCK_MONOTONIC] nanoseconds, so
    budgets survive NTP steps and wall-clock jumps.

    Two ways to consume a deadline:

    - {b explicit}: a {!t} is an immutable record, safe to hand to any
      domain and check with {!expired}/{!remaining_ms};
    - {b ambient}: {!with_deadline} installs a deadline in per-domain
      storage for the dynamic extent of a call, and {!check} (sprinkled
      through passes and solver loops) raises when it has passed.  Work
      handed to another domain does not see it unless that domain installs
      it again. *)

exception Expired of string
(** Raised by {!check} when the ambient deadline has passed.  The payload
    names the deadline's label and, when given, the site that noticed. *)

type t
(** An instant on the monotonic timeline. *)

val now_ns : unit -> int64
(** [CLOCK_MONOTONIC] now, in nanoseconds. *)

val now_s : unit -> float
(** Monotonic now in seconds — the drop-in replacement for
    [Unix.gettimeofday] in elapsed-time instrumentation. *)

val after_ms : ?label:string -> float -> t
(** [after_ms ~label b] is the deadline [b] milliseconds from now.
    @raise Invalid_argument when the budget is negative or not finite. *)

val label : t -> string

val remaining_ms : t -> float
(** Milliseconds until the deadline; negative once it has passed. *)

val expired : t -> bool

val with_deadline : t -> (unit -> 'a) -> 'a
(** [with_deadline d f] runs [f] with [d] as the ambient deadline of the
    current domain, restoring the previous one afterwards (exceptions
    included).  Nesting tightens: if an enclosing ambient deadline expires
    sooner than [d], it stays in force. *)

val current : unit -> t option
(** The ambient deadline of the calling domain, if any. *)

val check : ?site:string -> unit -> unit
(** Poll the ambient deadline; a no-op when none is installed or time
    remains.
    @raise Expired when the ambient deadline has passed. *)
