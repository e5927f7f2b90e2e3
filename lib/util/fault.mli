(** Deliberate-fault injection for the layered verification harness.

    A catalog of seeded bugs, each at one named site in the code base,
    activated one at a time via [FASTSC_FAULT=<name>].  Tier D of
    [make verify] runs each fault's listed suites and asserts at least one
    of them fails — a mutation-style check that the test suite would
    actually catch a regression of that shape.

    With [FASTSC_FAULT] unset every site takes its correct path; sites bind
    the decision to a module-level [bool] at initialisation (never a [lazy],
    which is unsafe to force for the first time from concurrent domains), so
    the correct path pays one load per call and nothing re-reads the
    environment in a hot loop. *)

type spec = {
  name : string;  (** The [FASTSC_FAULT] value that activates the fault. *)
  site : string;  (** [Module.function] the fault lives in. *)
  description : string;  (** What the seeded bug does. *)
  suites : string list;
      (** Test suites (alcotest suite names) expected to catch it; the fault
          sweep runs these and demands at least one failure. *)
}

val catalog : spec list
(** Every seeded fault, in a stable order. *)

val names : string list
(** The catalog's fault names. *)

val find : string -> spec option

val active : unit -> string option
(** The fault selected by [FASTSC_FAULT], resolved once per process when
    this module is initialised.  The process exits with code 2 on an unknown
    name — a typo must not silently inject nothing. *)

val enabled : string -> bool
(** [enabled name] is true when [FASTSC_FAULT] selects [name].
    @raise Invalid_argument if [name] is not in the catalog (a site guarding
    itself with a misspelled name would otherwise never fire). *)
