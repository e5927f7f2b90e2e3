(** Minimal JSON emitter and reader.

    Just enough JSON to hand schedules, metrics and control waveforms to
    external tooling (plotters, control stacks) without adding a dependency.
    Strings are escaped per RFC 8259, floats printed with round-trip
    precision, and non-finite floats encoded as strings (JSON has no
    Infinity/NaN literals).  The reader parses serve requests,
    perfbench's result line in [make verify], and the
    [fastsc compile --trace] reports of the schema tests. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : ?pretty:bool -> t -> string
(** Serialize; [pretty] (default true) indents with two spaces. *)

val escape : string -> string
(** The quoted, escaped form of a string (exposed for tests). *)

exception Parse_error of string
(** Raised by the reader on malformed input, with an offset and reason. *)

val max_depth : int
(** Maximum container nesting {!parse} accepts (512).  Deeper input raises
    {!Parse_error} instead of overflowing the stack — the reader sits on the
    serve daemon's request path, where bodies are adversarial. *)

val parse : string -> t
(** Parse one JSON value (surrounding whitespace allowed; anything after the
    value is an error).  Number tokens without ['.'], ['e'] or ['E'] become
    {!Int}, all others {!Float}; [\u] escapes decode to UTF-8, surrogate
    pairs included.
    @raise Parse_error on malformed input or nesting beyond {!max_depth}. *)

val member : string -> t -> t option
(** [member key json] is the field [key] of an {!Obj}, and [None] on a
    missing key or any non-object value. *)
