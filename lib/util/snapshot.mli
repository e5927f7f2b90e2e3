(** Crash-safe snapshot files for warm-cache persistence.

    The serve daemon persists its memo caches so a restart boots warm.  A
    snapshot is a versioned, checksummed JSON envelope written atomically
    (temp file + [rename]); loading validates everything and {b never
    raises} on a bad file — it quarantines the file to [path ^ ".corrupt"]
    and reports the reason, so a corrupt snapshot costs a cold cache, not a
    boot failure. *)

type load_result =
  | Loaded of Json.t  (** Envelope valid; the decoded payload. *)
  | Missing  (** No file at [path] — first boot. *)
  | Quarantined of string
      (** The file was unreadable, failed its checksum, or carried the wrong
          version; it has been renamed to [path ^ ".corrupt"] and the reason
          is given.  Boot cold. *)

val format_version : int
(** Version of the envelope itself (distinct from the caller's payload
    [~version]). *)

val fnv64 : string -> string
(** FNV-1a 64-bit hash as 16 hex digits — the snapshot checksum (exposed
    for tests). *)

val save : path:string -> version:int -> Json.t -> unit
(** [save ~path ~version payload] serializes the envelope to
    [path ^ ".tmp"] and renames it over [path] (atomic on POSIX).  IO
    errors are retried with {!Retry.with_backoff} (3 attempts) and the last
    one re-raised. *)

val load : path:string -> version:int -> load_result
(** Validate and decode the snapshot at [path].  Does not raise on bad
    input — see {!load_result}. *)
