(* Crash-safe snapshot files for warm-cache persistence.

   A snapshot is a JSON envelope around a compact JSON payload string:

     { "fastsc_snapshot": 1,          -- envelope format
       "version": <caller version>,   -- payload schema version
       "checksum": "<fnv1a-64 hex>",  -- over the payload string
       "payload": "<compact JSON>" }

   Writes go to [path ^ ".tmp"] and land with [Unix.rename], so a crash
   mid-write leaves either the previous snapshot or none — never a torn
   file at [path].  Loads validate the envelope and checksum; anything
   wrong (truncation, bit rot, a stale schema) moves the file aside to
   [path ^ ".corrupt"] and reports why, so the caller reboots with a cold
   cache instead of crashing — and the evidence survives for inspection. *)

type load_result =
  | Loaded of Json.t
  | Missing
  | Quarantined of string

let format_version = 1

(* FNV-1a, 64-bit: tiny, dependency-free, and plenty to catch torn writes
   and bit rot (this is an integrity check, not an authentication one). *)
let fnv64 s =
  let open Int64 in
  let h = ref 0xCBF29CE484222325L in
  String.iter (fun c -> h := mul (logxor !h (of_int (Char.code c))) 0x100000001B3L) s;
  Printf.sprintf "%016Lx" !h

let save ~path ~version payload =
  let body = Json.to_string ~pretty:false payload in
  let doc =
    Json.Obj
      [
        ("fastsc_snapshot", Json.Int format_version);
        ("version", Json.Int version);
        ("checksum", Json.String (fnv64 body));
        ("payload", Json.String body);
      ]
  in
  let text = Json.to_string ~pretty:false doc in
  let tmp = path ^ ".tmp" in
  Retry.with_backoff (fun _attempt ->
      let oc = open_out_bin tmp in
      Fun.protect
        ~finally:(fun () -> close_out_noerr oc)
        (fun () ->
          output_string oc text;
          output_char oc '\n');
      Unix.rename tmp path)

(* Seeded fault for the verification harness (docs/DESIGN.md §11): load a
   snapshot without validating its checksum. *)
let fault_checksum_skip = Fault.enabled "snapshot-checksum-skip"

let quarantine ~path reason =
  (try Unix.rename path (path ^ ".corrupt") with Unix.Unix_error _ | Sys_error _ -> ());
  Quarantined reason

let load ~path ~version =
  if not (Sys.file_exists path) then Missing
  else
    match Json.parse_file path with
    | exception Json.Parse_error msg -> quarantine ~path msg
    | exception Sys_error msg -> quarantine ~path msg
    | doc -> (
      match
        ( Json.member "fastsc_snapshot" doc,
          Json.member "version" doc,
          Json.member "checksum" doc,
          Json.member "payload" doc )
      with
      | Some (Json.Int fmt), Some (Json.Int v), Some (Json.String sum), Some (Json.String body)
        ->
        if fmt <> format_version then
          quarantine ~path (Printf.sprintf "unsupported snapshot format %d" fmt)
        else if v <> version then
          quarantine ~path (Printf.sprintf "payload version %d (expected %d)" v version)
        else if (not fault_checksum_skip) && fnv64 body <> sum then
          quarantine ~path "checksum mismatch"
        else (
          match Json.parse body with
          | payload -> Loaded payload
          | exception Json.Parse_error msg -> quarantine ~path ("payload: " ^ msg))
      | _ -> quarantine ~path "missing or mistyped envelope field")
