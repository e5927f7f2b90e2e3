open Helpers
open Fastsc_util

(* Crash-safe snapshots: atomic write, checksummed load, quarantine instead
   of crash.  The corrupt-checksum test is the sentinel for the seeded
   snapshot-checksum-skip fault: with validation disabled, a flipped digit
   loads as if nothing were wrong. *)

let in_tmp name f =
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "fastsc_snap_%d_%s" (Unix.getpid ()) name)
  in
  let cleanup () =
    List.iter
      (fun p -> try Sys.remove p with Sys_error _ -> ())
      [ path; path ^ ".tmp"; path ^ ".corrupt" ]
  in
  cleanup ();
  Fun.protect ~finally:cleanup (fun () -> f path)

let payload =
  Json.Obj [ ("cache", Json.List [ Json.Int 1; Json.Int 2; Json.Int 3 ]) ]

let test_fnv64_vectors () =
  (* published FNV-1a 64-bit vectors *)
  check_true "fnv64 of empty" (Snapshot.fnv64 "" = "cbf29ce484222325");
  check_true "fnv64 of \"a\"" (Snapshot.fnv64 "a" = "af63dc4c8601ec8c");
  check_true "fnv64 of \"foobar\"" (Snapshot.fnv64 "foobar" = "85944171f73967e8")

let test_round_trip () =
  in_tmp "round_trip" (fun path ->
      Snapshot.save ~path ~version:3 payload;
      check_true "no tmp file left behind" (not (Sys.file_exists (path ^ ".tmp")));
      match Snapshot.load ~path ~version:3 with
      | Snapshot.Loaded got -> check_true "payload survives" (got = payload)
      | Snapshot.Missing -> Alcotest.fail "snapshot missing after save"
      | Snapshot.Quarantined reason -> Alcotest.fail ("quarantined: " ^ reason))

let test_missing () =
  in_tmp "missing" (fun path ->
      check_true "absent file is Missing" (Snapshot.load ~path ~version:1 = Snapshot.Missing))

(* Sentinel for FASTSC_FAULT=snapshot-checksum-skip: with validation
   disabled, the flipped checksum digit loads as Loaded instead of being
   quarantined. *)
let test_corrupt_checksum_quarantined () =
  in_tmp "corrupt" (fun path ->
      Snapshot.save ~path ~version:1 payload;
      let text = In_channel.with_open_bin path In_channel.input_all in
      let marker = "\"checksum\":\"" in
      let index_of hay needle =
        let n = String.length needle in
        let rec go i =
          if i + n > String.length hay then Alcotest.fail "marker not found"
          else if String.sub hay i n = needle then i
          else go (i + 1)
        in
        go 0
      in
      let i = index_of text marker + String.length marker in
      let flipped = if text.[i] = '0' then '1' else '0' in
      let corrupted = String.mapi (fun j c -> if j = i then flipped else c) text in
      Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc corrupted);
      match Snapshot.load ~path ~version:1 with
      | Snapshot.Quarantined reason ->
        check_true "reason names the checksum" (contains reason "checksum");
        check_true "file moved aside" (Sys.file_exists (path ^ ".corrupt"));
        check_true "original gone" (not (Sys.file_exists path))
      | Snapshot.Loaded _ -> Alcotest.fail "corrupt snapshot loaded"
      | Snapshot.Missing -> Alcotest.fail "corrupt snapshot reported missing")

let test_garbage_quarantined () =
  in_tmp "garbage" (fun path ->
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_string oc "not json at all {{{");
      match Snapshot.load ~path ~version:1 with
      | Snapshot.Quarantined _ -> check_true "file moved aside" (Sys.file_exists (path ^ ".corrupt"))
      | _ -> Alcotest.fail "garbage file not quarantined")

let test_version_mismatch_quarantined () =
  in_tmp "version" (fun path ->
      Snapshot.save ~path ~version:1 payload;
      match Snapshot.load ~path ~version:2 with
      | Snapshot.Quarantined reason -> check_true "reason names the version" (contains reason "version")
      | Snapshot.Loaded _ -> Alcotest.fail "wrong-version snapshot loaded"
      | Snapshot.Missing -> Alcotest.fail "wrong-version snapshot reported missing")

let test_save_overwrites_atomically () =
  in_tmp "overwrite" (fun path ->
      Snapshot.save ~path ~version:1 payload;
      let bigger = Json.Obj [ ("cache", Json.List (List.init 64 (fun i -> Json.Int i))) ] in
      Snapshot.save ~path ~version:1 bigger;
      match Snapshot.load ~path ~version:1 with
      | Snapshot.Loaded got -> check_true "second save wins" (got = bigger)
      | _ -> Alcotest.fail "overwritten snapshot unreadable")

(* Retry backs the snapshot writer; its schedule must be deterministic *)
let test_retry_backoff_schedule () =
  let b = Retry.backoff_ms in
  check_true "deterministic" (b 3 = b 3);
  for k = 0 to 12 do
    let v = b k in
    check_true "non-negative" (v >= 0.0);
    check_true "bounded by the jittered 1 s cap" (v <= 1000.0 *. 1.25)
  done;
  check_true "first backoff near 10 ms" (b 0 >= 7.5 && b 0 <= 12.5);
  check_true "second backoff near 20 ms" (b 1 >= 15.0 && b 1 <= 25.0)

let test_retry_with_backoff () =
  let sleeps = ref [] in
  let sleep ms = sleeps := ms :: !sleeps in
  let calls = ref 0 in
  let r =
    Retry.with_backoff ~sleep (fun k ->
        incr calls;
        if k < 2 then failwith "flaky" else k)
  in
  check_int "succeeds on the third call" 2 r;
  check_int "two failures before" 3 !calls;
  check_true "slept the schedule between attempts"
    (List.rev !sleeps = [ Retry.backoff_ms 0; Retry.backoff_ms 1 ]);
  (* the third failure re-raises *)
  let fails = ref 0 in
  check_true "re-raises after three attempts"
    (match Retry.with_backoff ~sleep (fun k -> incr fails; failwith (string_of_int k)) with
    | _ -> false
    | exception Failure msg -> msg = "2");
  check_int "called exactly three times" 3 !fails

let test_solver_cache_export_import () =
  (* the daemon's actual payload: Freq_alloc's memo table codec *)
  let exported = Fastsc_core.Freq_alloc.export_cache () in
  let n = Fastsc_core.Freq_alloc.import_cache exported in
  check_true "import accepts its own export" (n >= 0);
  check_true "empty document imports zero entries"
    (Fastsc_core.Freq_alloc.import_cache (Json.Obj []) = 0);
  (* an entry without a placement order is skipped like a malformed one *)
  let entry order =
    Json.Obj
      [
        ("n", Json.Int 1); ("lo", Json.Float (-2.0)); ("hi", Json.Float (-1.0));
        ("alpha", Json.Float 0.0); ("order", order); ("delta", Json.Float 1.0);
        ("freqs", Json.List [ Json.Float (-2.0) ]);
      ]
  in
  let doc =
    Json.Obj
      [ ("solver_cache", Json.List [ entry Json.Null; entry (Json.List [ Json.Int 0 ]) ]) ]
  in
  check_int "null order skipped" 1 (Fastsc_core.Freq_alloc.import_cache doc);
  Fastsc_core.Freq_alloc.reset_solver_cache ()

let suite =
  [
    Alcotest.test_case "fnv64 vectors" `Quick test_fnv64_vectors;
    Alcotest.test_case "round trip" `Quick test_round_trip;
    Alcotest.test_case "missing file" `Quick test_missing;
    Alcotest.test_case "corrupt checksum quarantined" `Quick test_corrupt_checksum_quarantined;
    Alcotest.test_case "garbage quarantined" `Quick test_garbage_quarantined;
    Alcotest.test_case "version mismatch quarantined" `Quick test_version_mismatch_quarantined;
    Alcotest.test_case "save overwrites atomically" `Quick test_save_overwrites_atomically;
    Alcotest.test_case "retry backoff schedule" `Quick test_retry_backoff_schedule;
    Alcotest.test_case "retry with_backoff" `Quick test_retry_with_backoff;
    Alcotest.test_case "solver cache export/import" `Quick test_solver_cache_export_import;
  ]
