(* Meta-tests for the layered verification harness itself (docs/DESIGN.md
   §11): the seeded-fault catalog is actually caught by the suites it names,
   the perf-regression gate's classifier and verdicts behave as documented,
   the standalone perf_gate executable wires exit codes correctly, and the
   verify_report document round-trips through the in-tree JSON parser. *)
open Helpers
module Perf_gate = Fastsc_verify.Perf_gate
module Verify_report = Fastsc_verify.Verify_report

(* -- seeded-fault catalog --------------------------------------------------- *)

(* Re-spawn this very test binary with FASTSC_FAULT set; the faulted child
   runs one suite and its exit code says whether the suite caught the bug. *)
let run_suite ?fault suite =
  let fault_env =
    match fault with
    | None -> ""
    | Some name -> Printf.sprintf "FASTSC_FAULT=%s " (Filename.quote name)
  in
  Sys.command
    (Printf.sprintf "%sFASTSC_PROPTEST_COUNT=25 %s test %s > /dev/null 2>&1" fault_env
       (Filename.quote Sys.executable_name)
       (Filename.quote suite))

let test_every_fault_is_caught () =
  (* mutation-style self-check: for every cataloged fault, at least one of
     its listed suites must fail while the fault is active *)
  List.iter
    (fun spec ->
      check_true
        (Printf.sprintf "fault %s names at least one suite" spec.Fault.name)
        (spec.Fault.suites <> []);
      let caught = List.exists (fun suite -> run_suite ~fault:spec.Fault.name suite <> 0) in
      check_true
        (Printf.sprintf "fault %s (%s) caught by one of [%s]" spec.Fault.name spec.Fault.site
           (String.concat "; " spec.Fault.suites))
        (caught spec.Fault.suites))
    Fault.catalog

let test_clean_run_is_green () =
  (* the same suites pass with no fault active — the sweep above fails for
     the right reason, not because the suites are broken outright *)
  let suites =
    List.sort_uniq compare (List.concat_map (fun s -> s.Fault.suites) Fault.catalog)
  in
  List.iter
    (fun suite ->
      check_int (Printf.sprintf "suite %s green without faults" suite) 0 (run_suite suite))
    suites

let test_unknown_fault_exits_2 () =
  check_int "unknown fault name is a usage error, not a silent no-op" 2
    (run_suite ~fault:"no-such-fault" "rng")

(* -- perf gate: field classification ---------------------------------------- *)

let test_classify () =
  let check_class name key expected =
    check_true name (Perf_gate.classify key = expected)
  in
  check_class "jobs is machine shape" "jobs" Perf_gate.Ignored;
  check_class "speedup ratios are scheduling noise" "speedup_vs_serial" Perf_gate.Ignored;
  check_class "per_sec is throughput, higher better" "trials_per_sec"
    (Perf_gate.Timing { higher_better = true; noise_floor = 0.0 });
  check_class "ns token is a timing" "ns_per_op"
    (Perf_gate.Timing { higher_better = false; noise_floor = 20.0 });
  check_class "ms token is a timing" "warm_ms"
    (Perf_gate.Timing { higher_better = false; noise_floor = 2.0 });
  check_class "wall token is a timing" "wall_seconds"
    (Perf_gate.Timing { higher_better = false; noise_floor = 0.01 });
  check_class "counters are exact" "entries" Perf_gate.Exact;
  check_class "n_qubits is exact" "n_qubits" Perf_gate.Exact;
  (* token match, not substring: "msg" merely contains "ms" *)
  check_class "ms must be a whole token" "msg" Perf_gate.Exact

(* -- perf gate: document comparison ----------------------------------------- *)

let fixture name = Json.parse_file (Filename.concat "../bench/baselines" name)

let test_identical_docs_pass () =
  let doc = fixture "fixture_base.json" in
  let r = Perf_gate.compare_docs ~baseline:doc ~fresh:doc in
  check_true "no structural errors" (r.Perf_gate.structural_errors = []);
  check_true "no exact drift" (r.Perf_gate.exact_mismatches = []);
  check_float "median at parity" 1.0 (Perf_gate.median_regression r);
  check_true "gate passes" (Perf_gate.passes r);
  check_int "jobs and speedup ignored" 2 r.Perf_gate.ignored

let test_twofold_slowdown_fails () =
  let r =
    Perf_gate.compare_docs ~baseline:(fixture "fixture_base.json")
      ~fresh:(fixture "fixture_slow2x.json")
  in
  check_true "comparable" (r.Perf_gate.structural_errors = []);
  check_true "checksums unchanged" (r.Perf_gate.exact_mismatches = []);
  check_float "median regression is 2x" 2.0 (Perf_gate.median_regression r);
  (match Perf_gate.evaluate r with
  | Perf_gate.Regression _ -> ()
  | _ -> Alcotest.fail "expected Regression verdict");
  (* a slack gate would let it through; the default 25% must not *)
  check_true "fails at default tolerance" (not (Perf_gate.passes r));
  check_true "passes only with an absurd tolerance" (Perf_gate.passes ~tolerance:1.5 r)

let obj fields = Json.Obj fields

let test_exact_drift_fails () =
  let baseline = obj [ ("cycles", Json.Int 40); ("warm_ms", Json.Float 8.0) ] in
  let fresh = obj [ ("cycles", Json.Int 41); ("warm_ms", Json.Float 8.0) ] in
  let r = Perf_gate.compare_docs ~baseline ~fresh in
  check_int "one exact mismatch" 1 (List.length r.Perf_gate.exact_mismatches);
  match Perf_gate.evaluate r with
  | Perf_gate.Regression why -> check_true "names the field" (contains why "cycles")
  | _ -> Alcotest.fail "expected Regression verdict"

(* The report's header counts the exact fields compared, not the ones that
   drifted: a passing sim gate once read "0 exact field(s) checked". *)
let test_report_counts_exact_fields () =
  let doc =
    obj
      [
        ("jobs", Json.Int 2);
        ("qubits", Json.Int 8);
        ("engine", obj [ ("cycles", Json.Int 3); ("warm_ms", Json.Float 8.0) ]);
        ( "runs",
          Json.List
            [ obj [ ("mean_fidelity", Json.Float 0.25) ]; obj [ ("mean_fidelity", Json.Float 0.5) ] ]
        );
        ("wall_seconds", Json.Float 0.0);
        ("label", Json.String "sim");
      ]
  in
  let r = Perf_gate.compare_docs ~baseline:doc ~fresh:doc in
  check_int "exact fields compared" 5 r.Perf_gate.exact_checked;
  check_true "report says 5"
    (contains (Perf_gate.render ~label:"t" r)
       "1 timing field(s), 5 exact field(s) checked, 1 ignored");
  let sim = fixture "sim.json" in
  let r = Perf_gate.compare_docs ~baseline:sim ~fresh:sim in
  check_true "sim baseline report counts its eight exact fields"
    (contains (Perf_gate.render ~label:"sim" r) "8 exact field(s) checked")

(* A change to the shape of BENCH_sim.json must come with the matching
   baseline edit.  One smoke-sized run (the knobs of `make bench-sim`) in a
   temp directory must compare against bench/baselines/sim.json with no
   structural error; its values are not compared, since smoke sizes differ
   from the pinned run's. *)
let test_sim_bench_matches_baseline_schema () =
  let bench = Filename.concat (Sys.getcwd ()) "../bench/main.exe" in
  let dir = Filename.temp_file "fastsc_bench_sim" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  let fresh_path = Filename.concat dir "BENCH_sim.json" in
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists fresh_path then Sys.remove fresh_path;
      Sys.rmdir dir)
    (fun () ->
      let knobs =
        "FASTSC_SIM_QUBITS=6 FASTSC_SIM_BIG_QUBITS=8 FASTSC_SIM_CYCLES=2 FASTSC_SIM_TRIALS=20 \
         FASTSC_SIM_TRAJ_QUBITS=4 FASTSC_SIM_DENSITY_QUBITS=4 FASTSC_SIM_BUDGET_MS=20"
      in
      check_int "bench sim exits 0" 0
        (Sys.command
           (Printf.sprintf "cd %s && %s %s sim > /dev/null 2>&1" (Filename.quote dir) knobs
              (Filename.quote bench)));
      let r =
        Perf_gate.compare_docs ~baseline:(fixture "sim.json") ~fresh:(Json.parse_file fresh_path)
      in
      check_true
        (Printf.sprintf "no structural error against the baseline [%s]"
           (String.concat "; " r.Perf_gate.structural_errors))
        (r.Perf_gate.structural_errors = []))

let test_structural_mismatch_fails () =
  let baseline = obj [ ("a", Json.Int 1); ("b", Json.Int 2) ] in
  let fresh = obj [ ("a", Json.Int 1); ("c", Json.Int 3) ] in
  let r = Perf_gate.compare_docs ~baseline ~fresh in
  check_int "missing and extra key both reported" 2
    (List.length r.Perf_gate.structural_errors);
  (match Perf_gate.evaluate r with
  | Perf_gate.Structural _ -> ()
  | _ -> Alcotest.fail "expected Structural verdict");
  let r_len =
    Perf_gate.compare_docs
      ~baseline:(obj [ ("xs", Json.List [ Json.Int 1 ]) ])
      ~fresh:(obj [ ("xs", Json.List [ Json.Int 1; Json.Int 2 ]) ])
  in
  check_true "array length mismatch is structural"
    (r_len.Perf_gate.structural_errors <> [])

let test_scrubbed_baseline_demands_scrubbed_fresh () =
  let doc v = obj [ ("wall_seconds", Json.Float v) ] in
  let ok = Perf_gate.compare_docs ~baseline:(doc 0.0) ~fresh:(doc 0.0) in
  check_true "scrubbed vs scrubbed passes" (Perf_gate.passes ok);
  check_true "scrubbed fields contribute no ratio" (ok.Perf_gate.timings = []);
  let bad = Perf_gate.compare_docs ~baseline:(doc 0.0) ~fresh:(doc 0.5) in
  check_true "unscrubbed fresh against scrubbed baseline fails"
    (not (Perf_gate.passes bad))

let test_noise_floor_snaps_to_parity () =
  let doc v = obj [ ("warm_ms", Json.Float v) ] in
  let near = Perf_gate.compare_docs ~baseline:(doc 1.0) ~fresh:(doc 2.5) in
  (* 2.5x slower, but only 1.5 ms absolute — under the 2 ms floor *)
  check_float "sub-floor difference is parity" 1.0 (Perf_gate.median_regression near);
  let far = Perf_gate.compare_docs ~baseline:(doc 10.0) ~fresh:(doc 25.0) in
  check_float "past the floor the true ratio shows" 2.5 (Perf_gate.median_regression far)

let test_median_math () =
  let doc vals =
    obj (List.mapi (fun i v -> (Printf.sprintf "t%d_ms" i, Json.Float v)) vals)
  in
  let median base fresh =
    Perf_gate.median_regression (Perf_gate.compare_docs ~baseline:(doc base) ~fresh:(doc fresh))
  in
  (* odd count: the middle ratio; one outlier cannot drag the gate *)
  check_float "odd median" 1.0 (median [ 10.0; 10.0; 10.0 ] [ 10.0; 10.0; 100.0 ]);
  (* even count: mean of the middle two *)
  check_float "even median" 1.5 (median [ 10.0; 10.0 ] [ 10.0; 20.0 ]);
  (* throughput fields invert: halved per_sec is a 2x regression *)
  let r =
    Perf_gate.compare_docs
      ~baseline:(obj [ ("ops_per_sec", Json.Float 100.0) ])
      ~fresh:(obj [ ("ops_per_sec", Json.Float 50.0) ])
  in
  check_float "higher-better ratio inverts" 2.0 (Perf_gate.median_regression r)

(* -- perf gate: standalone executable --------------------------------------- *)

let run_gate baseline fresh =
  Sys.command
    (Printf.sprintf "../bench/perf_gate.exe --baseline %s --fresh %s > /dev/null 2>&1"
       (Filename.quote (Filename.concat "../bench/baselines" baseline))
       (Filename.quote (Filename.concat "../bench/baselines" fresh)))

let test_gate_exe_exit_codes () =
  check_int "identical fixtures exit 0" 0 (run_gate "fixture_base.json" "fixture_base.json");
  check_int "2x slowdown exits 1" 1 (run_gate "fixture_base.json" "fixture_slow2x.json");
  check_int "unreadable file exits 2" 2 (run_gate "fixture_base.json" "no_such_fixture.json")

(* -- verify_report ----------------------------------------------------------- *)

let sample_cells =
  [
    Verify_report.cell ~tier:"R" ~name:"prop_smt seed=+0 jobs=1" ~seconds:0.5
      ~detail:[ ("jobs", Json.Int 1) ]
      Verify_report.Pass;
    Verify_report.cell ~tier:"R" ~name:"prop_smt seed=+1 jobs=4" ~seconds:0.25
      (Verify_report.Fail "exit 1");
    Verify_report.cell ~tier:"D" ~name:"fault smt-resolve-flip" ~seconds:1.0 Verify_report.Pass;
    Verify_report.cell ~tier:"W" ~name:"perf gate sim" ~seconds:2.25 Verify_report.Pass;
  ]

let test_report_round_trips () =
  let doc =
    Verify_report.to_json ~meta:[ ("mode", Json.String "full") ] sample_cells
  in
  (* through the emitter and back through the parser *)
  let parsed = Json.parse (Json.to_string doc) in
  check_true "meta survives" (Json.member "mode" parsed = Some (Json.String "full"));
  match Json.member "cells" parsed with
  | Some (Json.List cells) ->
    check_int "all cells serialized" (List.length sample_cells) (List.length cells);
    let first = List.hd cells in
    check_true "tier field" (Json.member "tier" first = Some (Json.String "R"));
    (match Json.member "detail" first with
    | Some detail -> check_true "replay material kept" (Json.member "jobs" detail = Some (Json.Int 1))
    | None -> Alcotest.fail "detail missing");
    let second = List.nth cells 1 in
    (match Json.member "outcome" second with
    | Some outcome ->
      check_true "failure status" (Json.member "status" outcome = Some (Json.String "fail"));
      (match Json.member "reason" outcome with
      | Some (Json.String s) -> check_true "failure carries its reason" (contains s "exit 1")
      | _ -> Alcotest.fail "reason missing")
    | None -> Alcotest.fail "outcome missing")
  | _ -> Alcotest.fail "cells list missing"

let test_report_summaries () =
  let summaries = Verify_report.summarize sample_cells in
  (match summaries with
  | [ r; d; w ] ->
    check_true "R first" (r.Verify_report.ts_tier = "R");
    check_int "R pass count" 1 r.Verify_report.ts_passed;
    check_int "R total" 2 r.Verify_report.ts_total;
    check_int "D all green" d.Verify_report.ts_passed d.Verify_report.ts_total;
    check_float "W seconds accumulated" 2.25 w.Verify_report.ts_seconds
  | _ -> Alcotest.fail "expected exactly tiers R, D, W");
  let line = Verify_report.summary_line sample_cells in
  check_true "one failed cell fails the line" (contains line "FAIL");
  check_true "per-tier counts shown" (contains line "R 1/2");
  let green = List.filter Verify_report.passed sample_cells in
  check_true "all-green line passes" (contains (Verify_report.summary_line green) "PASS")

let suite =
  [
    Alcotest.test_case "every cataloged fault is caught" `Slow test_every_fault_is_caught;
    Alcotest.test_case "fault suites green when clean" `Slow test_clean_run_is_green;
    Alcotest.test_case "unknown fault exits 2" `Quick test_unknown_fault_exits_2;
    Alcotest.test_case "classify by key name" `Quick test_classify;
    Alcotest.test_case "identical docs pass" `Quick test_identical_docs_pass;
    Alcotest.test_case "2x slowdown fails" `Quick test_twofold_slowdown_fails;
    Alcotest.test_case "report counts exact fields" `Quick test_report_counts_exact_fields;
    Alcotest.test_case "exact drift fails" `Quick test_exact_drift_fails;
    Alcotest.test_case "structural mismatch fails" `Quick test_structural_mismatch_fails;
    Alcotest.test_case "scrubbed baseline convention" `Quick
      test_scrubbed_baseline_demands_scrubbed_fresh;
    Alcotest.test_case "noise floor snaps to parity" `Quick test_noise_floor_snaps_to_parity;
    Alcotest.test_case "median math" `Quick test_median_math;
    Alcotest.test_case "gate executable exit codes" `Quick test_gate_exe_exit_codes;
    Alcotest.test_case "sim bench matches the baseline schema" `Quick
      test_sim_bench_matches_baseline_schema;
    Alcotest.test_case "report round-trips" `Quick test_report_round_trips;
    Alcotest.test_case "report summaries" `Quick test_report_summaries;
  ]
