(* Meta-tests for the layered verification harness itself (DESIGN.md
   §11): an unknown seeded-fault name is refused, and the verify_report
   document round-trips through the in-tree JSON parser.  Whether each
   cataloged fault is caught is tier D's sweep in `make verify`. *)
open Helpers
module Verify_report = Fastsc_verify.Verify_report

(* -- seeded-fault catalog --------------------------------------------------- *)

(* A typo in FASTSC_FAULT must refuse to run, not silently inject nothing:
   re-spawn this very test binary with a name the catalog lacks. *)
let test_unknown_fault_exits_2 () =
  let code =
    Sys.command
      (Printf.sprintf "FASTSC_FAULT=no-such-fault %s test rng > /dev/null 2>&1"
         (Filename.quote Sys.executable_name))
  in
  check_int "unknown fault name is a usage error, not a silent no-op" 2 code

(* -- verify_report ----------------------------------------------------------- *)

let sample_cells =
  [
    Verify_report.cell ~tier:"R" ~name:"prop_smt seed=+0 jobs=1" ~seconds:0.5
      ~detail:[ ("jobs", Json.Int 1) ]
      Verify_report.Pass;
    Verify_report.cell ~tier:"R" ~name:"prop_smt seed=+1 jobs=4" ~seconds:0.25
      (Verify_report.Fail "exit 1");
    Verify_report.cell ~tier:"D" ~name:"fault smt-resolve-flip" ~seconds:1.0 Verify_report.Pass;
    Verify_report.cell ~tier:"W" ~name:"perfbench paper-compile" ~seconds:2.25 Verify_report.Pass;
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
    Alcotest.test_case "unknown fault exits 2" `Quick test_unknown_fault_exits_2;
    Alcotest.test_case "report round-trips" `Quick test_report_round_trips;
    Alcotest.test_case "report summaries" `Quick test_report_summaries;
  ]
