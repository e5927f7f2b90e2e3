(* End-to-end tests of the fastsc CLI binary (declared as a test dependency
   in dune, so it is always built first and found relative to the test's
   working directory inside _build). *)
open Helpers
open Fastsc_core

let binary = Filename.concat (Filename.concat ".." "bin") "fastsc.exe"

let run_capture args =
  let out_file = Filename.temp_file "fastsc_cli" ".out" in
  let command =
    Printf.sprintf "%s %s > %s 2>&1" (Filename.quote binary) args (Filename.quote out_file)
  in
  let code = Sys.command command in
  let ic = open_in_bin out_file in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove out_file;
  (code, text)

let test_list () =
  let code, text = run_capture "list" in
  check_int "exit 0" 0 code;
  check_true "benchmarks listed" (contains text "xeb");
  check_true "algorithms listed" (contains text "color-dynamic")

let test_compile () =
  let code, text = run_capture "compile --bench bv --size 4 --algorithm cd" in
  check_int "exit 0" 0 code;
  check_true "metrics shown" (contains text "success probability");
  check_true "schedule summary" (contains text "color-dynamic schedule")

let test_compile_json () =
  let code, text = run_capture "compile --bench ghz --size 4 --json" in
  check_int "exit 0" 0 code;
  check_true "json artifact" (contains text "\"schedule\"");
  check_true "waveforms included" (contains text "\"waveforms\"")

let test_compile_draw () =
  let code, text = run_capture "compile --bench ghz --size 4 --draw" in
  check_int "exit 0" 0 code;
  check_true "wires drawn" (contains text "q0")

let test_sweep () =
  let code, text = run_capture "sweep --bench xeb --size 4" in
  check_int "exit 0" 0 code;
  check_true "all five columns" (contains text "baseline-u" && contains text "baseline-g")

let test_device () =
  let code, text = run_capture "device --size 4 --topology path" in
  check_int "exit 0" 0 code;
  check_true "frequency plan shown" (contains text "parking")

let test_qasm () =
  let code, text = run_capture "qasm --bench qft --size 3" in
  check_int "exit 0" 0 code;
  check_true "header" (contains text "OPENQASM 2.0;");
  check_true "parses back" (Circuit.length (Qasm.of_string text) > 0)

let test_qasm_native_is_native () =
  let code, text = run_capture "qasm --bench qft --size 3 --native --topology path" in
  check_int "exit 0" 0 code;
  let circuit = Qasm.of_string text in
  check_true "only native gates"
    (Array.for_all (fun app -> Gate.is_native app.Gate.gate) (Circuit.instructions circuit))

let test_validate () =
  let code, text = run_capture "validate --bench bv --size 4 --trials 50" in
  check_int "exit 0" 0 code;
  check_true "both estimates" (contains text "heuristic" && contains text "simulated")

let test_validate_usage_errors () =
  let code, text = run_capture "validate --bench bv --size 4 --trials 0" in
  check_int "--trials 0: usage error" 124 code;
  check_true "names --trials" (contains text "--trials");
  check_true "no uncaught exception" (not (contains text "uncaught exception"));
  let code, text = run_capture "validate --bench bv --size 30" in
  check_int "--size 30: usage error" 124 code;
  (* the message must name an option cmdliner accepts *)
  check_true "names -n/--size" (contains text "-n/--size");
  check_true "no --n" (not (contains text "--n "));
  (* a size the topology or the benchmark cannot have is a usage error too *)
  List.iter
    (fun args ->
      let code, text = run_capture args in
      check_int (args ^ ": usage error") 124 code;
      check_true (args ^ ": no uncaught exception") (not (contains text "uncaught exception")))
    ("compile --size 1" :: "compile --size 2 --topology ring"
    :: List.map
         (fun cmd -> cmd ^ " --size 0")
         [ "compile"; "device"; "sweep"; "validate"; "budget"; "calibrate"; "qasm" ])

let test_compile_qasm_input () =
  (* roundtrip through the CLI: export a circuit, compile it back in *)
  let qasm_file = Filename.temp_file "fastsc_cli" ".qasm" in
  let code, text = run_capture "qasm --bench ghz --size 4" in
  check_int "export ok" 0 code;
  let oc = open_out qasm_file in
  output_string oc text;
  close_out oc;
  let code, text =
    run_capture (Printf.sprintf "compile --input %s --size 4" (Filename.quote qasm_file))
  in
  Sys.remove qasm_file;
  check_int "compile ok" 0 code;
  check_true "metrics shown" (contains text "success probability")

let test_compile_chart () =
  let code, text = run_capture "compile --bench xeb --size 4 --chart" in
  check_int "exit 0" 0 code;
  check_true "legend shown" (contains text "interaction band")

let test_budget_command () =
  let code, text = run_capture "budget --bench xeb --size 4" in
  check_int "exit 0" 0 code;
  check_true "hotspots" (contains text "hotspot steps")

let test_calibrate_command () =
  let code, text = run_capture "calibrate --size 4 --topology path" in
  check_int "exit 0" 0 code;
  check_true "calibration shown" (contains text "iswap")

let test_bad_arguments () =
  let code, _ = run_capture "compile --bench nonsense" in
  check_true "nonzero exit" (code <> 0);
  let code, _ = run_capture "device --topology moebius" in
  check_true "nonzero exit" (code <> 0)

let test_unknown_algorithm_exit_2 () =
  List.iter
    (fun sub ->
      let code, text = run_capture (sub ^ " --bench bv --size 4 --algorithm nonsense") in
      check_int (sub ^ ": exit code 2") 2 code;
      check_true "names the bad algorithm" (contains text "nonsense");
      (* the error lists every known algorithm *)
      List.iter
        (fun a ->
          let name = Compile.algorithm_to_string a in
          check_true (sub ^ " error lists " ^ name) (contains text name))
        Compile.extended_algorithms)
    [ "compile"; "validate"; "budget" ]

let test_compile_trace () =
  let code, text = run_capture "compile --bench bv --size 4 --algorithm cd --trace" in
  check_int "exit 0" 0 code;
  check_true "names the algorithm" (contains text "\"algorithm\": \"color-dynamic\"");
  (* one report object per executed pass, schedule included *)
  List.iter
    (fun pass -> check_true ("trace covers " ^ pass) (contains text ("\"" ^ pass ^ "\"")))
    [ "place"; "route"; "decompose"; "optimize"; "schedule"; "evaluate" ];
  check_true "per-pass solver cache deltas" (contains text "\"solver_cache\"");
  check_true "pair cache deltas" (contains text "\"pair_cache\"");
  check_true "scheduler stats travel in the report" (contains text "\"max_colors_used\"");
  check_true "process-wide cache counters" (contains text "\"smt_solves_total\"");
  check_true "metrics included" (contains text "\"log10_success\"")

let test_compile_trace_components () =
  let code, text =
    run_capture "compile --bench xeb --size 9 --algorithm cd --trace --warm-start --decompose"
  in
  check_int "exit 0" 0 code;
  (* per-component solver statistics travel in the scheduler's pass report *)
  List.iter
    (fun field -> check_true ("trace reports " ^ field) (contains text ("\"" ^ field ^ "\"")))
    [
      "components";
      "component_max_size";
      "component_sizes";
      "component_solves";
      "warm_hits";
      "warm_misses";
    ]

let suite =
  [
    Alcotest.test_case "list" `Quick test_list;
    Alcotest.test_case "compile" `Quick test_compile;
    Alcotest.test_case "compile --json" `Quick test_compile_json;
    Alcotest.test_case "compile --draw" `Quick test_compile_draw;
    Alcotest.test_case "sweep" `Quick test_sweep;
    Alcotest.test_case "device" `Quick test_device;
    Alcotest.test_case "qasm" `Quick test_qasm;
    Alcotest.test_case "qasm --native" `Quick test_qasm_native_is_native;
    Alcotest.test_case "validate" `Quick test_validate;
    Alcotest.test_case "validate usage errors" `Quick test_validate_usage_errors;
    Alcotest.test_case "compile --input qasm" `Quick test_compile_qasm_input;
    Alcotest.test_case "compile --chart" `Quick test_compile_chart;
    Alcotest.test_case "budget" `Quick test_budget_command;
    Alcotest.test_case "calibrate" `Quick test_calibrate_command;
    Alcotest.test_case "bad arguments" `Quick test_bad_arguments;
    Alcotest.test_case "unknown algorithm exit 2" `Quick test_unknown_algorithm_exit_2;
    Alcotest.test_case "compile --trace" `Quick test_compile_trace;
    Alcotest.test_case "compile --trace component stats" `Quick test_compile_trace_components;
  ]
