(* Golden-output regression: the sweep engine's determinism contract says
   stdout is byte-identical at any job count (docs/MANUAL.md, Exp_common).
   Run the paper's worked example (fig6) and the decomposition study (fig7)
   through the real bench driver at jobs=1 and jobs=4 and diff the bytes. *)
open Helpers

let bench = Filename.concat (Filename.concat ".." "bench") "main.exe"

let read_file path =
  let ic = open_in_bin path in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  text

let run_driver ?(env = "") driver jobs =
  let out_file = Filename.temp_file "fastsc_golden" ".out" in
  (* stderr is not part of the contract (it carries the jobs note) *)
  let command =
    Printf.sprintf "%s%s --jobs %d %s > %s 2> /dev/null" env (Filename.quote bench) jobs driver
      (Filename.quote out_file)
  in
  let code = Sys.command command in
  let text = read_file out_file in
  Sys.remove out_file;
  check_int (Printf.sprintf "%s --jobs %d exits 0" driver jobs) 0 code;
  text

let test_fig6_byte_identical () =
  let serial = run_driver "fig6" 1 in
  let parallel = run_driver "fig6" 4 in
  check_true "fig6 produced the worked example" (contains serial "Fig 6");
  check_true "schedules printed" (contains serial "ColorDynamic");
  check_true "stdout byte-identical at jobs=1 and jobs=4" (String.equal serial parallel)

let test_fig6_stable_across_repeats () =
  let a = run_driver "fig6" 4 in
  let b = run_driver "fig6" 4 in
  check_true "repeat runs are byte-identical" (String.equal a b)

let test_fig7_byte_identical () =
  let serial = run_driver "fig7" 1 in
  let parallel = run_driver "fig7" 4 in
  check_true "fig7 produced the decomposition study" (contains serial "Fig 7");
  check_true "stdout byte-identical at jobs=1 and jobs=4" (String.equal serial parallel)

(* The validate driver runs Monte-Carlo trajectories through the parallel
   average_fidelity path; its stdout (fidelity columns included) must not
   depend on the job count.  FASTSC_VALIDATE_TRIALS keeps the golden run
   cheap. *)
let test_validate_byte_identical () =
  let env = "FASTSC_VALIDATE_TRIALS=25 " in
  let serial = run_driver ~env "validate" 1 in
  let parallel = run_driver ~env "validate" 4 in
  check_true "validate produced the heuristic table" (contains serial "Heuristic validation");
  check_true "trajectory column present" (contains serial "trajectories P");
  check_true "stdout byte-identical at jobs=1 and jobs=4" (String.equal serial parallel)

(* Bit-for-bit compile outputs (bench/exp_compile_bits.ml): every paper
   cell and a few 64-qubit decompose + warm-start cells, each evaluated three
   ways, printed as IEEE-754 bit patterns.  The golden predates the
   evaluation memo, the ready-set router flush and the coupling index, so
   it pins them to the outputs of the code they replaced; any change to the
   low bits of a metric, a depth, a gate count or a SWAP count fails here
   with the first differing line. *)
let check_bits ~golden driver jobs () =
  let expected = String.split_on_char '\n' (read_file golden) in
  let actual = String.split_on_char '\n' (run_driver driver jobs) in
  check_int "line count" (List.length expected) (List.length actual);
  List.iter2 (fun e a -> Alcotest.(check string) (driver ^ " line") e a) expected actual

let check_compile_bits = check_bits ~golden:"compile_bits.golden" "compile-bits"

(* Bit-for-bit trajectory means (bench/exp_sim_bits.ml): validate-sim's 39
   cells, 16 trials each, printed as IEEE-754 bit patterns.  The golden
   predates the nested-block kernel walk, so it pins every statevector
   kernel to the arithmetic of the run-structured walk it replaced, at one
   job and with the trials spread over four.  The n = 4 and n = 6 lines
   also carry the bits of the exact density-matrix fidelity: the n = 4 ones
   recorded while Density still read its gates from the boxed matrix
   module, the n = 6 ones while it still ran Pauli channels as Kraus sums
   and exchanges as dense 4x4 conjugations. *)
let check_sim_bits = check_bits ~golden:"sim_bits.golden" "sim-bits"

let suite =
  [
    Alcotest.test_case "fig6 jobs=1 vs jobs=4" `Quick test_fig6_byte_identical;
    Alcotest.test_case "fig6 repeatability" `Quick test_fig6_stable_across_repeats;
    Alcotest.test_case "fig7 jobs=1 vs jobs=4" `Quick test_fig7_byte_identical;
    Alcotest.test_case "validate jobs=1 vs jobs=4" `Quick test_validate_byte_identical;
    Alcotest.test_case "compile bits jobs=1" `Quick (check_compile_bits 1);
    Alcotest.test_case "compile bits jobs=4" `Quick (check_compile_bits 4);
    Alcotest.test_case "sim bits jobs=1" `Quick (check_sim_bits 1);
    Alcotest.test_case "sim bits jobs=4" `Quick (check_sim_bits 4);
  ]
