(* What the property suites rely on from Helpers: FASTSC_PROPTEST_COUNT
   scales the count of every property, and the arbitraries are pure
   functions of QCheck's random state, so one seed replays a whole suite. *)
open Helpers

(* Run [f] with FASTSC_PROPTEST_COUNT set to [value] ("" reads as unset),
   then restore what the suite was started with. *)
let with_count_env value f =
  let before = Option.value ~default:"" (Sys.getenv_opt "FASTSC_PROPTEST_COUNT") in
  Unix.putenv "FASTSC_PROPTEST_COUNT" value;
  Fun.protect ~finally:(fun () -> Unix.putenv "FASTSC_PROPTEST_COUNT" before) f

(* Cases a passing property runs when its case is built under
   FASTSC_PROPTEST_COUNT=[value]. *)
let cases_run ?count value =
  let cases = ref 0 in
  let _, _, run =
    with_count_env value (fun () ->
        prop_case ?count "trivial" (int_range 0 5) (fun _ ->
            incr cases;
            true))
  in
  run ();
  !cases

let test_count_env_override () =
  check_int "FASTSC_PROPTEST_COUNT respected" 14 (cases_run "7");
  check_int "default count without the variable" 200 (cases_run "")

(* An explicit count scales with the variable over 100, never below one
   case, so tier R's count axis reaches every property. *)
let test_explicit_count_scales () =
  let at v = cases_run ~count:50 v in
  check_int "as written without the variable" 50 (at "");
  check_int "scaled by 150/100" 75 (at "150");
  check_int "scaled by 60/100" 30 (at "60");
  check_int "never below one case" 1 (at "1");
  check_int "a non-positive value is ignored" 50 (at "0")

let draw arb seed =
  Option.get (QCheck.get_print arb) (QCheck.gen arb (Random.State.make [| seed |]))

let test_generation_is_deterministic () =
  let same name arb seed = check_true name (draw arb seed = draw arb seed) in
  same "same seed, same graph" (graph ~max_vertices:10 ~edge_prob:0.4 ()) 12345;
  same "same seed, same bipartite graph" (bipartite_graph ~max_side:6 ~edge_prob:0.4 ()) 77;
  same "same seed, same circuit" (circuit ~max_qubits:4 ~max_gates:10 ()) 999;
  same "same seed, same Rng draws"
    (QCheck.make ~print:string_of_int (rng_gen (fun rng -> Rng.int rng 1_000_000)))
    4242

(* QCheck's own [int_range] shrinks toward 0; [Helpers.int_range] stops
   at the lower bound, so a shrunk counterexample is one the generator
   could draw. *)
let test_int_range_shrinks_in_range () =
  let cell = QCheck.Test.make_cell ~count:20 ~name:"always fails" (int_range 3 10) (fun _ -> false) in
  match
    QCheck.TestResult.get_state
      (QCheck.Test.check_cell ~rand:(Random.State.make [| base_seed () |]) cell)
  with
  | QCheck.TestResult.Failed { instances = c :: _ } ->
    check_true "shrunk counterexample at least 3" (c.QCheck.TestResult.instance >= 3)
  | _ -> Alcotest.fail "an always-failing property must fail"

let suite =
  [
    Alcotest.test_case "deterministic generation" `Quick test_generation_is_deterministic;
    Alcotest.test_case "count env override" `Quick test_count_env_override;
    Alcotest.test_case "explicit count scales with the variable" `Quick
      test_explicit_count_scales;
    Alcotest.test_case "int_range shrinks within its range" `Quick
      test_int_range_shrinks_in_range;
  ]
