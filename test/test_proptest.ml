(* Self-tests of the property-based testing engine: shrinking reaches minimal
   counterexamples, failures carry a seed, and replaying that seed reproduces
   the exact same failure (the contract printed in every report). *)
open Helpers

(* Run [f] with FASTSC_PROPTEST_COUNT set to [value] ("" reads as unset),
   then restore what the suite was started with. *)
let with_count_env value f =
  let before = Option.value ~default:"" (Sys.getenv_opt "FASTSC_PROPTEST_COUNT") in
  Unix.putenv "FASTSC_PROPTEST_COUNT" value;
  Fun.protect ~finally:(fun () -> Unix.putenv "FASTSC_PROPTEST_COUNT" before) f

let cases_run t =
  match Proptest.run t with
  | Proptest.Pass n -> n
  | Proptest.Fail f -> Alcotest.fail f.Proptest.message

(* The deliberately broken properties below must find a counterexample, so
   they run the count they were written for: a replay at
   FASTSC_PROPTEST_COUNT=1 would leave them one or two cases. *)
let run_as_written t = with_count_env "" (fun () -> Proptest.run t)

(* A deliberately broken invariant over ints: "everything is below 10".
   The greedy shrinker must walk any failing case down to exactly 10, the
   smallest value that still refutes the property. *)
let broken_int_test ?count () =
  Proptest.test ~name:"ints stay below 10" ?count (Proptest.int_range 0 1000) (fun x -> x < 10)

let test_shrinks_to_minimum () =
  match run_as_written (broken_int_test ()) with
  | Proptest.Pass _ -> Alcotest.fail "property over 0..1000 should have failed"
  | Proptest.Fail f ->
    check_true "shrunk to the minimal counterexample" (f.Proptest.shrunk = "10");
    check_true "shrinking did some work" (f.Proptest.shrink_steps > 0);
    check_true "report prints the replay line"
      (contains f.Proptest.message "FASTSC_PROPTEST_SEED=");
    check_true "report prints the seed"
      (contains f.Proptest.message (string_of_int f.Proptest.seed));
    (* shrink ergonomics: the replay line quantifies the shrink so a reader
       can tell a hard-won minimal case from a lucky first draw *)
    check_int "final generator size recorded" 10 f.Proptest.shrunk_size;
    check_true "replay line shows steps and size"
      (contains f.Proptest.message
         (Printf.sprintf "(%d shrink steps, final size %d)" f.Proptest.shrink_steps
            f.Proptest.shrunk_size))

let test_seed_replays_exact_failure () =
  match run_as_written (broken_int_test ()) with
  | Proptest.Pass _ -> Alcotest.fail "expected a failure to replay"
  | Proptest.Fail f -> (
    (* replaying with the failing seed as base makes it case 1 of the rerun *)
    match Proptest.run ~seed:f.Proptest.seed (broken_int_test ~count:1 ()) with
    | Proptest.Pass _ -> Alcotest.fail "replay seed did not reproduce the failure"
    | Proptest.Fail replay ->
      check_int "replayed as the first case" 1 replay.Proptest.case;
      check_true "identical generated counterexample"
        (replay.Proptest.original = f.Proptest.original);
      check_true "identical shrunk counterexample" (replay.Proptest.shrunk = f.Proptest.shrunk))

(* A deliberately broken invariant over a real compiler structure: claim that
   Welsh-Powell never needs a fourth color.  K4 refutes it, and edge/vertex
   shrinking must strip any failing graph down to the 6 edges of a K4. *)
let broken_coloring_test =
  Proptest.test ~name:"welsh-powell uses at most 3 colors" ~count:200
    (Proptest.graph ~max_vertices:8 ~edge_prob:0.5 ())
    (fun g -> Coloring.n_colors (Coloring.welsh_powell g) <= 3)

let test_structural_shrinking () =
  match run_as_written broken_coloring_test with
  | Proptest.Pass _ -> Alcotest.fail "4-chromatic graphs exist at 8 vertices, p=0.5"
  | Proptest.Fail f ->
    (* the minimal witness needing 4 colors is K4: exactly 6 edges survive *)
    check_true "shrunk to a K4 witness" (contains f.Proptest.shrunk "m=6");
    check_true "seed printed" (f.Proptest.seed <> 0)

let test_passing_property_passes () =
  let t =
    Proptest.test ~name:"reverse is involutive" ~count:50
      (Proptest.list ~max_len:20 (Proptest.int_range (-100) 100))
      (fun xs -> List.rev (List.rev xs) = xs)
  in
  match Proptest.run t with
  | Proptest.Pass n -> check_int "all cases ran" (Proptest.scaled_count 50) n
  | Proptest.Fail f -> Alcotest.fail f.Proptest.message

let test_raising_property_is_a_failure () =
  let t =
    Proptest.test ~name:"raises past 9" ~count:100 (Proptest.int_range 0 50)
      (fun x -> if x >= 10 then failwith "boom" else true)
  in
  match run_as_written t with
  | Proptest.Pass _ -> Alcotest.fail "the raise should have surfaced as a failure"
  | Proptest.Fail f ->
    check_true "exception recorded of the shrunk case" (f.Proptest.exn <> None);
    check_true "shrunk to the raise threshold" (f.Proptest.shrunk = "10")

let test_generation_is_deterministic () =
  let arb = Proptest.graph ~max_vertices:10 ~edge_prob:0.4 () in
  let once () = arb.Proptest.print (arb.Proptest.gen (Rng.create 12345)) in
  check_true "same seed, same graph" (once () = once ());
  let carb = Proptest.circuit ~max_qubits:4 ~max_gates:10 () in
  let conce () = carb.Proptest.print (carb.Proptest.gen (Rng.create 999)) in
  check_true "same seed, same circuit" (conce () = conce ())

let test_count_env_override () =
  let t = Proptest.test ~name:"trivial" (Proptest.int_range 0 5) (fun _ -> true) in
  check_int "FASTSC_PROPTEST_COUNT respected" 7 (with_count_env "7" (fun () -> cases_run t));
  check_int "default count without the variable" 100 (with_count_env "" (fun () -> cases_run t))

(* An explicit count scales with the variable over the default 100, never
   below 1, so tier R's count axis reaches every property and the replay
   line's FASTSC_PROPTEST_COUNT=1 re-runs only the failing case. *)
let test_explicit_count_scales () =
  let pinned = Proptest.test ~name:"trivial" ~count:50 (Proptest.int_range 0 5) (fun _ -> true) in
  let at v = with_count_env v (fun () -> cases_run pinned) in
  check_int "as written without the variable" 50 (at "");
  check_int "scaled by 150/100" 75 (at "150");
  check_int "scaled by 60/100" 30 (at "60");
  check_int "never below one case" 1 (at "1");
  check_int "a non-positive value is ignored" 50 (at "0");
  match run_as_written (broken_int_test ~count:150 ()) with
  | Proptest.Pass _ -> Alcotest.fail "property over 0..1000 should have failed"
  | Proptest.Fail f -> (
    match
      with_count_env "1" (fun () ->
          Proptest.run ~seed:f.Proptest.seed (broken_int_test ~count:150 ()))
    with
    | Proptest.Pass _ -> Alcotest.fail "the replay line did not reproduce the failure"
    | Proptest.Fail replay -> check_int "the replay runs one case" 1 replay.Proptest.cases)

let test_list_shrinking_drops_elements () =
  let t =
    Proptest.test ~name:"lists stay short" ~count:100
      (Proptest.list ~max_len:30 (Proptest.int_range 0 9))
      (fun xs -> List.length xs <= 4)
  in
  match run_as_written t with
  | Proptest.Pass _ -> Alcotest.fail "length-30 lists exist"
  | Proptest.Fail f ->
    (* minimal refutation is 5 elements, each shrunk to the range floor *)
    check_true "shrunk to five zeros" (f.Proptest.shrunk = "[0; 0; 0; 0; 0]")

let suite =
  [
    Alcotest.test_case "shrinks to minimum" `Quick test_shrinks_to_minimum;
    Alcotest.test_case "seed replays exact failure" `Quick test_seed_replays_exact_failure;
    Alcotest.test_case "structural graph shrinking" `Quick test_structural_shrinking;
    Alcotest.test_case "passing property" `Quick test_passing_property_passes;
    Alcotest.test_case "raising property" `Quick test_raising_property_is_a_failure;
    Alcotest.test_case "deterministic generation" `Quick test_generation_is_deterministic;
    Alcotest.test_case "count env override" `Quick test_count_env_override;
    Alcotest.test_case "explicit count scales with the variable" `Quick
      test_explicit_count_scales;
    Alcotest.test_case "list shrinking" `Quick test_list_shrinking_drops_elements;
  ]
