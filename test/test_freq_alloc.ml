open Helpers
open Fastsc_device
open Fastsc_core

let device () = Device.create ~seed:11 (Topology.grid 3 3)

let test_idle_two_colors () =
  let d = device () in
  let coloring, assignment = Freq_alloc.idle d in
  check_int "mesh is 2-colored" 2 (Coloring.n_colors coloring);
  check_int "two idle frequencies" 2 (Array.length assignment.Freq_alloc.freqs);
  check_true "separated" (assignment.Freq_alloc.delta > 0.05)

let test_idle_in_parking_region () =
  let d = device () in
  let p = Device.partition d in
  let _, assignment = Freq_alloc.idle d in
  Array.iter
    (fun f -> check_true "in parking region" (Partition.in_parking p f))
    assignment.Freq_alloc.freqs

let test_idle_respects_sidebands () =
  let d = device () in
  let alpha = (Device.params d).Device.anharmonicity in
  let _, assignment = Freq_alloc.idle d in
  let freqs = assignment.Freq_alloc.freqs in
  let delta = assignment.Freq_alloc.delta in
  Array.iteri
    (fun i fi ->
      Array.iteri
        (fun j fj ->
          if i <> j then begin
            check_true "direct separation" (Float.abs (fi -. fj) +. 1e-6 >= delta);
            check_true "sideband separation" (Float.abs (fi -. alpha -. fj) +. 1e-6 >= delta)
          end)
        freqs)
    freqs

let test_idle_per_qubit () =
  let d = device () in
  let per_qubit = Freq_alloc.idle_per_qubit d in
  check_int "one per qubit" 9 (Array.length per_qubit);
  (* neighbours on the mesh never share an idle frequency *)
  Graph.iter_edges
    (fun a b -> check_true "neighbours differ" (per_qubit.(a) <> per_qubit.(b)))
    (Device.graph d)

(* A complete chip needs one parking frequency per qubit.  All colors share
   one band and the same separations, so the identity-order search places
   them in a few nodes; an unordered search spent seconds on relabelled
   copies of its first subtree here. *)
let test_idle_complete_chip_within_deadline () =
  Freq_alloc.reset_solver_cache ();
  let d = Device.create ~seed:2020 (Topology.complete 9) in
  let budget = Deadline.after_ms ~label:"idle FULL-9" 2000.0 in
  let coloring, assignment = Deadline.with_deadline budget (fun () -> Freq_alloc.idle d) in
  check_int "one color per qubit" 9 (Coloring.n_colors coloring);
  check_int "nine idle frequencies" 9 (Array.length assignment.Freq_alloc.freqs);
  check_true "separated" (assignment.Freq_alloc.delta > 0.0)

let test_interaction_ordering () =
  let d = device () in
  (* color 1 is busiest, then 0, then 2: frequencies must order accordingly *)
  let assignment = Freq_alloc.interaction d ~n_colors:3 ~multiplicity:[| 2; 5; 1 |] in
  let f = assignment.Freq_alloc.freqs in
  check_true "busiest highest" (f.(1) >= f.(0) && f.(0) >= f.(2));
  check_true "positive delta" (assignment.Freq_alloc.delta > 0.0)

let test_interaction_in_region () =
  let d = device () in
  let p = Device.partition d in
  let assignment = Freq_alloc.interaction d ~n_colors:4 ~multiplicity:[| 1; 1; 1; 1 |] in
  Array.iter
    (fun f -> check_true "in interaction region" (Partition.in_interaction p f))
    assignment.Freq_alloc.freqs

let test_interaction_zero_colors () =
  let d = device () in
  let assignment = Freq_alloc.interaction d ~n_colors:0 ~multiplicity:[||] in
  check_int "empty" 0 (Array.length assignment.Freq_alloc.freqs)

let test_interaction_size_mismatch () =
  let d = device () in
  Alcotest.check_raises "mismatch"
    (Invalid_argument "Freq_alloc.interaction: multiplicity size mismatch") (fun () ->
      ignore (Freq_alloc.interaction d ~n_colors:2 ~multiplicity:[| 1 |]))

let test_delta_shrinks_with_colors () =
  let d = device () in
  let delta n =
    (Freq_alloc.interaction d ~n_colors:n ~multiplicity:(Array.make n 1)).Freq_alloc.delta
  in
  check_true "more colors, less separation" (delta 2 > delta 4 && delta 4 > delta 8)

let test_custom_region_override () =
  let d = device () in
  let assignment =
    Freq_alloc.interaction ~lo:6.5 ~hi:6.6 d ~n_colors:2 ~multiplicity:[| 1; 1 |]
  in
  Array.iter
    (fun f -> check_true "in override window" (f >= 6.5 -. 1e-9 && f <= 6.6 +. 1e-9))
    assignment.Freq_alloc.freqs

let test_spread () =
  let f = Freq_alloc.spread ~lo:5.0 ~hi:7.0 3 in
  Alcotest.(check (array (float 1e-9))) "even" [| 5.0; 6.0; 7.0 |] f;
  Alcotest.(check (array (float 1e-9))) "single centered" [| 6.0 |] (Freq_alloc.spread ~lo:5.0 ~hi:7.0 1);
  check_int "empty" 0 (Array.length (Freq_alloc.spread ~lo:5.0 ~hi:7.0 0))

(* --- the memoized separation solver --- *)

let test_cache_hit_and_identical_result () =
  Freq_alloc.reset_solver_cache ();
  let d = device () in
  let solve () = Freq_alloc.interaction d ~n_colors:3 ~multiplicity:[| 2; 5; 1 |] in
  let fresh = solve () in
  let stats = Freq_alloc.solver_cache_stats () in
  check_true "first solve misses" (stats.Freq_alloc.misses >= 1);
  let memoized = solve () in
  let stats' = Freq_alloc.solver_cache_stats () in
  check_true "second solve hits" (stats'.Freq_alloc.hits > stats.Freq_alloc.hits);
  check_float "same delta" fresh.Freq_alloc.delta memoized.Freq_alloc.delta;
  Alcotest.(check (array (float 0.0))) "same assignment" fresh.Freq_alloc.freqs
    memoized.Freq_alloc.freqs

let test_cache_result_isolated () =
  (* a cached hit must hand back a private array: mutating one caller's
     assignment must not corrupt later solves of the same key *)
  Freq_alloc.reset_solver_cache ();
  let d = device () in
  let first = Freq_alloc.interaction d ~n_colors:2 ~multiplicity:[| 1; 1 |] in
  let saved = Array.copy first.Freq_alloc.freqs in
  first.Freq_alloc.freqs.(0) <- 0.0;
  let second = Freq_alloc.interaction d ~n_colors:2 ~multiplicity:[| 1; 1 |] in
  Alcotest.(check (array (float 0.0))) "hit unaffected by caller mutation" saved
    second.Freq_alloc.freqs

let test_cache_keys_distinguish_problems () =
  Freq_alloc.reset_solver_cache ();
  let d = device () in
  ignore (Freq_alloc.interaction d ~n_colors:3 ~multiplicity:[| 1; 2; 3 |]);
  (* different multiplicity vector => different placement order => new key *)
  ignore (Freq_alloc.interaction d ~n_colors:3 ~multiplicity:[| 3; 2; 1 |]);
  let stats = Freq_alloc.solver_cache_stats () in
  check_int "two distinct problems, two misses" 2 stats.Freq_alloc.misses;
  check_int "no false hits" 0 stats.Freq_alloc.hits

let xeb16_compile () =
  let d16 = Device.create ~seed:2020 (Topology.grid 4 4) in
  let classes = Fastsc_core.Baseline_gmon.edge_classes d16 in
  let circuit =
    Fastsc_benchmarks.Xeb.circuit (Rng.create 7) ~graph:(Device.graph d16) ~classes ~cycles:5 ()
  in
  let native = Compile.prepare Pass.default_options d16 circuit in
  let schedule, _ = Color_dynamic.run d16 native in
  Schedule.evaluate schedule

let test_colordynamic_xeb16_reuses_cache () =
  (* the acceptance check of the memoization layer: a single ColorDynamic
     compile of xeb(16) re-solves structurally identical SMT subproblems
     across cycles, so the cache must see hits even from cold — and the
     emitted metrics must not change between a cold and a warm compile *)
  Freq_alloc.reset_solver_cache ();
  let cold = xeb16_compile () in
  let stats = Freq_alloc.solver_cache_stats () in
  check_true "cold compile already hits the cache" (stats.Freq_alloc.hits >= 1);
  check_true "and misses at least once" (stats.Freq_alloc.misses >= 1);
  let warm = xeb16_compile () in
  check_float "log10 success unchanged by memoization" cold.Schedule.log10_success
    warm.Schedule.log10_success;
  check_float "crosstalk error unchanged" cold.Schedule.crosstalk_error
    warm.Schedule.crosstalk_error;
  check_float "decoherence error unchanged" cold.Schedule.decoherence_error
    warm.Schedule.decoherence_error;
  check_int "depth unchanged" cold.Schedule.depth warm.Schedule.depth

let test_infeasible_failure_is_diagnostic () =
  (* a NaN band bound poisons every placement comparison, so even delta = 0
     is infeasible; the Failure must spell out the whole problem — color
     count, band, sideband offset, placement order, best delta tried — not
     just "no feasible assignment" *)
  let d = device () in
  match Freq_alloc.interaction ~lo:Float.nan d ~n_colors:2 ~multiplicity:[| 1; 1 |] with
  | _ -> Alcotest.fail "nan band should be infeasible"
  | exception Failure msg ->
    check_true "counts the colors" (contains msg "2 colors");
    check_true "names the band" (contains msg "band [nan");
    check_true "names the sideband offset" (contains msg "sideband offset");
    check_true "carries the placement order" (contains msg "placement order");
    check_true "carries the best delta tried" (contains msg "best delta tried")

let prop_interaction_separations_hold =
  prop_case ~count:50 "all pairwise separations honored" (int_range 1 6) (fun n ->
      let d = device () in
      let assignment = Freq_alloc.interaction d ~n_colors:n ~multiplicity:(Array.make n 1) in
      let f = assignment.Freq_alloc.freqs and delta = assignment.Freq_alloc.delta in
      let ok = ref true in
      for i = 0 to n - 1 do
        for j = i + 1 to n - 1 do
          if Float.abs (f.(i) -. f.(j)) +. 1e-6 < delta then ok := false
        done
      done;
      !ok)

let suite =
  [
    Alcotest.test_case "idle two colors" `Quick test_idle_two_colors;
    Alcotest.test_case "idle in parking" `Quick test_idle_in_parking_region;
    Alcotest.test_case "idle sidebands" `Quick test_idle_respects_sidebands;
    Alcotest.test_case "idle per qubit" `Quick test_idle_per_qubit;
    Alcotest.test_case "idle complete chip within deadline" `Quick
      test_idle_complete_chip_within_deadline;
    Alcotest.test_case "interaction ordering" `Quick test_interaction_ordering;
    Alcotest.test_case "interaction in region" `Quick test_interaction_in_region;
    Alcotest.test_case "interaction zero colors" `Quick test_interaction_zero_colors;
    Alcotest.test_case "interaction size mismatch" `Quick test_interaction_size_mismatch;
    Alcotest.test_case "delta shrinks with colors" `Quick test_delta_shrinks_with_colors;
    Alcotest.test_case "custom region" `Quick test_custom_region_override;
    Alcotest.test_case "spread" `Quick test_spread;
    Alcotest.test_case "solver cache hit, identical result" `Quick
      test_cache_hit_and_identical_result;
    Alcotest.test_case "solver cache isolates results" `Quick test_cache_result_isolated;
    Alcotest.test_case "solver cache keys distinguish" `Quick
      test_cache_keys_distinguish_problems;
    Alcotest.test_case "colordynamic xeb16 reuses cache" `Quick
      test_colordynamic_xeb16_reuses_cache;
    Alcotest.test_case "infeasible failure is diagnostic" `Quick
      test_infeasible_failure_is_diagnostic;
    prop_interaction_separations_hold;
  ]
