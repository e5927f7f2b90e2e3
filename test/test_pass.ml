(* The pass-manager pipeline (lib/core/pass.ml): context threading, the
   instrumentation trail, scheduler lookup, and parity with the direct
   scheduler entry points it replaced. *)
open Helpers
open Fastsc_device
open Fastsc_core
open Fastsc_benchmarks

let device () = Device.create ~seed:2020 (Topology.grid 3 3)

let bv9 () = Bv.circuit ~n:9 ()

let cd_name = Compile.algorithm_to_string Compile.Color_dynamic

let test_execute_through_evaluate () =
  let ctx = Pass.execute ~algorithm:cd_name (device ()) (bv9 ()) in
  let trail = Pass.Context.trail ctx in
  check_int "six passes executed" 6 (List.length trail);
  let order = List.map (fun r -> r.Pass.Context.pass) trail in
  check_true "pipeline order"
    (order = [ "place"; "route"; "decompose"; "optimize"; "schedule"; "evaluate" ]);
  check_true "schedule valid" (Result.is_ok (Schedule.check (Pass.Context.schedule_exn ctx)));
  check_true "metrics present" ((Pass.Context.metrics_exn ctx).Schedule.success > 0.0);
  check_true "algorithm recorded" (ctx.Pass.Context.algorithm = Some cd_name)

let test_execute_through_schedule () =
  let ctx = Pass.execute ~through:`Schedule ~algorithm:cd_name (device ()) (bv9 ()) in
  check_int "five passes executed" 5 (List.length (Pass.Context.trail ctx));
  check_true "no metrics yet" (ctx.Pass.Context.metrics = None);
  match Pass.Context.metrics_exn ctx with
  | _ -> Alcotest.fail "metrics_exn should raise before evaluate"
  | exception Invalid_argument msg -> check_true "names the stage" (contains msg "evaluate")

let test_matches_direct_scheduler () =
  (* the pipeline is a refactor, not a behaviour change: same schedule and
     stats as calling the scheduler by hand on the prepared circuit *)
  let d = device () in
  let circuit = bv9 () in
  let native = Compile.prepare Pass.default_options d circuit in
  let direct, stats = Color_dynamic.run d native in
  let ctx = Pass.execute ~through:`Schedule ~algorithm:"cd" d circuit in
  let piped = Pass.Context.schedule_exn ctx in
  check_int "same depth" (Schedule.depth direct) (Schedule.depth piped);
  let md = Schedule.evaluate direct and mp = Schedule.evaluate piped in
  check_float "same success" md.Schedule.log10_success mp.Schedule.log10_success;
  check_int "same colors stat" stats.Color_dynamic.max_colors_used
    (Pass.Context.stat_int ctx "max_colors_used");
  check_float "same delta stat" stats.Color_dynamic.min_delta
    (Pass.Context.stat_float ctx "min_delta")

let test_alias_resolves_to_canonical_name () =
  let ctx = Pass.execute ~through:`Schedule ~algorithm:"cd" (device ()) (bv9 ()) in
  check_true "canonical name recorded" (ctx.Pass.Context.algorithm = Some "color-dynamic")

let test_unknown_algorithm_rejected () =
  match Pass.execute ~algorithm:"nonsense" (device ()) (bv9 ()) with
  | _ -> Alcotest.fail "unknown algorithm should raise"
  | exception Invalid_argument msg ->
    check_true "names the stray" (contains msg "nonsense");
    check_true "lists the schedulers" (contains msg "color-dynamic")

let test_instrumentation_counts () =
  let ctx = Pass.execute ~algorithm:cd_name (device ()) (bv9 ()) in
  let by_name name =
    List.find (fun r -> r.Pass.Context.pass = name) (Pass.Context.trail ctx)
  in
  check_true "wall clock non-negative"
    (List.for_all (fun r -> r.Pass.Context.wall_ns >= 0.0) (Pass.Context.trail ctx));
  (* routing and decomposition never call the SMT solver *)
  check_int "route makes no solves" 0 (by_name "route").Pass.Context.smt_solves;
  check_int "decompose makes no solves" 0 (by_name "decompose").Pass.Context.smt_solves;
  (* ColorDynamic allocates frequencies: solver activity lands in schedule *)
  let sched = by_name "schedule" in
  check_true "schedule touches the solver cache"
    (sched.Pass.Context.solver_hits + sched.Pass.Context.solver_misses > 0);
  (* evaluation scores crosstalk pairs *)
  let ev = by_name "evaluate" in
  check_true "evaluate touches the pair cache"
    (ev.Pass.Context.pair_hits + ev.Pass.Context.pair_misses > 0)

let test_report_is_valid_json () =
  let ctx = Pass.execute ~algorithm:cd_name (device ()) (bv9 ()) in
  let text = Json.to_string (Pass.Context.report ctx) in
  List.iter
    (fun key -> check_true ("report has " ^ key) (contains text ("\"" ^ key ^ "\"")))
    [ "algorithm"; "passes"; "stats"; "caches"; "smt_solves_total"; "metrics"; "wall_ms" ]

let test_stat_lookup_errors () =
  let ctx = Pass.execute ~algorithm:cd_name (device ()) (bv9 ()) in
  (match Pass.Context.stat_int ctx "no_such_stat" with
  | _ -> Alcotest.fail "missing stat should raise"
  | exception Invalid_argument msg ->
    check_true "lists reported labels" (contains msg "max_colors_used"));
  (* Float widens Int, not the other way round *)
  check_float "int widens to float" (float_of_int (Pass.Context.stat_int ctx "cycles"))
    (Pass.Context.stat_float ctx "cycles");
  match Pass.Context.stat_int ctx "min_delta" with
  | _ -> Alcotest.fail "float stat read as int should raise"
  | exception Invalid_argument _ -> ()

let test_compile_run_is_thin_wrapper () =
  let d = device () in
  let circuit = bv9 () in
  let via_compile = Compile.run Compile.Uniform d circuit in
  let via_pass =
    Pass.Context.schedule_exn
      (Pass.execute ~through:`Schedule ~algorithm:"uniform" d circuit)
  in
  check_int "same depth" (Schedule.depth via_compile) (Schedule.depth via_pass);
  check_float "same success" (Schedule.evaluate via_compile).Schedule.log10_success
    (Schedule.evaluate via_pass).Schedule.log10_success

let suite =
  [
    Alcotest.test_case "execute through evaluate" `Quick test_execute_through_evaluate;
    Alcotest.test_case "execute through schedule" `Quick test_execute_through_schedule;
    Alcotest.test_case "matches direct scheduler" `Quick test_matches_direct_scheduler;
    Alcotest.test_case "alias resolves" `Quick test_alias_resolves_to_canonical_name;
    Alcotest.test_case "unknown algorithm" `Quick test_unknown_algorithm_rejected;
    Alcotest.test_case "instrumentation counts" `Quick test_instrumentation_counts;
    Alcotest.test_case "report is valid json" `Quick test_report_is_valid_json;
    Alcotest.test_case "stat lookup errors" `Quick test_stat_lookup_errors;
    Alcotest.test_case "compile.run is a thin wrapper" `Quick test_compile_run_is_thin_wrapper;
  ]
