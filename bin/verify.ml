(* Tiered verification driver behind `make verify` (docs/DESIGN.md §11).

   Three tiers, each a list of report cells:

   - R (random): every property-based suite across a sweep matrix of base
     seeds x FASTSC_JOBS x FASTSC_PROPTEST_COUNT, so a property that only
     fails off the default seed, under a parallel pool, or at a larger case
     count still fails somewhere in the grid.
   - D (directed): the full unit + golden suite at serial and parallel job
     counts, the worked examples, and the seeded-fault sweep: every fault in
     Fault.catalog is injected via FASTSC_FAULT and at least one of its
     listed suites must fail — the mutation-style proof that the tests would
     catch a regression of that shape.
   - W (workload): end-to-end determinism of the paper experiments (fig6,
     fig7 and table2, byte-identical at FASTSC_JOBS=1 vs 4), then the perf
     gate: a fresh pinned run of the sim benchmark compared against
     bench/baselines/sim.json.

   `--quick` is the pre-commit subset (R with a reduced matrix + D without
   the example programs; W skipped).  Every run writes a machine-readable
   verify_report.json; each failed cell's detail carries the exact command
   and environment to replay it. *)

let repo = Sys.getcwd ()

let test_exe = Filename.concat repo "_build/default/test/main.exe"

(* The golden and cli suites locate the bench and fastsc drivers by relative
   path (../bench/main.exe), so test cells run from the built test directory
   exactly like `dune runtest` does. *)
let test_dir = Filename.concat repo "_build/default/test"

let bench_exe = Filename.concat repo "_build/default/bench/main.exe"

let example_exe name = Filename.concat repo ("_build/default/examples/" ^ name ^ ".exe")

let examples = [ "quickstart"; "qaoa_maxcut"; "xeb_calibration"; "topology_explorer"; "error_diagnosis" ]

let scratch_root = Filename.concat repo "_build/verify"

let baseline_dir = Filename.concat repo "bench/baselines"

(* The proptest engine's fixed base seed lives in lib/proptest; the alternate
   sweep seed only has to be deterministic and different. *)
let alt_seed = 0x5eedc0de + 101

let prop_suites =
  [
    "proptest";
    "prop_smt";
    "prop_coloring";
    "prop_decompose";
    "prop_differential";
    "prop_sim";
    "prop_rivals";
    "prop_hot_path";
  ]

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ())
  end

let read_file path = In_channel.with_open_bin path In_channel.input_all

let tail ?(lines = 15) s =
  let all = String.split_on_char '\n' s in
  let n = List.length all in
  if n <= lines then s
  else String.concat "\n" (List.filteri (fun i _ -> i >= n - lines) all)

(* Run one shell command with an environment prefix.  By default stderr is
   merged into the captured output; determinism cells pass [~stdout_only:true]
   because only stdout is the byte-identity surface (the bench driver
   announces its job count on stderr).  Everything the driver spawns goes
   through here so a failed cell can always print how to reproduce itself. *)
let spawn ?dir ?(stdout_only = false) ~env cmd =
  mkdir_p scratch_root;
  let out = Filename.temp_file ~temp_dir:scratch_root "cell" ".log" in
  let assigns = String.concat " " (List.map (fun (k, v) -> Printf.sprintf "%s='%s'" k v) env) in
  let shown = (if assigns = "" then "" else assigns ^ " ") ^ cmd in
  let full =
    Printf.sprintf "%s%s > '%s' %s"
      (match dir with None -> "" | Some d -> Printf.sprintf "cd '%s' && " d)
      shown out
      (if stdout_only then "2> /dev/null" else "2>&1")
  in
  let t0 = Deadline.now_s () in
  let code = Sys.command full in
  let seconds = Deadline.now_s () -. t0 in
  let log = read_file out in
  Sys.remove out;
  (code, log, seconds, shown)

let cells : Fastsc_verify.Verify_report.cell list ref = ref []

let add c =
  let open Fastsc_verify.Verify_report in
  Printf.printf "  [%s] %-52s %s (%.1fs)\n%!" c.tier c.name
    (match c.outcome with Pass -> "ok" | Fail _ -> "FAIL")
    c.seconds;
  (match c.outcome with
  | Pass -> ()
  | Fail why -> Printf.printf "        %s\n%!" why);
  cells := !cells @ [ c ]

let fail_detail ~command log =
  [ ("command", Json.String command); ("log_tail", Json.String (tail log)) ]

(* -- tier R ---------------------------------------------------------------- *)

let tier_r ~quick () =
  let seeds = if quick then [ None ] else [ None; Some alt_seed ] in
  let jobses = if quick then [ 1; 4 ] else [ 1; 2; 4 ] in
  let counts = if quick then [ 25 ] else [ 60; 150 ] in
  List.iter
    (fun suite ->
      List.iter
        (fun seed ->
          List.iter
            (fun jobs ->
              List.iter
                (fun count ->
                  let env =
                    (match seed with
                    | None -> []
                    | Some s -> [ ("FASTSC_PROPTEST_SEED", string_of_int s) ])
                    @ [
                        ("FASTSC_JOBS", string_of_int jobs);
                        ("FASTSC_PROPTEST_COUNT", string_of_int count);
                      ]
                  in
                  let cmd = Printf.sprintf "'%s' test %s" test_exe suite in
                  let code, log, seconds, command = spawn ~dir:test_dir ~env cmd in
                  let name =
                    Printf.sprintf "%s seed=%s jobs=%d count=%d" suite
                      (match seed with None -> "default" | Some s -> string_of_int s)
                      jobs count
                  in
                  let outcome =
                    if code = 0 then Fastsc_verify.Verify_report.Pass
                    else
                      Fastsc_verify.Verify_report.Fail
                        (Printf.sprintf "exit %d — replay: %s" code command)
                  in
                  let detail =
                    if code = 0 then [] else fail_detail ~command log
                  in
                  add (Fastsc_verify.Verify_report.cell ~detail ~tier:"R" ~name ~seconds outcome))
                counts)
            jobses)
        seeds)
    prop_suites

(* -- tier D ---------------------------------------------------------------- *)

let suite_cell ?dir ~tier ~name ~env cmd =
  let code, log, seconds, command = spawn ?dir ~env cmd in
  let outcome =
    if code = 0 then Fastsc_verify.Verify_report.Pass
    else
      Fastsc_verify.Verify_report.Fail (Printf.sprintf "exit %d — replay: %s" code command)
  in
  let detail = if code = 0 then [] else fail_detail ~command log in
  add (Fastsc_verify.Verify_report.cell ~detail ~tier ~name ~seconds outcome)

let fault_sweep () =
  List.iter
    (fun spec ->
      let open Fault in
      (* run the fault's suites in order until one catches it; a fault nobody
         catches is the failure this tier exists to expose *)
      let t0 = Deadline.now_s () in
      let caught = ref None in
      let tried = ref [] in
      List.iter
        (fun suite ->
          if !caught = None then begin
            let env =
              [ ("FASTSC_FAULT", spec.name); ("FASTSC_PROPTEST_COUNT", "30") ]
            in
            let cmd = Printf.sprintf "'%s' test %s" test_exe suite in
            let code, _log, _dt, command = spawn ~dir:test_dir ~env cmd in
            tried := !tried @ [ (suite, code) ];
            if code <> 0 then caught := Some (suite, command)
          end)
        spec.suites;
      let seconds = Deadline.now_s () -. t0 in
      let name = Printf.sprintf "fault %s" spec.name in
      match !caught with
      | Some (suite, command) ->
        add
          (Fastsc_verify.Verify_report.cell
             ~detail:
               [ ("site", Json.String spec.site); ("caught_by", Json.String suite);
                 ("command", Json.String command) ]
             ~tier:"D" ~name ~seconds Fastsc_verify.Verify_report.Pass)
      | None ->
        add
          (Fastsc_verify.Verify_report.cell
             ~detail:[ ("site", Json.String spec.site) ]
             ~tier:"D" ~name ~seconds
             (Fastsc_verify.Verify_report.Fail
                (Printf.sprintf "no suite caught it (tried %s) — the fault at %s is invisible \
                                 to the tests"
                   (String.concat ", "
                      (List.map (fun (s, c) -> Printf.sprintf "%s:exit %d" s c) !tried))
                   spec.site))))
    Fault.catalog;
  (* a typo in FASTSC_FAULT must refuse to run, not silently inject nothing *)
  let env = [ ("FASTSC_FAULT", "no-such-fault") ] in
  let code, log, seconds, command =
    spawn ~dir:test_dir ~env (Printf.sprintf "'%s' test rng" test_exe)
  in
  add
    (Fastsc_verify.Verify_report.cell
       ~detail:(if code = 2 then [] else fail_detail ~command log)
       ~tier:"D" ~name:"fault (unknown name rejected)" ~seconds
       (if code = 2 then Fastsc_verify.Verify_report.Pass
        else
          Fastsc_verify.Verify_report.Fail
            (Printf.sprintf "expected exit 2 on an unknown fault name, got %d" code)))

let tier_d ~quick () =
  if not quick then
    suite_cell ~dir:test_dir ~tier:"D" ~name:"full suite jobs=1"
      ~env:[ ("FASTSC_JOBS", "1") ]
      (Printf.sprintf "'%s'" test_exe);
  suite_cell ~dir:test_dir ~tier:"D" ~name:"full suite jobs=4"
    ~env:[ ("FASTSC_JOBS", "4") ]
    (Printf.sprintf "'%s'" test_exe);
  if not quick then
    List.iter
      (fun e ->
        suite_cell ~tier:"D" ~name:(Printf.sprintf "example %s" e) ~env:[]
          (Printf.sprintf "'%s'" (example_exe e)))
      examples;
  fault_sweep ()

(* -- tier W ---------------------------------------------------------------- *)

let fresh_dir name =
  let dir = Filename.concat scratch_root name in
  let cmd = Printf.sprintf "rm -rf '%s'" dir in
  ignore (Sys.command cmd : int);
  mkdir_p dir;
  dir

let determinism_cell ~name ~env cmd =
  (* byte-compare stdout of a serial and a parallel leg — the determinism
     contract says the job count must be unobservable in the output *)
  let t0 = Deadline.now_s () in
  let dir1 = fresh_dir (name ^ ".jobs1") and dir4 = fresh_dir (name ^ ".jobs4") in
  let code1, log1, _, command1 =
    spawn ~dir:dir1 ~stdout_only:true ~env:(env @ [ ("FASTSC_JOBS", "1") ]) cmd
  in
  let code4, log4, _, command4 =
    spawn ~dir:dir4 ~stdout_only:true ~env:(env @ [ ("FASTSC_JOBS", "4") ]) cmd
  in
  let seconds = Deadline.now_s () -. t0 in
  let outcome =
    if code1 <> 0 then
      Fastsc_verify.Verify_report.Fail
        (Printf.sprintf "serial leg exit %d — replay: %s" code1 command1)
    else if code4 <> 0 then
      Fastsc_verify.Verify_report.Fail
        (Printf.sprintf "parallel leg exit %d — replay: %s" code4 command4)
    else if log1 <> log4 then
      Fastsc_verify.Verify_report.Fail "stdout differs between FASTSC_JOBS=1 and 4"
    else Fastsc_verify.Verify_report.Pass
  in
  let detail =
    match outcome with
    | Pass -> []
    | Fail _ ->
      [
        ("command_jobs1", Json.String command1);
        ("command_jobs4", Json.String command4);
        ("jobs1_tail", Json.String (tail log1));
        ("jobs4_tail", Json.String (tail log4));
      ]
  in
  add
    (Fastsc_verify.Verify_report.cell ~detail ~tier:"W"
       ~name:(Printf.sprintf "determinism %s" name)
       ~seconds outcome)

(* Pinned knobs: small enough to finish in about a second, large enough that
   the timing fields clear the gate's noise floors.  The committed baseline
   bench/baselines/sim.json was produced by exactly this run. *)
let sim_bench_env =
  [
    ("FASTSC_SIM_QUBITS", "8");
    ("FASTSC_SIM_BIG_QUBITS", "10");
    ("FASTSC_SIM_CYCLES", "2");
    ("FASTSC_SIM_TRIALS", "40");
    ("FASTSC_SIM_TRAJ_QUBITS", "4");
    ("FASTSC_SIM_DENSITY_QUBITS", "4");
    ("FASTSC_SIM_BUDGET_MS", "60");
    ("FASTSC_JOBS", "4");
  ]

let perf_gate_cell ~tolerance ~write_baselines ~label ~env ~experiment ~bench_file ~baseline =
  let t0 = Deadline.now_s () in
  let dir = fresh_dir ("bench." ^ label) in
  let cmd = Printf.sprintf "'%s' %s" bench_exe experiment in
  let code, log, _, command = spawn ~dir ~env cmd in
  let fresh_path = Filename.concat dir bench_file in
  let finish outcome detail =
    let seconds = Deadline.now_s () -. t0 in
    add
      (Fastsc_verify.Verify_report.cell ~detail ~tier:"W"
         ~name:(Printf.sprintf "perf gate %s" label)
         ~seconds outcome)
  in
  if code <> 0 then
    finish
      (Fastsc_verify.Verify_report.Fail
         (Printf.sprintf "benchmark run exit %d — replay: %s" code command))
      (fail_detail ~command log)
  else if not (Sys.file_exists fresh_path) then
    finish
      (Fastsc_verify.Verify_report.Fail (Printf.sprintf "%s was not produced" bench_file))
      (fail_detail ~command log)
  else if write_baselines then begin
    mkdir_p baseline_dir;
    let data = read_file fresh_path in
    Out_channel.with_open_bin baseline (fun oc -> Out_channel.output_string oc data);
    finish Fastsc_verify.Verify_report.Pass
      [ ("baseline_written", Json.String baseline) ]
  end
  else if not (Sys.file_exists baseline) then
    finish
      (Fastsc_verify.Verify_report.Fail
         (Printf.sprintf "no baseline at %s — run `make verify-baselines` once and commit it"
            baseline))
      []
  else begin
    match
      ( Json.parse_file baseline,
        Json.parse_file fresh_path )
    with
    | exception Json.Parse_error msg ->
      finish (Fastsc_verify.Verify_report.Fail msg) []
    | baseline_doc, fresh_doc ->
      let result =
        Fastsc_verify.Perf_gate.compare_docs ~baseline:baseline_doc ~fresh:fresh_doc
      in
      let rendered = Fastsc_verify.Perf_gate.render ~tolerance ~label result in
      print_string rendered;
      let detail =
        [
          ("median_regression", Json.Float (Fastsc_verify.Perf_gate.median_regression result));
          ("timing_fields", Json.Int (List.length result.Fastsc_verify.Perf_gate.timings));
          ("report", Json.String rendered);
        ]
      in
      (match Fastsc_verify.Perf_gate.evaluate ~tolerance result with
      | Fastsc_verify.Perf_gate.Ok -> finish Fastsc_verify.Verify_report.Pass detail
      | Fastsc_verify.Perf_gate.Regression why ->
        finish (Fastsc_verify.Verify_report.Fail why) detail
      | Fastsc_verify.Perf_gate.Structural errs ->
        finish
          (Fastsc_verify.Verify_report.Fail
             (Printf.sprintf "not comparable: %s" (String.concat "; " errs)))
          detail)
  end

let tier_w ~tolerance ~write_baselines () =
  List.iter
    (fun exp -> determinism_cell ~name:exp ~env:[] (Printf.sprintf "'%s' %s" bench_exe exp))
    [ "fig6"; "fig7"; "table2" ];
  perf_gate_cell ~tolerance ~write_baselines ~label:"sim" ~env:sim_bench_env ~experiment:"sim"
    ~bench_file:"BENCH_sim.json"
    ~baseline:(Filename.concat baseline_dir "sim.json")

(* -- entry point ----------------------------------------------------------- *)

let () =
  let quick = ref false in
  let report = ref (Filename.concat repo "verify_report.json") in
  let write_baselines = ref false in
  let tolerance = ref Fastsc_verify.Perf_gate.default_tolerance in
  let spec =
    [
      ("--quick", Arg.Set quick, " pre-commit subset: reduced tier R matrix, no tier W");
      ("--report", Arg.Set_string report, "PATH where to write verify_report.json");
      ( "--write-baselines",
        Arg.Set write_baselines,
        " record fresh benchmark runs as bench/baselines/*.json instead of gating" );
      ( "--tolerance",
        Arg.Set_float tolerance,
        Printf.sprintf "FRACTION perf-gate median tolerance (default %.2f)"
          Fastsc_verify.Perf_gate.default_tolerance );
    ]
  in
  Arg.parse spec
    (fun anon -> raise (Arg.Bad ("unexpected argument " ^ anon)))
    "verify [--quick] [--report PATH] [--write-baselines] [--tolerance FRACTION]";
  List.iter
    (fun exe ->
      if not (Sys.file_exists exe) then begin
        Printf.eprintf "verify: %s is missing — run `dune build @all` first\n" exe;
        exit 2
      end)
    [ test_exe; bench_exe ];
  let t0 = Deadline.now_s () in
  let mode = if !quick then "quick" else "full" in
  Printf.printf "verify (%s): tier R — randomized property sweep\n%!" mode;
  tier_r ~quick:!quick ();
  Printf.printf "verify (%s): tier D — directed suites and seeded faults\n%!" mode;
  tier_d ~quick:!quick ();
  if not !quick then begin
    Printf.printf "verify (%s): tier W — workloads and perf gate\n%!" mode;
    tier_w ~tolerance:!tolerance ~write_baselines:!write_baselines ()
  end;
  let all = !cells in
  let meta =
    [
      ("mode", Json.String mode);
      ("alt_seed", Json.Int alt_seed);
      ("tolerance", Json.Float !tolerance);
      ("total_seconds", Json.Float (Deadline.now_s () -. t0));
    ]
  in
  Fastsc_verify.Verify_report.write ~meta !report all;
  print_newline ();
  print_string (Fastsc_verify.Verify_report.summary_table all);
  print_endline (Fastsc_verify.Verify_report.summary_line all);
  Printf.printf "report: %s\n" !report;
  if List.for_all Fastsc_verify.Verify_report.passed all then exit 0 else exit 1
