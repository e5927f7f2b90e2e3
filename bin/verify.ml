(* Tiered verification driver behind `make verify` (DESIGN.md §11).

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
     fig7 and table2) and of a smoke-sized scheduler shootout, each
     byte-identical at FASTSC_JOBS=1 vs 4, then perfbench's paper-compile
     and serve-replay workloads at a one-second size, which pass only when
     every output check of the benchmark holds.  Timing is judged by
     perfbench's paired parent/change runs, not here.

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

let fastsc_exe = Filename.concat repo "_build/default/bin/fastsc.exe"

let perfbench_exe = Filename.concat repo "_build/default/perfbench/main.exe"

let example_exe name = Filename.concat repo ("_build/default/examples/" ^ name ^ ".exe")

let examples = [ "quickstart"; "qaoa_maxcut"; "xeb_calibration"; "topology_explorer"; "error_diagnosis" ]

let scratch_root = Filename.concat repo "_build/verify"

(* The property suites' fixed base seed lives in test/helpers.ml; the
   alternate sweep seed only has to be deterministic and different. *)
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

(* Alcotest matches the suite name of [main.exe test NAME] as an unanchored
   regular expression, so a bare [smt] also runs [prop_smt]; anchored, a
   cell runs exactly the suite it names. *)
let suite_cmd suite = Printf.sprintf "'%s' test '^%s$'" test_exe suite

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
                  let cmd = suite_cmd suite in
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
            let cmd = suite_cmd suite in
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
    Fault.catalog

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

(* The content of [dir/file], or [None] when the leg did not write it. *)
let output_file dir file =
  let path = Filename.concat dir file in
  if Sys.file_exists path then Some (read_file path) else None

let determinism_cell ?(files = []) ?expect ~name ~env cmd =
  (* byte-compare stdout, and each of [files], of a serial and a parallel
     leg — the determinism contract says the job count must be unobservable
     in the output; [expect] is a line prefix stdout must contain *)
  let t0 = Deadline.now_s () in
  let dir1 = fresh_dir (name ^ ".jobs1") and dir4 = fresh_dir (name ^ ".jobs4") in
  let code1, log1, _, command1 =
    spawn ~dir:dir1 ~stdout_only:true ~env:(env @ [ ("FASTSC_JOBS", "1") ]) cmd
  in
  let code4, log4, _, command4 =
    spawn ~dir:dir4 ~stdout_only:true ~env:(env @ [ ("FASTSC_JOBS", "4") ]) cmd
  in
  let seconds = Deadline.now_s () -. t0 in
  let differs f =
    let a = output_file dir1 f in
    a = None || a <> output_file dir4 f
  in
  let outcome =
    if code1 <> 0 then
      Fastsc_verify.Verify_report.Fail
        (Printf.sprintf "serial leg exit %d — replay: %s" code1 command1)
    else if code4 <> 0 then
      Fastsc_verify.Verify_report.Fail
        (Printf.sprintf "parallel leg exit %d — replay: %s" code4 command4)
    else if log1 <> log4 then
      Fastsc_verify.Verify_report.Fail "stdout differs between FASTSC_JOBS=1 and 4"
    else
      match (List.find_opt differs files, expect) with
      | Some f, _ ->
        Fastsc_verify.Verify_report.Fail
          (Printf.sprintf "%s is missing or differs between FASTSC_JOBS=1 and 4" f)
      | None, Some prefix
        when not (List.exists (String.starts_with ~prefix) (String.split_on_char '\n' log1)) ->
        Fastsc_verify.Verify_report.Fail (Printf.sprintf "no stdout line starts with %S" prefix)
      | None, _ -> Fastsc_verify.Verify_report.Pass
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

(* One perfbench workload at a one-second size and the held-out seed, run
   from the built executable (no rebuild; an untraced run writes no file)
   with the built daemon for serve-replay.  perfbench
   exits non-zero when an output check fails — Schedule.check on every
   schedule, repeats bit-identical to the warm-up pass, one answer per serve
   id at its expected rung — so the cell passes on exit 0 with a last
   stdout line that parses as its result object.  compile-scale and
   validate-sim stay out: a short run gives their p95 too few samples, and
   perfbench refuses it with exit 3. *)
let perfbench_cell workload =
  let cmd =
    Printf.sprintf "'%s' --workload %s --seed 7919 --seconds 1 --trace 0 --fastsc '%s'"
      perfbench_exe workload fastsc_exe
  in
  let code, log, seconds, command = spawn ~dir:repo ~stdout_only:true ~env:[] cmd in
  let last_line =
    match List.rev (String.split_on_char '\n' (String.trim log)) with l :: _ -> l | [] -> ""
  in
  let result = try Some (Json.parse last_line) with Json.Parse_error _ -> None in
  let outcome =
    if code <> 0 then
      Fastsc_verify.Verify_report.Fail (Printf.sprintf "exit %d — replay: %s" code command)
    else
      match Option.bind result (Json.member "correct") with
      | Some (Json.Bool true) -> Fastsc_verify.Verify_report.Pass
      | _ ->
        Fastsc_verify.Verify_report.Fail
          (Printf.sprintf "last stdout line is not a passing result object — replay: %s" command)
  in
  let detail =
    match (outcome, result) with
    | Pass, Some r -> [ ("result", r) ]
    | _ -> fail_detail ~command log
  in
  add
    (Fastsc_verify.Verify_report.cell ~detail ~tier:"W"
       ~name:(Printf.sprintf "perfbench %s" workload)
       ~seconds outcome)

let tier_w () =
  List.iter
    (fun exp -> determinism_cell ~name:exp ~env:[] (Printf.sprintf "'%s' %s" bench_exe exp))
    [ "fig6"; "fig7"; "table2" ];
  determinism_cell ~name:"shootout" ~files:[ "BENCH_shootout.json" ] ~expect:"headline: mesh"
    ~env:
      [
        ("FASTSC_SHOOTOUT_SIZES", "4,9");
        ("FASTSC_SHOOTOUT_BENCHES", "bv,qaoa,xeb");
        ("FASTSC_SHOOTOUT_TOPOLOGIES", "mesh,ring,heavy-hex");
        ("FASTSC_SHOOTOUT_SCRUB", "1");
      ]
    (Printf.sprintf "'%s' shootout" bench_exe);
  List.iter perfbench_cell [ "paper-compile"; "serve-replay" ]

(* -- entry point ----------------------------------------------------------- *)

let () =
  let quick = ref false in
  let report = ref (Filename.concat repo "verify_report.json") in
  let spec =
    [
      ("--quick", Arg.Set quick, " pre-commit subset: reduced tier R matrix, no tier W");
      ("--report", Arg.Set_string report, "PATH where to write verify_report.json");
    ]
  in
  Arg.parse spec
    (fun anon -> raise (Arg.Bad ("unexpected argument " ^ anon)))
    "verify [--quick] [--report PATH]";
  List.iter
    (fun exe ->
      if not (Sys.file_exists exe) then begin
        Printf.eprintf "verify: %s is missing — run `dune build @all` first\n" exe;
        exit 2
      end)
    [ test_exe; bench_exe; fastsc_exe; perfbench_exe ];
  let t0 = Deadline.now_s () in
  let mode = if !quick then "quick" else "full" in
  Printf.printf "verify (%s): tier R — randomized property sweep\n%!" mode;
  tier_r ~quick:!quick ();
  Printf.printf "verify (%s): tier D — directed suites and seeded faults\n%!" mode;
  tier_d ~quick:!quick ();
  if not !quick then begin
    Printf.printf "verify (%s): tier W — workload determinism and perfbench checks\n%!" mode;
    tier_w ()
  end;
  let all = !cells in
  let meta =
    [
      ("mode", Json.String mode);
      ("alt_seed", Json.Int alt_seed);
      ("total_seconds", Json.Float (Deadline.now_s () -. t0));
    ]
  in
  Fastsc_verify.Verify_report.write ~meta !report all;
  print_newline ();
  print_string (Fastsc_verify.Verify_report.summary_table all);
  print_endline (Fastsc_verify.Verify_report.summary_line all);
  Printf.printf "report: %s\n" !report;
  if List.for_all Fastsc_verify.Verify_report.passed all then exit 0 else exit 1
