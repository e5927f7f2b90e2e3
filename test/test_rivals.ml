(* The rival-compiler zoo (ISSUE 9): Murali-style delay scheduling and CQC
   synergistic routing+scheduling as registry schedulers, plus the
   pass-graph plumbing that lets cqc-synergy consume the unrouted circuit.
   The threshold-invariant and swap-score tests are the directed catchers
   for the murali-delay-threshold and cqc-swap-score fault entries. *)
open Helpers
open Fastsc_device
open Fastsc_core
open Fastsc_benchmarks

let device ?(seed = 21) ?(n = 3) () = Device.create ~seed (Topology.grid n n)

let qaoa9 () = Qaoa.circuit (Rng.create 7) ~n:9 ()

let xeb9 () =
  let rng = Rng.create 42 in
  let topo = Topology.grid 3 3 in
  let classes = Topology.grid_edge_classes 3 3 in
  let classes =
    List.map
      (fun (e, c) ->
        (e, match c with Topology.A -> 0 | Topology.B -> 1 | Topology.C -> 2 | Topology.D -> 3))
      classes
  in
  Xeb.circuit rng ~graph:topo.Topology.graph ~classes ~cycles:4 ()

(* -- murali-delay ------------------------------------------------------------ *)

let test_murali_valid_and_threshold_invariant () =
  (* The packer's acceptance invariant, re-checked from the outside exactly
     as the packer computes it: no two simultaneous two-qubit gates in any
     moment may exceed the delay threshold.  This is the directed catcher
     for FASTSC_FAULT=murali-delay-threshold (the flipped comparison packs
     conflicting pairs together, violating the invariant immediately). *)
  let d = device () in
  let threshold = Compile.default_options.Compile.delay_threshold in
  let ctx = Pass.execute ~algorithm:"murali-delay" d (qaoa9 ()) in
  let sched = Pass.Context.schedule_exn ctx in
  check_true "murali schedule valid" (Result.is_ok (Schedule.check sched));
  check_true "some gates were delayed" (Pass.Context.stat_int ctx "delayed" > 0);
  List.iter
    (fun step ->
      let two_qubit =
        List.filter_map
          (fun app ->
            match app.Gate.qubits with
            | [| a; b |] -> Some ((a, b), Device.gate_time d app.Gate.gate)
            | _ -> None)
          step.Schedule.gates
      in
      let rec pairs = function
        | [] -> ()
        | (p1, t1) :: rest ->
          List.iter
            (fun (p2, t2) ->
              let err =
                Murali_delay.simultaneous_error d ~t:(Float.max t1 t2) p1 p2
              in
              if err > threshold then
                Alcotest.failf
                  "simultaneous gates on (%d,%d) and (%d,%d) exceed the delay threshold \
                   (%.3e > %.3e)"
                  (fst p1) (snd p1) (fst p2) (snd p2) err threshold)
            rest;
          pairs rest
      in
      pairs two_qubit)
    sched.Schedule.steps

let test_murali_trace_is_native_pipeline () =
  (* murali-delay consumes native gates: it gets the classic six-pass
     front end, not the combined route-schedule stage *)
  let ctx = Pass.execute ~algorithm:"murali-delay" (device ()) (qaoa9 ()) in
  let passes = List.map (fun r -> r.Pass.Context.pass) (Pass.Context.trail ctx) in
  check_true "classic pipeline"
    (passes = [ "place"; "route"; "decompose"; "optimize"; "schedule"; "evaluate" ])

let test_headline_ordering () =
  (* the paper's headline comparison, in-repo (ISSUE 9 acceptance): on a
     parallelism-heavy mesh workload the frequency-aware scheduler beats
     Murali-style delays, which beat the naive uniform-frequency baseline *)
  let d = device () in
  let score algorithm =
    (Schedule.evaluate (Compile.run algorithm d (xeb9 ()))).Schedule.log10_success
  in
  let cd = score Compile.Color_dynamic in
  let md = score Compile.Murali_delay in
  let nv = score Compile.Naive in
  if not (cd > md && md > nv) then
    Alcotest.failf "headline ordering violated: color-dynamic %.3f, murali %.3f, naive %.3f"
      cd md nv

(* -- cqc-synergy ------------------------------------------------------------- *)

let widen device circuit =
  (* identity-place a logical circuit onto the full device width, as the
     route-schedule pass does *)
  let n = Graph.n_vertices (Device.graph device) in
  let b = Circuit.builder n in
  Array.iter
    (fun app -> Circuit.add b app.Gate.gate (Array.to_list app.Gate.qubits))
    (Circuit.instructions circuit);
  Circuit.finish b

let test_cqc_combined_pass_and_valid () =
  let d = device () in
  let ctx = Pass.execute ~algorithm:"cqc-synergy" d (qaoa9 ()) in
  let passes = List.map (fun r -> r.Pass.Context.pass) (Pass.Context.trail ctx) in
  check_true "pass-graph assembled from requirements"
    (passes = [ "place"; "route-schedule"; "evaluate" ]);
  check_true "canonical name recorded" (ctx.Pass.Context.algorithm = Some "cqc-synergy");
  let sched = Pass.Context.schedule_exn ctx in
  check_true "cqc schedule valid" (Result.is_ok (Schedule.check sched));
  check_true "metrics evaluated"
    ((Pass.Context.metrics_exn ctx).Schedule.success > 0.0)

let test_cqc_routing_respects_connectivity () =
  let d = device () in
  let placed = widen d (qaoa9 ()) in
  let result, _ = Cqc_synergy.route d placed in
  check_true "every two-qubit gate lands on a coupling"
    (Mapping.verify (Device.graph d) result.Mapping.circuit)

let test_cqc_conflict_pressure_matters () =
  (* The conflict-pressure term must actually steer SWAP selection: across a
     batch of mesh workloads, routing with the synergy weight must make
     strictly less total conflict pressure than depth-only routing, and at
     least one instance must differ.  FASTSC_FAULT=cqc-swap-score forces
     lambda to 0 inside route, which makes the two sides identical and
     fails this test. *)
  let total lambda =
    List.fold_left
      (fun acc seed ->
        let d = device ~seed () in
        let placed = widen d (Qaoa.circuit (Rng.create seed) ~n:9 ()) in
        let result, conflict = Cqc_synergy.route ~lambda d placed in
        check_true "routed circuit legal" (Mapping.verify (Device.graph d) result.Mapping.circuit);
        acc + conflict)
      0 [ 3; 5; 11; 21; 33 ]
  in
  let with_synergy = total 0.5 in
  let depth_only = total 0.0 in
  if not (with_synergy < depth_only) then
    Alcotest.failf
      "conflict-pressure term changed nothing (synergy total %d vs depth-only %d)"
      with_synergy depth_only

(* -- router lookup ------------------------------------------------------------ *)

let compile_with_router router =
  let options = { Compile.default_options with Compile.router } in
  Pass.execute ~options ~algorithm:"color-dynamic" (device ()) (qaoa9 ())

let test_router_registry () =
  (* every name and alias resolves to a legal compilation end to end, and an
     alias routes exactly as its canonical name does; the two routers differ
     on this circuit, so a crossed alias would show *)
  let routed router =
    Circuit.instructions (Pass.Context.routed_exn (compile_with_router router)).Mapping.circuit
  in
  check_true "the routers differ here" (routed "lookahead" <> routed "greedy");
  List.iter
    (fun (router, aliases) ->
      let ctx = compile_with_router router in
      check_true (router ^ " router compiles")
        (Result.is_ok (Schedule.check (Pass.Context.schedule_exn ctx)));
      List.iter
        (fun alias ->
          check_true (Printf.sprintf "%s routes as %s" alias router) (routed alias = routed router))
        aliases)
    [ ("lookahead", [ "sabre"; "l" ]); ("greedy", [ "shortest-path"; "g" ]) ]

let test_unknown_router_rejected () =
  match compile_with_router "bogus" with
  | _ -> Alcotest.fail "unknown router accepted"
  | exception Invalid_argument msg ->
    check_true "names listed" (contains msg "lookahead" && contains msg "greedy")

let suite =
  [
    Alcotest.test_case "murali valid + threshold invariant" `Quick
      test_murali_valid_and_threshold_invariant;
    Alcotest.test_case "murali uses the native pipeline" `Quick
      test_murali_trace_is_native_pipeline;
    Alcotest.test_case "headline: cd > murali > naive" `Quick test_headline_ordering;
    Alcotest.test_case "cqc combined pass + valid schedule" `Quick
      test_cqc_combined_pass_and_valid;
    Alcotest.test_case "cqc routing respects connectivity" `Quick
      test_cqc_routing_respects_connectivity;
    Alcotest.test_case "cqc conflict pressure matters" `Quick
      test_cqc_conflict_pressure_matters;
    Alcotest.test_case "router registry" `Quick test_router_registry;
    Alcotest.test_case "unknown router rejected" `Quick test_unknown_router_rejected;
  ]
