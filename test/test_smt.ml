open Helpers

let solver_feasible () =
  let t = Fastsc_smt.Smt.create ~lo:5.0 ~hi:7.0 3 in
  Fastsc_smt.Smt.add_separation t 0 1;
  Fastsc_smt.Smt.add_separation t 1 2;
  Fastsc_smt.Smt.add_separation t 0 2;
  t

let test_solve_simple () =
  let t = solver_feasible () in
  match Fastsc_smt.Smt.solve t ~delta:0.5 with
  | None -> Alcotest.fail "expected feasible"
  | Some xs ->
    check_true "check passes" (Fastsc_smt.Smt.verify t ~delta:0.5 xs);
    Array.iter (fun x -> check_true "bounds" (x >= 5.0 -. 1e-9 && x <= 7.0 +. 1e-9)) xs

let test_solve_infeasible () =
  let t = solver_feasible () in
  (* three values pairwise >= 1.5 apart cannot fit in a width-2 window *)
  check_true "infeasible" (Fastsc_smt.Smt.solve t ~delta:1.5 = None)

let test_solve_boundary () =
  let t = solver_feasible () in
  (* exactly delta = 1.0: values 5, 6, 7 *)
  match Fastsc_smt.Smt.solve t ~delta:1.0 with
  | None -> Alcotest.fail "boundary case should be feasible"
  | Some xs -> check_true "check" (Fastsc_smt.Smt.verify t ~delta:1.0 xs)

let test_find_max_delta () =
  let t = solver_feasible () in
  match Fastsc_smt.Smt.find_max_delta ~tolerance:1e-6 t with
  | None -> Alcotest.fail "expected solution"
  | Some (delta, xs) ->
    check_float ~eps:1e-4 "max separation for 3 in [5,7]" 1.0 delta;
    check_true "witness valid" (Fastsc_smt.Smt.verify t ~delta:(delta -. 1e-5) xs)

let test_find_max_delta_infeasible_bounds () =
  let t = Fastsc_smt.Smt.create ~lo:5.0 ~hi:7.0 2 in
  Fastsc_smt.Smt.set_bounds t 0 ~lo:6.0 ~hi:6.0;
  Fastsc_smt.Smt.set_bounds t 1 ~lo:6.0 ~hi:6.0;
  Fastsc_smt.Smt.add_separation t 0 1;
  (* delta = 0 is fine (both pinned to 6), any positive delta is not *)
  match Fastsc_smt.Smt.find_max_delta t with
  | None -> Alcotest.fail "delta = 0 is feasible"
  | Some (delta, _) -> check_float ~eps:1e-3 "only zero" 0.0 delta

let test_anharmonicity_offset () =
  (* |x0 + alpha - x1| >= delta with alpha = -0.2: x1 must avoid both x0 and
     the sideband x0 - 0.2 *)
  let t = Fastsc_smt.Smt.create ~lo:5.0 ~hi:5.5 2 in
  Fastsc_smt.Smt.add_separation t 0 1;
  Fastsc_smt.Smt.add_separation ~offset:(-0.2) t 0 1;
  match Fastsc_smt.Smt.solve t ~delta:0.15 with
  | None -> Alcotest.fail "feasible with sidebands"
  | Some xs ->
    check_true "plain separation" (Float.abs (xs.(0) -. xs.(1)) >= 0.15 -. 1e-6);
    check_true "sideband separation" (Float.abs (xs.(0) -. 0.2 -. xs.(1)) >= 0.15 -. 1e-6)

let test_self_sideband () =
  let t = Fastsc_smt.Smt.create ~lo:5.0 ~hi:7.0 1 in
  Fastsc_smt.Smt.add_separation ~offset:(-0.2) t 0 0;
  check_true "delta below |alpha| ok" (Fastsc_smt.Smt.solve t ~delta:0.1 <> None);
  check_true "delta above |alpha| unsat" (Fastsc_smt.Smt.solve t ~delta:0.3 = None)

let test_self_separation_rejected () =
  let t = Fastsc_smt.Smt.create 2 in
  Alcotest.check_raises "zero offset self constraint"
    (Invalid_argument "Smt.add_separation: |x - x| >= delta is unsatisfiable") (fun () ->
      Fastsc_smt.Smt.add_separation t 0 0)

let test_order_respected () =
  let t = Fastsc_smt.Smt.create ~lo:0.0 ~hi:10.0 3 in
  Fastsc_smt.Smt.add_separation t 0 1;
  Fastsc_smt.Smt.add_separation t 1 2;
  Fastsc_smt.Smt.add_separation t 0 2;
  match Fastsc_smt.Smt.solve ~order:[ 2; 0; 1 ] t ~delta:1.0 with
  | None -> Alcotest.fail "feasible"
  | Some xs ->
    check_true "x2 <= x0" (xs.(2) <= xs.(0) +. 1e-9);
    check_true "x0 <= x1" (xs.(0) <= xs.(1) +. 1e-9)

let test_order_wrong_length () =
  let t = Fastsc_smt.Smt.create 3 in
  Alcotest.check_raises "short order"
    (Invalid_argument "Smt.solve: order must list every variable exactly once") (fun () ->
      ignore (Fastsc_smt.Smt.solve ~order:[ 0 ] t ~delta:0.1))

let test_forbidden_zone () =
  let t = Fastsc_smt.Smt.create ~lo:5.0 ~hi:6.0 1 in
  let t = Fastsc_smt.Smt.add_forbidden t 0 ~center:5.5 in
  match Fastsc_smt.Smt.solve t ~delta:0.4 with
  | None -> Alcotest.fail "feasible outside the zone"
  | Some xs -> check_true "avoids center" (Float.abs (xs.(0) -. 5.5) >= 0.4 -. 1e-6)

let test_zero_vars () =
  let t = Fastsc_smt.Smt.create 0 in
  check_true "empty assignment" (Fastsc_smt.Smt.solve t ~delta:1.0 = Some [||])

let test_unordered_search_backtracks () =
  (* heterogeneous bounds force a specific value ordering *)
  let t = Fastsc_smt.Smt.create ~lo:0.0 ~hi:10.0 3 in
  Fastsc_smt.Smt.set_bounds t 0 ~lo:8.0 ~hi:10.0;
  Fastsc_smt.Smt.set_bounds t 1 ~lo:0.0 ~hi:2.0;
  Fastsc_smt.Smt.set_bounds t 2 ~lo:4.0 ~hi:6.0;
  Fastsc_smt.Smt.add_separation t 0 1;
  Fastsc_smt.Smt.add_separation t 1 2;
  Fastsc_smt.Smt.add_separation t 0 2;
  match Fastsc_smt.Smt.solve t ~delta:2.0 with
  | None -> Alcotest.fail "feasible via ordering 1 < 2 < 0"
  | Some xs -> check_true "valid" (Fastsc_smt.Smt.verify t ~delta:2.0 xs)

let prop_max_delta_scales_inverse =
  (* k colors in [0, w]: max separation is w / (k - 1) *)
  qcheck_case "max delta equals width/(k-1)" QCheck.(pair (int_range 2 6) (float_range 1.0 4.0))
    (fun (k, w) ->
      let t = Fastsc_smt.Smt.create ~lo:0.0 ~hi:w k in
      for i = 0 to k - 1 do
        for j = i + 1 to k - 1 do
          Fastsc_smt.Smt.add_separation t i j
        done
      done;
      match Fastsc_smt.Smt.find_max_delta ~tolerance:1e-5 t with
      | None -> false
      | Some (delta, _) -> Float.abs (delta -. (w /. float_of_int (k - 1))) < 1e-3)

let prop_witness_always_checks =
  qcheck_case "solve witnesses always pass check"
    QCheck.(pair (int_range 1 5) (float_range 0.01 0.8))
    (fun (k, delta) ->
      let t = Fastsc_smt.Smt.create ~lo:0.0 ~hi:2.0 k in
      for i = 0 to k - 1 do
        for j = i + 1 to k - 1 do
          Fastsc_smt.Smt.add_separation t i j
        done
      done;
      match Fastsc_smt.Smt.solve t ~delta with
      | None -> true
      | Some xs -> Fastsc_smt.Smt.verify t ~delta xs)

(* The single-pass resolver must land on exactly the floats the old
   retry-until-stable loop produced: witnesses are part of the golden
   determinism surface, so these pin exact values (eps 0), not tolerances. *)
let test_resolver_chained_zones_exact () =
  (* Overlapping forbidden zones around 1.0, 1.8, 2.6 with delta 0.5 chain
     into (0.5,1.5)(1.3,2.3)(2.1,3.1): starting at lo=1.0 the resolver hops
     endpoint to endpoint and stops exactly at 2.6 +. 0.5. *)
  let t = Fastsc_smt.Smt.create ~lo:1.0 ~hi:10.0 1 in
  let t = Fastsc_smt.Smt.add_forbidden t 0 ~center:1.0 in
  let t = Fastsc_smt.Smt.add_forbidden t 0 ~center:1.8 in
  let t = Fastsc_smt.Smt.add_forbidden t 0 ~center:2.6 in
  (match Fastsc_smt.Smt.solve t ~delta:0.5 with
  | None -> Alcotest.fail "chain is escapable"
  | Some xs -> check_float ~eps:0.0 "exact upper endpoint of the chain" (2.6 +. 0.5) xs.(0));
  (* A gap between zones is kept: disjoint zones stop the walk early. *)
  let t = Fastsc_smt.Smt.create ~lo:1.0 ~hi:10.0 1 in
  let t = Fastsc_smt.Smt.add_forbidden t 0 ~center:1.0 in
  let t = Fastsc_smt.Smt.add_forbidden t 0 ~center:4.0 in
  match Fastsc_smt.Smt.solve t ~delta:0.5 with
  | None -> Alcotest.fail "gap is reachable"
  | Some xs -> check_float ~eps:0.0 "lands in the first gap" (1.0 +. 0.5) xs.(0)

let test_resolver_separation_chain_exact () =
  (* Greedy placement under ~order with touching separation intervals:
     the witness is exactly 5, 6, 7. *)
  let t = solver_feasible () in
  match Fastsc_smt.Smt.solve ~order:[ 0; 1; 2 ] t ~delta:1.0 with
  | None -> Alcotest.fail "boundary chain is feasible"
  | Some xs ->
    check_float ~eps:0.0 "x0 at lo" 5.0 xs.(0);
    check_float ~eps:0.0 "x1 pushed one delta up" 6.0 xs.(1);
    check_float ~eps:0.0 "x2 pushed through both intervals" 7.0 xs.(2)

(* -- margins and warm starts ----------------------------------------------- *)

let test_margin () =
  let t = solver_feasible () in
  (match Fastsc_smt.Smt.margin t [| 5.0; 6.0; 7.0 |] with
  | Some m -> check_float ~eps:1e-12 "margin is the smallest slack" 1.0 m
  | None -> Alcotest.fail "valid assignment has a margin");
  check_true "wrong length has no margin" (Fastsc_smt.Smt.margin t [| 5.0 |] = None);
  check_true "nan has no margin" (Fastsc_smt.Smt.margin t [| nan; 6.0; 7.0 |] = None);
  check_true "out of bounds has no margin" (Fastsc_smt.Smt.margin t [| 4.0; 6.0; 7.0 |] = None);
  (* the margin is exactly the largest delta at which the witness verifies *)
  check_true "verifies at the margin" (Fastsc_smt.Smt.verify t ~delta:1.0 [| 5.0; 6.0; 7.0 |]);
  check_true "fails just above it" (not (Fastsc_smt.Smt.verify t ~delta:1.01 [| 5.0; 6.0; 7.0 |]))

let test_warm_seeding () =
  let t = solver_feasible () in
  let dc, wc = Option.get (Fastsc_smt.Smt.find_max_delta ~tolerance:1e-6 t) in
  let dw, ww = Option.get (Fastsc_smt.Smt.find_max_delta ~tolerance:1e-6 ~warm:wc t) in
  check_true "warm witness verifies" (Fastsc_smt.Smt.verify t ~delta:dw ww);
  check_true "warm result within tolerance of cold" (Float.abs (dw -. dc) <= 1e-5);
  (* an invalid seed silently falls back to the cold path *)
  let df, _ =
    Option.get (Fastsc_smt.Smt.find_max_delta ~tolerance:1e-6 ~warm:[| nan; nan; nan |] t)
  in
  check_float ~eps:0.0 "garbage seed reproduces the cold result" dc df

let suite =
  [
    Alcotest.test_case "solve simple" `Quick test_solve_simple;
    Alcotest.test_case "resolver chained zones exact" `Quick test_resolver_chained_zones_exact;
    Alcotest.test_case "resolver separation chain exact" `Quick test_resolver_separation_chain_exact;
    Alcotest.test_case "solve infeasible" `Quick test_solve_infeasible;
    Alcotest.test_case "solve boundary" `Quick test_solve_boundary;
    Alcotest.test_case "find max delta" `Quick test_find_max_delta;
    Alcotest.test_case "max delta with pinned bounds" `Quick test_find_max_delta_infeasible_bounds;
    Alcotest.test_case "anharmonicity offset" `Quick test_anharmonicity_offset;
    Alcotest.test_case "self sideband" `Quick test_self_sideband;
    Alcotest.test_case "self separation rejected" `Quick test_self_separation_rejected;
    Alcotest.test_case "order respected" `Quick test_order_respected;
    Alcotest.test_case "order wrong length" `Quick test_order_wrong_length;
    Alcotest.test_case "forbidden zone" `Quick test_forbidden_zone;
    Alcotest.test_case "zero vars" `Quick test_zero_vars;
    Alcotest.test_case "unordered backtracking" `Quick test_unordered_search_backtracks;
    Alcotest.test_case "margin" `Quick test_margin;
    Alcotest.test_case "warm seeding" `Quick test_warm_seeding;
    prop_max_delta_scales_inverse;
    prop_witness_always_checks;
  ]
