(* Shared assertion helpers for the test suites. *)

let check_float ?(eps = 1e-9) name expected actual =
  Alcotest.check (Alcotest.float eps) name expected actual

let check_int = Alcotest.(check int)

let check_bool = Alcotest.(check bool)

let check_true name actual = check_bool name true actual

(* Re-exports of the library's own equivalence tooling (kept under the old
   helper names so the suites read naturally). *)
let equal_up_to_phase ?tol a b = Unitary.equal_up_to_phase ?tol a b

let circuit_unitary = Unitary.of_circuit

(* Matrix values the library does not export, built from its API for the
   suites that state properties with them. *)
let of_real_arrays rows =
  Matrix.of_arrays (Array.map (Array.map (fun x -> { Complex.re = x; im = 0.0 })) rows)

let is_unitary ?(tol = 1e-9) m =
  Matrix.rows m = Matrix.cols m
  && Matrix.approx_equal ~tol (Matrix.mul m (Matrix.adjoint m)) (Matrix.identity (Matrix.rows m))

let trace m =
  let acc = ref Complex.zero in
  for k = 0 to min (Matrix.rows m) (Matrix.cols m) - 1 do
    acc := Complex.add !acc (Matrix.get m k k)
  done;
  !acc

(* Run [f] at pool width [jobs], then restore the previous default. *)
let with_jobs jobs f =
  let before = Pool.default_jobs () in
  Pool.set_default_jobs jobs;
  Fun.protect ~finally:(fun () -> Pool.set_default_jobs before) f

(* Substring search, shared by every suite that greps captured output. *)
let contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec scan i = i + n <= h && (String.sub haystack i n = needle || scan (i + 1)) in
  scan 0

(* Seeded Erdos-Renyi graph, shared by the graph/coloring suites. *)
let random_graph seed n p =
  let rng = Rng.create seed in
  let g = Graph.create n in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      if Rng.float rng < p then Graph.add_edge g u v
    done
  done;
  g

(* Two gate lists on the same register implement the same operator up to
   global phase — the contract of every decomposition identity. *)
let check_gates_equivalent ?(n = 2) name original replacement =
  let c_orig = Circuit.of_gates n original in
  let c_new = Circuit.of_gates n replacement in
  check_true name (equal_up_to_phase (circuit_unitary c_new) (circuit_unitary c_orig))

let check_circuits_equivalent name expected actual =
  check_true name (equal_up_to_phase (circuit_unitary actual) (circuit_unitary expected))

(* Mixing angles for crosstalk exchanges: the identity, the full iSWAP, a
   near-identity angle and random signed values. *)
let random_theta rng =
  match Rng.int rng 5 with
  | 0 -> 0.0
  | 1 -> Float.pi /. 2.0
  | 2 -> 1e-9
  | _ -> Rng.uniform rng (-.Float.pi) Float.pi

(* QCheck properties draw from Proptest's base seed and scale their count as
   its properties do, so FASTSC_PROPTEST_SEED and FASTSC_PROPTEST_COUNT drive
   both engines and a run depends on nothing else. *)
let qcheck_case ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest
    ~rand:(Random.State.make [| Proptest.base_seed () |])
    (QCheck.Test.make ~count:(Proptest.scaled_count count) ~name gen prop)

(* In-house engine: package a Proptest property as an Alcotest case.  On a
   counterexample the raised message carries the shrunk value, the seed and
   the FASTSC_PROPTEST_SEED replay line. *)
let prop_case ?count ?seed name arb prop =
  Alcotest.test_case name `Quick (fun () ->
      Proptest.check ?seed (Proptest.test ~name ?count arb prop))
