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

(* -- property cases ------------------------------------------------------- *)

let env_int name = Option.bind (Sys.getenv_opt name) (fun s -> int_of_string_opt (String.trim s))

(* FASTSC_PROPTEST_COUNT=v scales every property's count by v/100, never
   below one case, so tier R's count axis reaches every property; unset or
   non-positive, a property runs the count it was written for. *)
let scaled_count c =
  match env_int "FASTSC_PROPTEST_COUNT" with Some v when v >= 1 -> max 1 (c * v / 100) | _ -> c

(* Fixed unless FASTSC_PROPTEST_SEED says otherwise, so every run tests the
   same cases on every machine. *)
let base_seed () = Option.value ~default:0x5eedc0de (env_int "FASTSC_PROPTEST_SEED")

(* A QCheck property as an Alcotest case: [scaled_count count] cases drawn
   from a state seeded by [base_seed], so a suite is a pure function of the
   tree and those two variables ([~long:false] keeps QCHECK_LONG out of
   it).  [`Quick] keeps every property in a [-q] run.  A failure reports
   the shrunk counterexample. *)
let prop_case ?(count = 200) name arb prop =
  QCheck_alcotest.to_alcotest ~speed_level:`Quick ~long:false
    ~rand:(Random.State.make [| base_seed () |])
    (QCheck.Test.make ~count:(scaled_count count) ~name arb prop)

(* -- arbitraries ----------------------------------------------------------- *)

(* A generator written against the code base's own [Rng], seeded from
   QCheck's state, so that it can share helpers such as [random_theta]. *)
let rng_gen gen st = gen (Rng.create (Random.State.bits st))

(* [QCheck.int_range] shrinks toward 0, out of a range such as 1..10; this
   one stops at [lo], so a shrunk case is one the generator could draw. *)
let int_range lo hi = QCheck.add_shrink_invariant (fun x -> x >= lo) (QCheck.int_range lo hi)

let print_graph g = Format.asprintf "%a" Graph.pp g

let drop_edges g yield =
  List.iter
    (fun (u, v) ->
      let h = Graph.copy g in
      Graph.remove_edge h u v;
      yield h)
    (Graph.edges g)

(* [random_graph] on up to [max_vertices] vertices.  Shrinks by removing
   the last vertex, then by dropping single edges. *)
let graph ~max_vertices ~edge_prob () =
  let gen st =
    let n = QCheck.Gen.int_range 0 max_vertices st in
    random_graph (Random.State.bits st) n edge_prob
  in
  let shrink g yield =
    let n = Graph.n_vertices g in
    if n > 0 then
      yield (Graph.of_edges (n - 1) (List.filter (fun (u, v) -> max u v < n - 1) (Graph.edges g)));
    drop_edges g yield
  in
  QCheck.make ~print:print_graph ~shrink gen

(* Two parts of up to [max_side] vertices each (left part first), edges only
   across them, so 2-colorable by construction.  Shrinks only by dropping
   edges: removing a vertex would renumber the parts. *)
let bipartite_graph ~max_side ~edge_prob () =
  let gen st =
    let a = QCheck.Gen.int_range 0 max_side st in
    let b = QCheck.Gen.int_range 0 max_side st in
    let g = Graph.create (a + b) in
    for u = 0 to a - 1 do
      for v = a to a + b - 1 do
        if Random.State.float st 1.0 < edge_prob then Graph.add_edge g u v
      done
    done;
    g
  in
  QCheck.make ~print:print_graph ~shrink:drop_edges gen

(* The full gate set, the parametric families included: invariants that only
   hold for Cliffords would be caught out by the rotation angles here.  One
   gate in three is a two-qubit one when the register allows it. *)
let gate_gen ~two_qubit_ok =
  let open QCheck.Gen in
  let rotation f = map f (float_range 0.1 ((2.0 *. Float.pi) -. 0.1)) in
  let single =
    oneof
      (List.map return Gate.[ I; X; Y; Z; H; S; Sdg; T; Tdg; Sx; Sy; Sw ]
      @ List.map rotation [ (fun a -> Gate.Rx a); (fun a -> Gate.Ry a); (fun a -> Gate.Rz a) ])
  in
  let double =
    oneof
      (rotation (fun a -> Gate.Xy a) :: List.map return Gate.[ Cz; Iswap; Sqrt_iswap; Cnot; Swap ])
  in
  if two_qubit_ok then frequency [ (1, double); (2, single) ] else single

(* A random circuit over the full gate set of [Gate.t], the non-native Cnot
   and Swap included, on 1 .. [max_qubits] qubits.  Shrinks by dropping
   gates. *)
let circuit ~max_qubits ~max_gates () =
  let gen st =
    let n = QCheck.Gen.int_range 1 max_qubits st in
    let gate = gate_gen ~two_qubit_ok:(n >= 2) in
    let b = Circuit.builder n in
    for _ = 1 to QCheck.Gen.int_range 0 max_gates st do
      let g = gate st in
      let q = Random.State.int st n in
      Circuit.add b g
        (if Gate.is_two_qubit g then [ q; (q + 1 + Random.State.int st (n - 1)) mod n ] else [ q ])
    done;
    Circuit.finish b
  in
  let shrink c =
    let gates =
      List.map
        (fun app -> (app.Gate.gate, Array.to_list app.Gate.qubits))
        (Array.to_list (Circuit.instructions c))
    in
    QCheck.Iter.map (Circuit.of_gates (Circuit.n_qubits c)) (QCheck.Shrink.list gates)
  in
  QCheck.make
    ~print:(fun c -> Format.asprintf "%d qubits:@ %a" (Circuit.n_qubits c) Circuit.pp c)
    ~shrink gen
