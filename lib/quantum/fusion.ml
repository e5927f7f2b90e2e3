(* Gate fusion: collapse runs of adjacent single-qubit gates into one 2x2
   and absorb them into neighbouring two-qubit gates as 4x4s, so the fused
   program touches the amplitude planes once per *fused* operation instead
   of once per source gate.  On layered workloads (two 1q layers per 2q
   layer) this removes 80%+ of the full-state sweeps.

   Legality rests on two facts only: (1) matrix product — a run of 1q gates
   on qubit q equals the single 2x2 product applied once; (2) commutation of
   operations on disjoint qubits — a pending 2x2 on q may slide forward into
   the next gate touching q, or (at end of circuit) backward onto the last
   emitted operation touching q, because everything in between is disjoint
   from q.  Both rewrites are exact (same unitary, not merely up to phase),
   which is what {!verify} checks against the unfused {!Unitary.of_circuit}
   oracle. *)

type instr =
  | Apply1 of { q : int; e : float array }  (* Statevector.entries1 form *)
  | Apply2 of { a : int; b : int; e : float array }  (* entries2 form *)

type t = { n : int; instrs : instr array; source_gates : int }

(* Planning slots keep the live Fmatrix so backward absorption can keep
   multiplying; conversion to kernel entries happens once at the end. *)
type slot = S1 of int * Fmatrix.t | S2 of int * int * Fmatrix.t

(* Seeded fault for the verification harness (docs/DESIGN.md §11): the
   end-of-circuit flush treats every pending fused 2x2 as if it were the
   identity, so trailing 1q gate runs vanish from the fused program. *)
let fault_identity_skip = Fault.enabled "fusion-identity-skip"

(* Bit-exact identity only: skipping it is a numeric no-op, so the fused
   program stays *exactly* equivalent, not just within tolerance (X·X and
   friends produce exact identities; Rz(θ)·Rz(−θ) generally does not). *)
let is_exact_identity m =
  Fmatrix.rows m = 2
  && Fmatrix.cols m = 2
  &&
  let re, im = Fmatrix.buffers m in
  re.(0) = 1.0 && re.(3) = 1.0 && re.(1) = 0.0 && re.(2) = 0.0
  && im.(0) = 0.0 && im.(1) = 0.0 && im.(2) = 0.0 && im.(3) = 0.0

let id2 = Fmatrix.identity 2

let plan circuit =
  let n = Circuit.n_qubits circuit in
  let len = Circuit.length circuit in
  (* At most one slot per two-qubit source gate plus one flushed 2x2 per
     qubit. *)
  let out : slot option array = Array.make (len + n) None in
  let count = ref 0 in
  let emit s =
    out.(!count) <- Some s;
    incr count;
    !count - 1
  in
  (* pending.(q): the product of source 1q gates on q not yet attached to an
     emitted operation.  last2.(q): index of the last emitted slot touching
     q (always an S2 — emitting or absorbing into anything touching q clears
     or rewrites pending first), or -1. *)
  let pending = Array.make n None in
  let last2 = Array.make n (-1) in
  Array.iter
    (fun app ->
      let g = app.Gate.gate in
      match (Gate.arity g, app.Gate.qubits) with
      | 1, [| q |] ->
        let m = Fmatrix.of_matrix (Gate.unitary g) in
        pending.(q) <- Some (match pending.(q) with None -> m | Some p -> Fmatrix.mul m p)
      | 2, [| a; b |] ->
        let m = Fmatrix.of_matrix (Gate.unitary g) in
        let lifted =
          match (pending.(a), pending.(b)) with
          | None, None -> m
          | pa, pb ->
            (* first operand = most significant bit, so a's pending goes on
               the left of the Kronecker lift *)
            let ua = Option.value pa ~default:id2 and ub = Option.value pb ~default:id2 in
            Fmatrix.mul m (Fmatrix.kron ua ub)
        in
        pending.(a) <- None;
        pending.(b) <- None;
        let idx = emit (S2 (a, b, lifted)) in
        last2.(a) <- idx;
        last2.(b) <- idx
      | _ ->
        invalid_arg
          (Printf.sprintf "Fusion.plan: %s applied to %d operand(s)" (Gate.name g)
             (Array.length app.Gate.qubits)))
    (Circuit.instructions circuit);
  (* End-of-circuit flush: a pending 2x2 on q commutes backward past every
     later emitted operation (all disjoint from q, or last2.(q) would point
     at them), so it is absorbed into the last 4x4 touching q when one
     exists, else emitted as a lone 2x2 — unless it is the exact identity,
     which is a no-op. *)
  for q = 0 to n - 1 do
    match pending.(q) with
    | None -> ()
    | Some p ->
      if fault_identity_skip || is_exact_identity p then ()
      else if last2.(q) >= 0 then begin
        match out.(last2.(q)) with
        | Some (S2 (a, b, m)) ->
          let lift = if q = a then Fmatrix.kron p id2 else Fmatrix.kron id2 p in
          out.(last2.(q)) <- Some (S2 (a, b, Fmatrix.mul lift m))
        | _ -> assert false
      end
      else ignore (emit (S1 (q, p)))
  done;
  let instrs =
    Array.init !count (fun i ->
        match out.(i) with
        | Some (S1 (q, m)) -> Apply1 { q; e = Fmatrix.interleaved m }
        | Some (S2 (a, b, m)) -> Apply2 { a; b; e = Fmatrix.interleaved m }
        | None -> assert false)
  in
  { n; instrs; source_gates = len }

let n_qubits t = t.n

let length t = Array.length t.instrs

let source_gates t = t.source_gates

let apply ?jobs sv t =
  if Statevector.n_qubits sv <> t.n then invalid_arg "Fusion.apply: qubit count mismatch";
  Array.iter
    (function
      | Apply1 { q; e } -> Statevector.apply_entries1 ?jobs sv e q
      | Apply2 { a; b; e } -> Statevector.apply_entries2 ?jobs sv e a b)
    t.instrs

let run ?jobs circuit sv = apply ?jobs sv (plan circuit)

let of_circuit circuit =
  let sv = Statevector.create (Circuit.n_qubits circuit) in
  apply sv (plan circuit);
  sv

let to_unitary t =
  let d = 1 lsl t.n in
  let u = Fmatrix.create d d in
  let ure, uim = Fmatrix.buffers u in
  let state = Statevector.create t.n in
  let sre, sim = Statevector.buffers state in
  for k = 0 to d - 1 do
    Statevector.reset state;
    sre.{0} <- 0.0;
    sre.{k} <- 1.0;
    apply ~jobs:1 state t;
    for r = 0 to d - 1 do
      ure.((r * d) + k) <- sre.{r};
      uim.((r * d) + k) <- sim.{r}
    done
  done;
  Fmatrix.to_matrix u

let verify ?(tol = 1e-9) circuit t =
  Circuit.n_qubits circuit = t.n
  && Matrix.approx_equal ~tol (Unitary.of_circuit circuit) (to_unitary t)
