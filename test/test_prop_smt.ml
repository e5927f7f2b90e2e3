(* Property-based oracles for the separation solver: any assignment the
   search returns must re-verify against the problem's own constraints via
   Smt.verify, independently of the backtracking path that produced it
   (paper eq 1-3, the |xi - xj| >= delta and sideband separations). *)
open Helpers
module Smt = Fastsc_smt.Smt

(* A randomly generated problem instance, kept as plain data so it can be
   printed and shrunk (dropping separations only ever relaxes the problem,
   so shrinking preserves "solver returned an invalid witness" failures). *)
type spec = {
  n : int;
  bounds : (float * float) array;
  seps : (int * int * float) list;  (* i, j, offset *)
  delta : float;
}

let print_spec s =
  Printf.sprintf "{n=%d; bounds=[%s]; seps=[%s]; delta=%.4f}" s.n
    (String.concat "; "
       (Array.to_list (Array.map (fun (lo, hi) -> Printf.sprintf "%.3f..%.3f" lo hi) s.bounds)))
    (String.concat "; "
       (List.map (fun (i, j, o) -> Printf.sprintf "(%d,%d,%+.2f)" i j o) s.seps))
    s.delta

let gen_spec rng =
  let n = Proptest.Gen.int_range 1 4 rng in
  let bound _ =
    let lo = Rng.uniform rng 0.0 8.0 in
    (lo, lo +. Rng.uniform rng 0.5 4.0)
  in
  let sep _ =
    let i = Rng.int rng n in
    let j = Rng.int rng n in
    let offset = Rng.choose rng [| 0.0; 0.3; -0.3 |] in
    (* i = j with offset 0 is rejected by the API; nudge to a sideband *)
    if i = j && offset = 0.0 then (i, j, 0.3) else (i, j, offset)
  in
  let bounds = Proptest.Gen.array ~min_len:n ~max_len:n bound rng in
  let seps = Proptest.Gen.list ~max_len:(2 * n * n - 1) sep rng in
  { n; bounds; seps; delta = Rng.uniform rng 0.0 1.5 }

let shrink_spec s =
  Seq.map (fun seps -> { s with seps }) (Proptest.Shrink.list s.seps)

let spec_arb = Proptest.make ~shrink:shrink_spec ~print:print_spec gen_spec

let build s =
  let t = Smt.create s.n in
  Array.iteri (fun v (lo, hi) -> Smt.set_bounds t v ~lo ~hi) s.bounds;
  List.iter (fun (i, j, offset) -> Smt.add_separation ~offset t i j) s.seps;
  t

let prop_solve_verifies =
  prop_case "solve witnesses re-verify" spec_arb (fun s ->
      let t = build s in
      match Smt.solve t ~delta:s.delta with
      | None -> true
      | Some xs -> Smt.verify t ~delta:s.delta xs)

let prop_max_delta_verifies =
  prop_case "find_max_delta witnesses re-verify at their delta" spec_arb (fun s ->
      let t = build s in
      match Smt.find_max_delta ~tolerance:1e-5 t with
      | None ->
        (* the search gives up only when even delta = 0 is infeasible *)
        Smt.solve t ~delta:0.0 = None
      | Some (delta, xs) -> Smt.verify t ~delta xs)

let prop_ordered_solve_is_monotone =
  prop_case "ordered solve respects the order and verifies" spec_arb (fun s ->
      let t = build s in
      let order = List.init s.n Fun.id in
      match Smt.solve ~order t ~delta:s.delta with
      | None -> true
      | Some xs ->
        let rec ascending = function
          | a :: b :: rest -> xs.(a) <= xs.(b) +. 1e-9 && ascending (b :: rest)
          | _ -> true
        in
        ascending order && Smt.verify t ~delta:s.delta xs)

let prop_verify_rejects_nan =
  (* regression for the edge case Smt.verify fixed: float comparisons against
     NaN are all false, so the old check accepted an all-NaN assignment *)
  prop_case "verify rejects non-finite assignments" spec_arb (fun s ->
      let t = build s in
      not (Smt.verify t ~delta:s.delta (Array.make s.n nan)))

let prop_verify_rejects_corrupted =
  prop_case "corrupting a witness onto a resonance breaks verify" spec_arb (fun s ->
      let t = build s in
      if s.delta < 0.05 then true
      else
        match Smt.solve t ~delta:s.delta with
        | None -> true
        | Some xs -> (
          match List.find_opt (fun (i, j, _) -> i <> j) s.seps with
          | None -> true
          | Some (i, j, offset) ->
            let corrupted = Array.copy xs in
            corrupted.(i) <- corrupted.(j) -. offset;
            (* x_i + offset - x_j = 0 < delta: the separation is now broken
               (the move may also leave the bounds; either way, a violation) *)
            not (Smt.verify t ~delta:s.delta corrupted)))

(* -- warm-start properties ------------------------------------------------- *)

(* Sparser instances than [gen_spec]: up to 10 variables with only ~n random
   separations, so most variables are held only by their own bounds.  The
   compiler builds complete-graph problems; these check that a warm start
   agrees with the cold search on loosely constrained ones too. *)
let gen_sparse_spec rng =
  let n = Proptest.Gen.int_range 2 10 rng in
  let bound _ =
    let lo = Rng.uniform rng 0.0 8.0 in
    (lo, lo +. Rng.uniform rng 0.5 4.0)
  in
  let sep _ =
    let i = Rng.int rng n in
    let j = Rng.int rng n in
    let offset = Rng.choose rng [| 0.0; 0.3; -0.3 |] in
    if i = j && offset = 0.0 then (i, j, 0.3) else (i, j, offset)
  in
  let bounds = Proptest.Gen.array ~min_len:n ~max_len:n bound rng in
  let seps = Proptest.Gen.list ~max_len:n sep rng in
  { n; bounds; seps; delta = Rng.uniform rng 0.0 1.5 }

let sparse_arb = Proptest.make ~shrink:shrink_spec ~print:print_spec gen_sparse_spec

let prop_warm_never_beats_cold =
  prop_case "warm-started search verifies and never beats cold" sparse_arb (fun s ->
      let t = build s in
      match Smt.find_max_delta ~tolerance:1e-5 t with
      | None -> true
      | Some (dc, wc) -> (
        (* seeding with the cold witness never changes feasibility, and both
           searches land within tolerance of the same maximum *)
        match Smt.find_max_delta ~tolerance:1e-5 ~warm:wc t with
        | None -> false
        | Some (dw, ww) ->
          Smt.verify t ~delta:dw ww && Float.abs (dw -. dc) <= 3e-5))

let test_violations_reporting () =
  let t = Smt.create ~lo:0.0 ~hi:1.0 2 in
  Smt.add_separation t 0 1;
  check_true "satisfying assignment: no violations"
    (Smt.violations t ~delta:0.5 [| 0.0; 0.8 |] = []);
  check_true "boundary assignment exactly at delta verifies"
    (Smt.verify t ~delta:0.5 [| 0.0; 0.5 |]);
  check_int "separation violation reported" 1
    (List.length (Smt.violations t ~delta:0.5 [| 0.0; 0.2 |]));
  check_true "wrong length reported"
    (Smt.violations t ~delta:0.5 [| 0.0 |] = [ Smt.Length_mismatch 1 ]);
  check_true "out of bounds reported"
    (List.mem (Smt.Out_of_bounds 1) (Smt.violations t ~delta:0.5 [| 0.0; 2.0 |]));
  check_true "nan reported"
    (List.mem (Smt.Not_finite 0) (Smt.violations t ~delta:0.5 [| nan; 0.8 |]))

let suite =
  [
    prop_solve_verifies;
    prop_max_delta_verifies;
    prop_ordered_solve_is_monotone;
    prop_verify_rejects_nan;
    prop_verify_rejects_corrupted;
    prop_warm_never_beats_cold;
    Alcotest.test_case "violations reporting" `Quick test_violations_reporting;
  ]
