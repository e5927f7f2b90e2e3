(* Derivation tool for the two-qubit gate decompositions of paper Fig 8.

   Finds single-qubit correction layers L1, M, L2 such that
     CNOT = L2 . iSWAP . M . iSWAP . L1          (Fig 8a)
   by meet-in-the-middle search over tensor products of the 24 single-qubit
   Clifford gates, accepting any middle layer M that factors as a tensor
   product (which is then reported through its ZYZ Euler angles).  It also
   verifies the algebraically derived SWAP-from-sqrt-iSWAP identity used by
   Decompose (Fig 8b).

   This program is a development utility: its output was used once to fix the
   constants hardcoded in Fastsc_quantum.Decompose, and it remains in the
   repository so that derivation is reproducible (`dune exec
   bin/search_decomp.exe`). *)

open Fastsc_linalg

let kron = Matrix.kron

let mul3 a b c = Matrix.mul a (Matrix.mul b c)

let () =
  let open Fastsc_quantum in
  let u g = Gate.unitary g in
  let id2 = Matrix.identity 2 in
  (* BFS closure of {H, S} up to global phase gives the 24 Cliffords. *)
  let generators = [ ("H", u Gate.H); ("S", u Gate.S) ] in
  let found : (string * Matrix.t) list ref = ref [ ("I", id2) ] in
  let is_new m = not (List.exists (fun (_, m') -> Unitary.equal_up_to_phase m m') !found) in
  let frontier = ref !found in
  while !frontier <> [] do
    let next = ref [] in
    List.iter
      (fun (name, m) ->
        List.iter
          (fun (gname, gm) ->
            let candidate = Matrix.mul gm m in
            let cname = gname ^ name in
            if is_new candidate then begin
              found := (cname, candidate) :: !found;
              next := (cname, candidate) :: !next
            end)
          generators)
      !frontier;
    frontier := !next
  done;
  let cliffords = Array.of_list !found in
  Printf.printf "single-qubit cliffords: %d\n%!" (Array.length cliffords);

  (* Tensor-product separability: M =? A (x) B. *)
  let separate m =
    let block i j = Array.init 4 (fun k -> Matrix.get m ((2 * i) + (k / 2)) ((2 * j) + (k mod 2))) in
    let norm2 v = Array.fold_left (fun acc z -> acc +. Complex_ext.norm2 z) 0.0 v in
    let blocks = Array.init 4 (fun idx -> block (idx / 2) (idx mod 2)) in
    let ref_idx = ref 0 in
    for idx = 1 to 3 do
      if norm2 blocks.(idx) > norm2 blocks.(!ref_idx) then ref_idx := idx
    done;
    let bref = blocks.(!ref_idx) in
    let bnorm = sqrt (norm2 bref) in
    if bnorm < 1e-9 then None
    else begin
      let b = Array.map (fun z -> Complex_ext.scale (1.0 /. bnorm) z) bref in
      let a =
        Matrix.init 2 2 (fun i j ->
            let blk = blocks.((2 * i) + j) in
            let acc = ref Complex.zero in
            Array.iteri (fun k z -> acc := Complex.add !acc (Complex.mul (Complex.conj b.(k)) z)) blk;
            !acc)
      in
      let bm = Matrix.init 2 2 (fun i j -> b.((2 * i) + j)) in
      if Matrix.approx_equal ~tol:1e-7 (kron a bm) m then Some (a, bm) else None
    end
  in

  let zyz v =
    (* U = e^{i phase} Rz(alpha) Ry(beta) Rz(gamma) *)
    let det =
      Complex.sub
        (Complex.mul (Matrix.get v 0 0) (Matrix.get v 1 1))
        (Complex.mul (Matrix.get v 0 1) (Matrix.get v 1 0))
    in
    let phase = Complex.arg det /. 2.0 in
    let scale = Complex.polar 1.0 (-.phase) in
    let w = Matrix.scale scale v in
    let w00 = Matrix.get w 0 0 and w10 = Matrix.get w 1 0 in
    let beta = 2.0 *. atan2 (Complex.norm w10) (Complex.norm w00) in
    let arg00 = if Complex.norm w00 > 1e-9 then Complex.arg w00 else 0.0 in
    let arg10 = if Complex.norm w10 > 1e-9 then Complex.arg w10 else 0.0 in
    let alpha = arg10 -. arg00 and gamma = -.arg10 -. arg00 in
    (phase, alpha, beta, gamma)
  in

  let cnot = u Gate.Cnot and iswap = u Gate.Iswap in
  let adj = Matrix.adjoint in
  (* meet in the middle: M = iSWAP^ . L2^ . CNOT . L1^ . iSWAP^ *)
  let n = Array.length cliffords in
  (try
     for i1a = 0 to n - 1 do
       for i1b = 0 to n - 1 do
         let l1 = kron (snd cliffords.(i1a)) (snd cliffords.(i1b)) in
         let right = mul3 cnot (adj l1) (adj iswap) in
         for i2a = 0 to n - 1 do
           for i2b = 0 to n - 1 do
             let l2 = kron (snd cliffords.(i2a)) (snd cliffords.(i2b)) in
             let m = mul3 (adj iswap) (adj l2) right in
             match separate m with
             | None -> ()
             | Some (ma, mb) ->
               Printf.printf "FOUND CNOT decomposition:\n";
               Printf.printf "  L1 = %s (x) %s\n" (fst cliffords.(i1a)) (fst cliffords.(i1b));
               Printf.printf "  L2 = %s (x) %s\n" (fst cliffords.(i2a)) (fst cliffords.(i2b));
               let report label v =
                 let phase, alpha, beta, gamma = zyz v in
                 Printf.printf "  %s: phase=%.6f zyz=(%.6f, %.6f, %.6f)\n" label phase alpha
                   beta gamma
               in
               report "Ma" ma;
               report "Mb" mb;
               raise Exit
           done
         done
       done
     done;
     Printf.printf "no CNOT decomposition found in the Clifford search space\n"
   with Exit -> ());

  (* Verify SWAP = sqrtiSWAP . (Rx pi/2 (x) Rx pi/2) sqrtiSWAP (Rx -pi/2 (x) Rx -pi/2)
                   . (H (x) H) sqrtiSWAP (H (x) H), up to global phase. *)
  let sq = u Gate.Sqrt_iswap in
  let rx t = u (Gate.Rx t) in
  let hh = kron (u Gate.H) (u Gate.H) in
  let rxp = kron (rx (Float.pi /. 2.0)) (rx (Float.pi /. 2.0)) in
  let rxm = kron (rx (-.Float.pi /. 2.0)) (rx (-.Float.pi /. 2.0)) in
  let candidate = mul3 sq rxp (mul3 sq rxm (mul3 hh sq hh)) in
  Printf.printf "SWAP-from-sqrt-iSWAP identity holds: %b\n"
    (Unitary.equal_up_to_phase candidate (u Gate.Swap))
