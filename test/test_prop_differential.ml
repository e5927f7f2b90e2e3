(* Differential properties: the memo caches and the domain pool are pure
   performance features, so their observable results must be bit-identical
   to the uncached / sequential reference on every input — the determinism
   contract PR 1 asserted in prose, now machine-checked on random inputs. *)
open Helpers
open Fastsc_device
open Fastsc_noise
open Fastsc_core

let bits = Int64.bits_of_float

let float_arrays_bit_identical a b =
  Array.length a = Array.length b
  && Array.for_all2 (fun x y -> bits x = bits y) a b

(* -- Pool: jobs=1 vs jobs=N element-identical ------------------------------ *)

let xs_arb = Proptest.list ~max_len:60 (Proptest.int_range (-50) 50)

let prop_pool_matches_sequential =
  prop_case "Pool.map at any job count equals List.map" xs_arb (fun xs ->
      let f x = (x * x) - (3 * x) + 7 in
      let reference = List.map f xs in
      with_jobs 1 (fun () -> Pool.map f xs) = reference
      && with_jobs 4 (fun () -> Pool.map f xs) = reference)

let prop_pool_array_matches_sequential =
  prop_case "Pool.mapi_array at any job count equals Array.mapi"
    (Proptest.array ~max_len:60 (Proptest.float_range 0.0 1.0))
    (fun xs ->
      let f i x = (x *. float_of_int i) +. sin x in
      let reference = Array.mapi f xs in
      float_arrays_bit_identical (with_jobs 1 (fun () -> Pool.mapi_array f xs)) reference
      && float_arrays_bit_identical (with_jobs 4 (fun () -> Pool.mapi_array f xs)) reference)

(* -- Crosstalk: cache-on vs cache-off bit-identical ------------------------ *)

let pair_params =
  Proptest.make
    ~print:(fun (g, (oa, ob), t, wc) ->
      Printf.sprintf "g=%.4f omega_a=%.4f omega_b=%.4f t=%.1f worst_case=%b" g oa ob t wc)
    (fun rng ->
      let g = Rng.uniform rng 0.001 0.05 in
      let oa = Rng.uniform rng 4.5 6.5 in
      let ob = Rng.uniform rng 4.5 6.5 in
      let t = Rng.uniform rng 10.0 200.0 in
      let wc = Rng.bool rng in
      (g, (oa, ob), t, wc))

let prop_pair_error_cache_transparent =
  prop_case ~count:50 "pair_error: miss, hit and recompute are bit-identical" pair_params
    (fun (g, (omega_a, omega_b), t, worst_case) ->
      let compute () =
        Crosstalk.pair_error ~worst_case ~alpha_a:(-0.3) ~alpha_b:(-0.3) ~g ~omega_a ~omega_b
          ~t ()
      in
      Crosstalk.reset_pair_cache ();
      let cold = compute () in
      let hit = compute () in
      Crosstalk.reset_pair_cache ();
      let recomputed = compute () in
      bits cold = bits hit && bits cold = bits recomputed)

(* -- Freq_alloc: cached solves bit-identical to fresh solves --------------- *)

let device = Device.create ~seed:11 (Topology.grid 3 3)

let multiplicity_arb =
  Proptest.make
    ~print:(fun m ->
      "[|" ^ String.concat "; " (Array.to_list (Array.map string_of_int m)) ^ "|]")
    ~shrink:(Proptest.Shrink.array ~elt:Proptest.Shrink.int)
    (Proptest.Gen.array ~min_len:1 ~max_len:3 (Proptest.Gen.int_range 0 5))

let prop_interaction_cache_transparent =
  prop_case ~count:25 "interaction: hit and post-reset recompute are bit-identical"
    multiplicity_arb (fun multiplicity ->
      let n_colors = Array.length multiplicity in
      let solve () = Freq_alloc.interaction device ~n_colors ~multiplicity in
      Freq_alloc.reset_solver_cache ();
      let cold = solve () in
      let hit = solve () in
      Freq_alloc.reset_solver_cache ();
      let recomputed = solve () in
      float_arrays_bit_identical cold.Freq_alloc.freqs hit.Freq_alloc.freqs
      && float_arrays_bit_identical cold.Freq_alloc.freqs recomputed.Freq_alloc.freqs
      && bits cold.Freq_alloc.delta = bits hit.Freq_alloc.delta
      && bits cold.Freq_alloc.delta = bits recomputed.Freq_alloc.delta)

(* -- solved assignments satisfy the paper's separation constraints -------- *)

let prop_interaction_separations_hold =
  prop_case ~count:25 "interaction frequencies respect delta and the sidebands"
    multiplicity_arb (fun multiplicity ->
      let n_colors = Array.length multiplicity in
      let a = Freq_alloc.interaction device ~n_colors ~multiplicity in
      let alpha = -.(Device.params device).Device.anharmonicity in
      let freqs = a.Freq_alloc.freqs in
      let ok = ref true in
      Array.iteri
        (fun i fi ->
          Array.iteri
            (fun j fj ->
              if i <> j then begin
                if Float.abs (fi -. fj) +. 1e-9 < a.Freq_alloc.delta then ok := false;
                if Float.abs (fi +. alpha -. fj) +. 1e-9 < a.Freq_alloc.delta then ok := false
              end)
            freqs)
        freqs;
      !ok)

let suite =
  [
    prop_pool_matches_sequential;
    prop_pool_array_matches_sequential;
    prop_pair_error_cache_transparent;
    prop_interaction_cache_transparent;
    prop_interaction_separations_hold;
  ]
