open Helpers
open Fastsc_device
open Fastsc_core

let schedule () =
  let device = Device.create ~seed:2020 (Topology.grid 3 3) in
  let circuit =
    Circuit.of_gates 9 [ (Gate.Iswap, [ 0; 1 ]); (Gate.Iswap, [ 2; 5 ]); (Gate.H, [ 4 ]) ]
  in
  Compile.schedule_native Pass.default_options Compile.Color_dynamic device circuit

let test_shape () =
  let s = schedule () in
  let text = Freq_chart.render s in
  let lines = String.split_on_char '\n' text in
  (* 9 qubit rows + legend *)
  check_int "rows" 10 (List.length lines);
  (* each qubit row has one cell per step *)
  let first = List.hd lines in
  check_int "cells per row" (4 + Schedule.depth s) (String.length first)

let test_semantics () =
  let s = schedule () in
  (* parked qubits are dots throughout *)
  let row8 = Freq_chart.row s 8 in
  String.iteri (fun i c -> if i >= 4 then check_true "parked is dot" (c = '.')) row8;
  (* active qubits carry a letter in some step *)
  let has_letter row =
    let found = ref false in
    String.iter (fun c -> if c >= 'A' && c <= 'Z' then found := true) row;
    !found
  in
  check_true "q0 active" (has_letter (Freq_chart.row s 0));
  check_true "q2 active" (has_letter (Freq_chart.row s 2));
  (* the two parallel gates sit on different letters (different colors) *)
  let letter_of row =
    let letter = ref ' ' in
    String.iter (fun c -> if c >= 'A' && c <= 'Z' then letter := c) row;
    !letter
  in
  check_true "distinct colors visible"
    (letter_of (Freq_chart.row s 0) <> letter_of (Freq_chart.row s 2));
  (* never an exclusion-band excursion *)
  String.iter (fun c -> check_true "no '!'" (c <> '!')) (Freq_chart.render s)

let test_out_of_range () =
  check_true "raises"
    (try
       ignore (Freq_chart.row (schedule ()) 99);
       false
     with Invalid_argument _ -> true)

let suite =
  [
    Alcotest.test_case "shape" `Quick test_shape;
    Alcotest.test_case "semantics" `Quick test_semantics;
    Alcotest.test_case "out of range" `Quick test_out_of_range;
  ]
