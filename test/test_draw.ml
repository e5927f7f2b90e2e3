open Helpers

let sample () =
  Circuit.of_gates 3 [ (Gate.H, [ 0 ]); (Gate.Cnot, [ 0; 2 ]); (Gate.X, [ 1 ]) ]

let test_structure () =
  let text = Draw.circuit (sample ()) in
  let lines = String.split_on_char '\n' text in
  check_int "one row per qubit" 3 (List.length lines);
  check_true "labels wires" (contains text "q0");
  check_true "h drawn" (contains (List.nth lines 0) "h");
  check_true "control marker" (contains (List.nth lines 0) "*");
  check_true "target drawn" (contains (List.nth lines 2) "cnot");
  (* the middle qubit carries the link and its own gate *)
  check_true "link through q1" (contains (List.nth lines 1) "|");
  check_true "x drawn" (contains (List.nth lines 1) "x")

let test_rows_aligned () =
  let text = Draw.circuit (sample ()) in
  let widths = List.map String.length (String.split_on_char '\n' text) in
  check_true "equal widths" (List.for_all (fun w -> w = List.hd widths) widths)

let test_empty_circuit () =
  let text = Draw.circuit (Circuit.of_gates 2 []) in
  check_int "two bare wires" 2 (List.length (String.split_on_char '\n' text))

let test_wrapping () =
  let b = Circuit.builder 1 in
  for _ = 1 to 25 do
    Circuit.add b Gate.H [ 0 ]
  done;
  let text = Draw.circuit ~max_width:10 (Circuit.finish b) in
  (* 25 layers at 10 per bank = 3 banks separated by blank lines *)
  let banks = String.split_on_char '\n' text |> List.filter (fun l -> l = "") in
  check_int "bank separators" 2 (List.length banks)

let test_layer () =
  let text = Draw.layer (sample ()) 0 in
  check_true "layer 0 has h" (contains text "h");
  check_true "layer 0 lacks cnot" (not (contains text "cnot"));
  check_true "out of range"
    (try
       ignore (Draw.layer (sample ()) 99);
       false
     with Invalid_argument _ -> true)

let prop_row_count =
  prop_case "always one row per qubit per bank" (QCheck.pair (int_range 1 5) (int_range 0 30))
    (fun (n, gates) ->
      let b = Circuit.builder n in
      for i = 1 to gates do
        Circuit.add b (Gate.Rz (float_of_int i)) [ i mod n ]
      done;
      let text = Draw.circuit ~max_width:7 (Circuit.finish b) in
      let lines = String.split_on_char '\n' text in
      let non_blank = List.filter (fun l -> l <> "") lines in
      List.length non_blank mod n = 0)

let suite =
  [
    Alcotest.test_case "structure" `Quick test_structure;
    Alcotest.test_case "rows aligned" `Quick test_rows_aligned;
    Alcotest.test_case "empty circuit" `Quick test_empty_circuit;
    Alcotest.test_case "wrapping" `Quick test_wrapping;
    Alcotest.test_case "single layer" `Quick test_layer;
    prop_row_count;
  ]
