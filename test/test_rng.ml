open Helpers

let test_determinism () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    check_true "same stream" (Rng.int64 a = Rng.int64 b)
  done

let test_copy_independent () =
  let a = Rng.create 7 in
  ignore (Rng.int64 a);
  let b = Rng.copy a in
  check_true "copy continues the stream" (Rng.int64 a = Rng.int64 b);
  ignore (Rng.int64 a);
  (* b is one draw behind now; drawing from b must not affect a *)
  let a_next = Rng.int64 (Rng.copy a) in
  ignore (Rng.int64 b);
  check_true "streams are independent" (Rng.int64 a = a_next)

let test_split_differs () =
  let parent = Rng.create 3 in
  let child = Rng.split parent in
  let xs = List.init 20 (fun _ -> Rng.int64 parent) in
  let ys = List.init 20 (fun _ -> Rng.int64 child) in
  check_true "split stream differs from parent" (xs <> ys)

let test_int_bounds () =
  let rng = Rng.create 11 in
  for _ = 1 to 1000 do
    let v = Rng.int rng 17 in
    check_true "in range" (v >= 0 && v < 17)
  done

let test_int_rejects_nonpositive () =
  let rng = Rng.create 1 in
  Alcotest.check_raises "zero bound" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int rng 0))

let test_float_range () =
  let rng = Rng.create 5 in
  for _ = 1 to 1000 do
    let v = Rng.float rng in
    check_true "in [0,1)" (v >= 0.0 && v < 1.0)
  done

let test_uniform_range () =
  let rng = Rng.create 5 in
  for _ = 1 to 500 do
    let v = Rng.uniform rng 4.5 6.5 in
    check_true "in [4.5,6.5)" (v >= 4.5 && v < 6.5)
  done

let test_gaussian_moments () =
  let rng = Rng.create 2024 in
  let n = 50_000 in
  let samples = List.init n (fun _ -> Rng.gaussian ~mean:5.0 ~std:0.1 rng) in
  check_float ~eps:0.005 "mean" 5.0 (Stats.mean samples);
  check_float ~eps:0.005 "stddev" 0.1 (Stats.stddev samples)

let test_shuffle_permutation () =
  let rng = Rng.create 9 in
  let arr = Array.init 50 Fun.id in
  Rng.shuffle rng arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  check_true "is a permutation" (sorted = Array.init 50 Fun.id);
  check_true "actually shuffled" (arr <> Array.init 50 Fun.id)

let test_choose () =
  let rng = Rng.create 1 in
  let arr = [| 10; 20; 30 |] in
  for _ = 1 to 50 do
    check_true "chosen from array" (Array.mem (Rng.choose rng arr) arr)
  done

let test_choose_empty () =
  let rng = Rng.create 1 in
  Alcotest.check_raises "empty" (Invalid_argument "Rng.choose: empty array") (fun () ->
      ignore (Rng.choose rng ([||] : int array)))

let test_sample () =
  let rng = Rng.create 77 in
  let xs = List.init 30 Fun.id in
  let picked = Rng.sample rng 10 xs in
  check_int "size" 10 (List.length picked);
  check_int "distinct" 10 (List.length (List.sort_uniq compare picked));
  List.iter (fun x -> check_true "element of source" (List.mem x xs)) picked;
  check_int "k >= n returns all" 30 (List.length (Rng.sample rng 50 xs))

let prop_bool_balanced =
  prop_case "bool is roughly balanced" (int_range 1 1000) (fun seed ->
      let rng = Rng.create seed in
      let trues = ref 0 in
      for _ = 1 to 1000 do
        if Rng.bool rng then incr trues
      done;
      !trues > 400 && !trues < 600)

let suite =
  [
    Alcotest.test_case "determinism" `Quick test_determinism;
    Alcotest.test_case "copy independence" `Quick test_copy_independent;
    Alcotest.test_case "split differs" `Quick test_split_differs;
    Alcotest.test_case "int bounds" `Quick test_int_bounds;
    Alcotest.test_case "int rejects nonpositive" `Quick test_int_rejects_nonpositive;
    Alcotest.test_case "float range" `Quick test_float_range;
    Alcotest.test_case "uniform range" `Quick test_uniform_range;
    Alcotest.test_case "gaussian moments" `Quick test_gaussian_moments;
    Alcotest.test_case "shuffle permutation" `Quick test_shuffle_permutation;
    Alcotest.test_case "choose" `Quick test_choose;
    Alcotest.test_case "choose empty" `Quick test_choose_empty;
    Alcotest.test_case "sample" `Quick test_sample;
    prop_bool_balanced;
  ]
