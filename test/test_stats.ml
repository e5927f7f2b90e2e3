open Helpers

let test_mean () =
  check_float "mean" 2.5 (Stats.mean [ 1.0; 2.0; 3.0; 4.0 ]);
  check_float "empty" 0.0 (Stats.mean [])

let test_geomean () =
  check_float "geomean" 4.0 (Stats.geomean [ 2.0; 8.0 ]);
  check_float "singleton" 3.0 (Stats.geomean [ 3.0 ]);
  Alcotest.check_raises "non-positive"
    (Invalid_argument "Stats.geomean: non-positive element") (fun () ->
      ignore (Stats.geomean [ 1.0; 0.0 ]))

let test_geomean_stability () =
  (* success rates around 1e-60 must not underflow the geometric mean *)
  let xs = List.init 100 (fun _ -> 1e-60) in
  check_float ~eps:1e-65 "tiny values" 1e-60 (Stats.geomean xs)

let test_variance_stddev () =
  check_float ~eps:1e-9 "population variance" (8.0 /. 3.0) (Stats.variance [ 1.0; 3.0; 5.0 ]);
  check_float "singleton variance" 0.0 (Stats.variance [ 42.0 ]);
  check_float ~eps:1e-9 "stddev" (sqrt (8.0 /. 3.0)) (Stats.stddev [ 1.0; 3.0; 5.0 ])

let test_median_percentile () =
  check_float "odd median" 3.0 (Stats.median [ 5.0; 1.0; 3.0 ]);
  check_float "even median" 2.5 (Stats.median [ 4.0; 1.0; 2.0; 3.0 ]);
  check_float "p0" 1.0 (Stats.percentile 0.0 [ 1.0; 2.0; 3.0 ]);
  check_float "p100" 3.0 (Stats.percentile 100.0 [ 1.0; 2.0; 3.0 ]);
  check_float "p25 interpolation" 1.5 (Stats.percentile 25.0 [ 1.0; 2.0; 3.0 ])

let test_min_max () =
  let lo, hi = Stats.min_max [ 3.0; -1.0; 7.0 ] in
  check_float "min" (-1.0) lo;
  check_float "max" 7.0 hi;
  Alcotest.check_raises "empty" (Invalid_argument "Stats.min_max: empty list") (fun () ->
      ignore (Stats.min_max []))

let test_sum_kahan () =
  (* naive summation loses the small terms entirely *)
  let xs = 1.0 :: List.init 10_000 (fun _ -> 1e-16) in
  check_float ~eps:1e-18 "compensated" (1.0 +. 1e-12) (Stats.sum xs)

let test_product () =
  check_float "product" 24.0 (Stats.product [ 2.0; 3.0; 4.0 ]);
  check_float "empty product" 1.0 (Stats.product [])

let prop_mean_bounds =
  prop_case "mean within min/max" QCheck.(list_of_size (Gen.int_range 1 50) (float_range (-100.) 100.))
    (fun xs ->
      let m = Stats.mean xs in
      let lo, hi = Stats.min_max xs in
      m >= lo -. 1e-9 && m <= hi +. 1e-9)

let prop_geomean_le_mean =
  prop_case "AM-GM inequality" QCheck.(list_of_size (Gen.int_range 1 50) (float_range 0.001 100.))
    (fun xs -> Stats.geomean xs <= Stats.mean xs +. 1e-9)

let suite =
  [
    Alcotest.test_case "mean" `Quick test_mean;
    Alcotest.test_case "geomean" `Quick test_geomean;
    Alcotest.test_case "geomean stability" `Quick test_geomean_stability;
    Alcotest.test_case "variance/stddev" `Quick test_variance_stddev;
    Alcotest.test_case "median/percentile" `Quick test_median_percentile;
    Alcotest.test_case "min_max" `Quick test_min_max;
    Alcotest.test_case "kahan sum" `Quick test_sum_kahan;
    Alcotest.test_case "product" `Quick test_product;
    prop_mean_bounds;
    prop_geomean_le_mean;
  ]
