open Helpers
open Fastsc_util

(* The determinism contract: Pool.map at any job count equals List.map. *)

let squares n = List.init n (fun i -> i * i)

let test_map_matches_sequential () =
  let xs = List.init 500 Fun.id in
  let expected = List.map (fun x -> x * x) xs in
  List.iter
    (fun jobs ->
      check_true
        (Printf.sprintf "map ~jobs:%d == List.map" jobs)
        (Pool.map ~jobs (fun x -> x * x) xs = expected))
    [ 1; 2; 3; 4; 8 ]

let test_jobs_one_is_sequential_reference () =
  (* jobs = 1 must behave exactly like the list/array stdlib functions, and
     in particular must evaluate cells in order (the cells below detect any
     reordering through a side-effect log). *)
  let log = ref [] in
  let result = Pool.map ~jobs:1 (fun x -> log := x :: !log; x + 1) [ 1; 2; 3; 4 ] in
  check_true "results" (result = [ 2; 3; 4; 5 ]);
  check_true "in-order evaluation at jobs=1" (List.rev !log = [ 1; 2; 3; 4 ])

let test_empty_and_singleton () =
  check_true "empty list" (Pool.map ~jobs:4 (fun x -> x) [] = []);
  check_true "empty array" (Pool.map_array ~jobs:4 (fun x -> x) [||] = [||]);
  check_true "singleton list" (Pool.map ~jobs:4 string_of_int [ 7 ] = [ "7" ]);
  check_true "singleton array" (Pool.map_array ~jobs:4 succ [| 41 |] = [| 42 |])

let test_mapi_indices () =
  let xs = List.init 100 (fun i -> 100 - i) in
  let expected = List.mapi (fun i x -> (i, x)) xs in
  check_true "mapi carries correct indices" (Pool.mapi ~jobs:3 (fun i x -> (i, x)) xs = expected)

let test_ordering_determinism () =
  (* cells finish in scrambled wall-clock order (larger inputs do more work);
     results must still come back by input index *)
  let xs = List.init 64 (fun i -> 63 - i) in
  let work x =
    let acc = ref 0 in
    for _ = 1 to 1 + (x * 1000) do
      incr acc
    done;
    x + !acc - !acc
  in
  check_true "scrambled workloads, ordered results" (Pool.map ~jobs:4 work xs = xs)

exception Boom of int

let test_exception_propagation () =
  let raised =
    try
      ignore (Pool.map ~jobs:4 (fun x -> if x = 37 then raise (Boom x) else x) (List.init 100 Fun.id));
      None
    with Boom x -> Some x
  in
  check_true "exception re-raised on caller" (raised = Some 37)

let test_exception_at_jobs_one () =
  let raised =
    try
      ignore (Pool.map ~jobs:1 (fun x -> if x = 2 then failwith "seq" else x) [ 1; 2; 3 ]);
      false
    with Failure msg -> msg = "seq"
  in
  check_true "sequential fallback re-raises too" raised

let test_nested_map () =
  (* a map issued from inside another map's cell must complete (the caller
     executes its own batch), and the composite result must stay ordered *)
  let outer = List.init 6 (fun i -> List.init 20 (fun j -> (i * 20) + j)) in
  let expected = List.map (List.map (fun x -> x * 2)) outer in
  let result = Pool.map ~jobs:3 (fun row -> Pool.map ~jobs:2 (fun x -> x * 2) row) outer in
  check_true "nested maps complete and stay ordered" (result = expected)

let test_nested_map_on_shared_pool () =
  let pool = Pool.create ~jobs:3 () in
  let outer = List.init 8 (fun i -> i) in
  let expected = List.map (fun i -> squares (i + 1)) outer in
  let result =
    Pool.map ~pool (fun i -> Pool.map ~pool (fun j -> j * j) (List.init (i + 1) Fun.id)) outer
  in
  Pool.shutdown pool;
  check_true "nested maps on one shared pool do not deadlock" (result = expected)

let test_iter_collects_every_index () =
  let n = 200 in
  let seen = Array.make n false in
  (* each cell writes only its own slot: no synchronization needed *)
  Pool.iter ~jobs:4 (fun i -> seen.(i) <- true) (List.init n Fun.id);
  check_true "iter visited every cell exactly once" (Array.for_all Fun.id seen)

let test_explicit_pool_reuse () =
  let pool = Pool.create ~jobs:4 () in
  check_int "pool size" 4 (Pool.jobs pool);
  let a = Pool.map ~pool (fun x -> x + 1) (List.init 50 Fun.id) in
  let b = Pool.map ~pool (fun x -> x + 1) (List.init 50 Fun.id) in
  Pool.shutdown pool;
  check_true "two batches on one pool agree" (a = b && a = List.init 50 (fun i -> i + 1))

let test_default_jobs_override () =
  let before = Pool.default_jobs () in
  check_true "default is positive" (before >= 1);
  Pool.set_default_jobs 2;
  check_int "set_default_jobs sticks" 2 (Pool.default_jobs ());
  Alcotest.check_raises "rejects zero" (Invalid_argument "Pool.set_default_jobs: jobs must be >= 1")
    (fun () -> Pool.set_default_jobs 0);
  Pool.set_default_jobs before

(* -- teardown edges: submit, shutdown, and exceptions in flight -------------- *)

let test_submit_exception_does_not_kill_worker () =
  (* a raising fire-and-forget job must not take its worker down *)
  let pool = Pool.create ~jobs:2 () in
  Pool.submit pool (fun () -> failwith "boom");
  let r = Pool.map ~pool succ (List.init 20 Fun.id) in
  Pool.shutdown pool;
  check_true "workers survive a raising job" (r = List.init 20 succ)

let test_shutdown_drains_queued_submits () =
  (* jobs already queued when shutdown flips the stop flag still run:
     workers drain the queue before exiting *)
  let pool = Pool.create ~jobs:2 () in
  let ran = Atomic.make 0 in
  for _ = 1 to 50 do
    Pool.submit pool (fun () -> Atomic.incr ran)
  done;
  Pool.shutdown pool;
  check_int "every queued job ran before join" 50 (Atomic.get ran)

let test_exception_while_stopping () =
  (* raising jobs executed during the shutdown drain (stop already set) must
     neither wedge the join nor skip their queued siblings *)
  let pool = Pool.create ~jobs:2 () in
  let ran = Atomic.make 0 in
  for i = 1 to 20 do
    Pool.submit pool (fun () ->
        if i mod 2 = 0 then failwith "mid-drain boom" else Atomic.incr ran)
  done;
  Pool.shutdown pool;
  check_int "surviving siblings all ran" 10 (Atomic.get ran)

let test_submit_after_shutdown_raises () =
  let pool = Pool.create ~jobs:2 () in
  Pool.shutdown pool;
  check_true "submit after shutdown rejected"
    (match Pool.submit pool (fun () -> ()) with
    | () -> false
    | exception Invalid_argument _ -> true)

let suite =
  [
    Alcotest.test_case "map matches sequential" `Quick test_map_matches_sequential;
    Alcotest.test_case "jobs=1 is the sequential reference" `Quick
      test_jobs_one_is_sequential_reference;
    Alcotest.test_case "empty and singleton" `Quick test_empty_and_singleton;
    Alcotest.test_case "mapi indices" `Quick test_mapi_indices;
    Alcotest.test_case "ordering determinism" `Quick test_ordering_determinism;
    Alcotest.test_case "exception propagation" `Quick test_exception_propagation;
    Alcotest.test_case "exception at jobs=1" `Quick test_exception_at_jobs_one;
    Alcotest.test_case "nested map" `Quick test_nested_map;
    Alcotest.test_case "nested map on shared pool" `Quick test_nested_map_on_shared_pool;
    Alcotest.test_case "iter visits every cell" `Quick test_iter_collects_every_index;
    Alcotest.test_case "explicit pool reuse" `Quick test_explicit_pool_reuse;
    Alcotest.test_case "default jobs override" `Quick test_default_jobs_override;
    Alcotest.test_case "submit exception does not kill worker" `Quick
      test_submit_exception_does_not_kill_worker;
    Alcotest.test_case "shutdown drains queued submits" `Quick
      test_shutdown_drains_queued_submits;
    Alcotest.test_case "exception while stopping" `Quick test_exception_while_stopping;
    Alcotest.test_case "submit after shutdown raises" `Quick
      test_submit_after_shutdown_raises;
  ]
