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
        (Printf.sprintf "map at width %d == List.map" jobs)
        (with_jobs jobs (fun () -> Pool.map (fun x -> x * x) xs) = expected))
    [ 1; 2; 3; 4; 8 ]

let test_jobs_one_is_sequential_reference () =
  (* jobs = 1 must behave exactly like the list/array stdlib functions, and
     in particular must evaluate cells in order (the cells below detect any
     reordering through a side-effect log). *)
  let log = ref [] in
  let result =
    with_jobs 1 (fun () -> Pool.map (fun x -> log := x :: !log; x + 1) [ 1; 2; 3; 4 ])
  in
  check_true "results" (result = [ 2; 3; 4; 5 ]);
  check_true "in-order evaluation at jobs=1" (List.rev !log = [ 1; 2; 3; 4 ])

let test_empty_and_singleton () =
  with_jobs 4 (fun () ->
      check_true "empty list" (Pool.map (fun x -> x) [] = []);
      check_true "empty array" (Pool.mapi_array (fun _ x -> x) [||] = [||]);
      check_true "singleton list" (Pool.map string_of_int [ 7 ] = [ "7" ]);
      check_true "singleton array" (Pool.mapi_array (fun _ x -> succ x) [| 41 |] = [| 42 |]))

let test_mapi_indices () =
  let xs = Array.init 100 (fun i -> 100 - i) in
  let expected = Array.mapi (fun i x -> (i, x)) xs in
  check_true "mapi_array carries correct indices"
    (with_jobs 3 (fun () -> Pool.mapi_array (fun i x -> (i, x)) xs) = expected)

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
  check_true "scrambled workloads, ordered results" (with_jobs 4 (fun () -> Pool.map work xs) = xs)

exception Boom of int

let test_exception_propagation () =
  let raised =
    try
      with_jobs 4 (fun () ->
          ignore (Pool.map (fun x -> if x = 37 then raise (Boom x) else x) (List.init 100 Fun.id)));
      None
    with Boom x -> Some x
  in
  check_true "exception re-raised on caller" (raised = Some 37)

let test_exception_at_jobs_one () =
  let raised =
    try
      with_jobs 1 (fun () ->
          ignore (Pool.map (fun x -> if x = 2 then failwith "seq" else x) [ 1; 2; 3 ]));
      false
    with Failure msg -> msg = "seq"
  in
  check_true "sequential fallback re-raises too" raised

let test_nested_map () =
  (* a map issued from inside another map's cell must complete (the caller
     executes its own batch), and the composite result must stay ordered *)
  let outer = List.init 6 (fun i -> List.init 20 (fun j -> (i * 20) + j)) in
  let expected = List.map (List.map (fun x -> x * 2)) outer in
  let result = with_jobs 3 (fun () -> Pool.map (fun row -> Pool.map (fun x -> x * 2) row) outer) in
  check_true "nested maps complete and stay ordered" (result = expected)

let test_nested_map_on_shared_pool () =
  (* ragged inner batches, from 1 cell (run inline) to 8, all on the one pool *)
  let outer = List.init 8 (fun i -> i) in
  let expected = List.map (fun i -> squares (i + 1)) outer in
  let result =
    with_jobs 3 (fun () ->
        Pool.map (fun i -> Pool.map (fun j -> j * j) (List.init (i + 1) Fun.id)) outer)
  in
  check_true "nested maps on one shared pool do not deadlock" (result = expected)

let test_default_jobs_override () =
  check_true "default is positive" (Pool.default_jobs () >= 1);
  with_jobs 2 (fun () -> check_int "set_default_jobs sticks" 2 (Pool.default_jobs ()));
  Alcotest.check_raises "rejects zero" (Invalid_argument "Pool.set_default_jobs: jobs must be >= 1")
    (fun () -> Pool.set_default_jobs 0)

(* -- submitted jobs: exceptions, and a re-size with jobs still queued ---------- *)

let test_submit_exception_does_not_kill_worker () =
  (* width 2 has exactly one worker: the flag is set only if it survived *)
  let ran = Atomic.make false in
  with_jobs 2 (fun () ->
      Pool.submit (fun () -> failwith "boom");
      Pool.submit (fun () -> Atomic.set ran true));
  let give_up = Unix.gettimeofday () +. 10.0 in
  while (not (Atomic.get ran)) && Unix.gettimeofday () < give_up do
    Unix.sleepf 0.001
  done;
  check_true "the worker survives a raising job" (Atomic.get ran)

(* A change of width shuts the old workers down: set_default_jobs returns
   once they have run every job queued for them. *)
let resize_after_submits submits =
  with_jobs 2 (fun () -> List.iter Pool.submit submits);
  with_jobs 3 ignore

let test_shutdown_drains_queued_submits () =
  let ran = Atomic.make 0 in
  resize_after_submits (List.init 50 (fun _ () -> Atomic.incr ran));
  check_int "every queued job ran before join" 50 (Atomic.get ran)

let test_exception_while_stopping () =
  (* raising jobs executed during the shutdown drain (stop already set) must
     neither wedge the join nor skip their queued siblings *)
  let ran = Atomic.make 0 in
  resize_after_submits
    (List.init 20 (fun i () -> if i mod 2 = 0 then failwith "mid-drain boom" else Atomic.incr ran));
  check_int "surviving siblings all ran" 10 (Atomic.get ran)

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
    Alcotest.test_case "default jobs override" `Quick test_default_jobs_override;
    Alcotest.test_case "submit exception does not kill worker" `Quick
      test_submit_exception_does_not_kill_worker;
    Alcotest.test_case "shutdown drains queued submits" `Quick
      test_shutdown_drains_queued_submits;
    Alcotest.test_case "exception while stopping" `Quick test_exception_while_stopping;
  ]
