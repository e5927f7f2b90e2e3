open Helpers
open Fastsc_core

let sample () =
  Circuit.of_gates 3
    [
      (Gate.H, [ 0 ]);
      (Gate.Cz, [ 0; 1 ]);
      (Gate.H, [ 2 ]);
      (Gate.Cz, [ 1; 2 ]);
      (Gate.H, [ 1 ]);
    ]

let test_initial_ready () =
  let p = Pending.create (sample ()) in
  let ready = Pending.ready p in
  (* h0 and h2 are ready; cz(0,1) waits for h0, cz(1,2) for cz(0,1)... no:
     cz(0,1) needs h0 done AND is first on qubit 1 -> blocked by h0 only *)
  Alcotest.(check (list int)) "ready ids" [ 0; 2 ] (List.map (fun a -> a.Gate.id) ready)

let test_criticality_ordering () =
  let p = Pending.create (sample ()) in
  match Pending.ready p with
  | first :: _ ->
    (* h0 heads the longest chain h0 -> cz01 -> cz12 -> h1 *)
    check_int "deepest first" 0 first.Gate.id;
    check_int "its criticality" 4 (Pending.criticality p first)
  | [] -> Alcotest.fail "expected ready gates"

let test_criticality_beats_program_order () =
  (* h2 comes first in program order but nothing waits on it (criticality
     1); h0 heads h0 -> cz01 -> cz13 -> h1 (4), h3 heads h3 -> cz13 -> h1
     (3).  Once h0 is scheduled, cz01 (3) ties with h3 and wins by id. *)
  let c =
    Circuit.of_gates 4
      [
        (Gate.H, [ 2 ]); (Gate.H, [ 0 ]); (Gate.Cz, [ 0; 1 ]); (Gate.H, [ 3 ]);
        (Gate.Cz, [ 1; 3 ]); (Gate.H, [ 1 ]);
      ]
  in
  let p = Pending.create c in
  let ids () = List.map (fun a -> a.Gate.id) (Pending.ready p) in
  Alcotest.(check (list int)) "critical chain heads first" [ 1; 3; 0 ] (ids ());
  Pending.schedule p (Circuit.instructions c).(1);
  Alcotest.(check (list int)) "newly ready gate ranked by criticality" [ 2; 3; 0 ] (ids ())

let test_schedule_unblocks () =
  let c = sample () in
  let p = Pending.create c in
  let instrs = Circuit.instructions c in
  Pending.schedule p instrs.(0);
  let ready_ids = List.map (fun a -> a.Gate.id) (Pending.ready p) in
  check_true "cz01 now ready" (List.mem 1 ready_ids);
  check_int "remaining" 4 (Pending.n_remaining p)

let test_schedule_not_ready_rejected () =
  let c = sample () in
  let p = Pending.create c in
  let instrs = Circuit.instructions c in
  Alcotest.check_raises "dependency violation"
    (Invalid_argument "Pending.schedule: gate 1 is not ready (dependency violation)")
    (fun () -> Pending.schedule p instrs.(1))

let test_drain_respects_dependencies () =
  let c = sample () in
  let p = Pending.create c in
  let scheduled = ref [] in
  while not (Pending.is_empty p) do
    match Pending.ready p with
    | [] -> Alcotest.fail "deadlock"
    | app :: _ ->
      Pending.schedule p app;
      scheduled := app.Gate.id :: !scheduled
  done;
  let order = List.rev !scheduled in
  check_int "all gates" 5 (List.length order);
  (* per-qubit order is preserved *)
  let position id = Option.get (List.find_index (fun x -> x = id) order) in
  check_true "0 before 1" (position 0 < position 1);
  check_true "1 before 3" (position 1 < position 3);
  check_true "3 before 4" (position 3 < position 4)

(* Four gates ready at once, ranked h0 and cz12 (criticality 3 each, both
   ahead of cz01 -> h1; h0 wins the tie by id), h3 (2), then h4 (1), which
   comes first in program order. *)
let wide () =
  Circuit.of_gates 5
    [
      (Gate.H, [ 4 ]); (Gate.H, [ 0 ]); (Gate.Cz, [ 1; 2 ]); (Gate.H, [ 3 ]);
      (Gate.Cz, [ 0; 1 ]); (Gate.H, [ 1 ]); (Gate.Cz, [ 2; 3 ]);
    ]

let ids apps = List.map (fun a -> a.Gate.id) apps

let test_select_order () =
  let p = Pending.create (wide ()) in
  let ready = ids (Pending.ready p) in
  Alcotest.(check (list int)) "ready" [ 1; 2; 3; 0 ] ready;
  let asked = ref [] in
  let chosen =
    Pending.select p ~accept:(fun app ->
        asked := app.Gate.id :: !asked;
        app.Gate.id <> 2)
  in
  Alcotest.(check (list int)) "accept asked about every ready gate, in ready order" ready
    (List.rev !asked);
  Alcotest.(check (list int)) "accepted gates, in ready order" [ 1; 3; 0 ] (ids chosen);
  Alcotest.(check (list int)) "nothing scheduled" ready (ids (Pending.ready p));
  check_int "nothing retired" 7 (Pending.n_remaining p)

(* Moment by moment, with every gate accepted: the ready gates never share
   a qubit, so each moment is the whole ready set, and a qubit the last
   moment used is offered again through the gate it readied. *)
let test_select_frees_qubits () =
  let p = Pending.create (wide ()) in
  let moments = ref [] in
  while not (Pending.is_empty p) do
    let ready = Pending.ready p in
    let asked = ref [] in
    let chosen =
      Pending.select p ~accept:(fun app ->
          asked := app :: !asked;
          true)
    in
    check_true "every ready gate offered" (List.rev !asked = ready);
    check_true "every ready gate chosen" (chosen = ready);
    List.iter (Pending.schedule p) chosen;
    moments := ids chosen :: !moments
  done;
  Alcotest.(check (list (list int)))
    "moments" [ [ 1; 2; 3; 0 ]; [ 4; 6 ]; [ 5 ] ] (List.rev !moments)

let test_empty_circuit () =
  let p = Pending.create (Circuit.of_gates 2 []) in
  check_true "immediately empty" (Pending.is_empty p);
  check_int "nothing ready" 0 (List.length (Pending.ready p))

(* A gate of a longer circuit: its id is past the end of this one. *)
let test_schedule_unknown_id_rejected () =
  let p = Pending.create (sample ()) in
  let stranger = (Circuit.instructions (wide ())).(6) in
  Alcotest.check_raises "id past the end"
    (Invalid_argument "Pending.schedule: gate 6 is not ready (dependency violation)")
    (fun () -> Pending.schedule p stranger)

let prop_drain_is_topological =
  prop_case ~count:50 "greedy drain visits every gate exactly once" (int_range 1 5000)
    (fun seed ->
      let rng = Rng.create seed in
      let b = Circuit.builder 5 in
      for _ = 1 to 20 do
        if Rng.bool rng then Circuit.add b Gate.H [ Rng.int rng 5 ]
        else begin
          let a = Rng.int rng 5 in
          Circuit.add b Gate.Cz [ a; (a + 1 + Rng.int rng 4) mod 5 ]
        end
      done;
      let c = Circuit.finish b in
      let p = Pending.create c in
      let count = ref 0 in
      while not (Pending.is_empty p) do
        match Pending.ready p with
        | [] -> failwith "deadlock"
        | app :: _ ->
          Pending.schedule p app;
          incr count
      done;
      !count = Circuit.length c)

let suite =
  [
    Alcotest.test_case "initial ready" `Quick test_initial_ready;
    Alcotest.test_case "criticality ordering" `Quick (fun () ->
        test_criticality_ordering ();
        test_criticality_beats_program_order ());
    Alcotest.test_case "schedule unblocks" `Quick test_schedule_unblocks;
    Alcotest.test_case "not ready rejected" `Quick test_schedule_not_ready_rejected;
    Alcotest.test_case "unknown id rejected" `Quick test_schedule_unknown_id_rejected;
    Alcotest.test_case "drain respects dependencies" `Quick test_drain_respects_dependencies;
    Alcotest.test_case "select keeps ready order" `Quick test_select_order;
    Alcotest.test_case "select frees every qubit" `Quick test_select_frees_qubits;
    Alcotest.test_case "empty circuit" `Quick test_empty_circuit;
    prop_drain_is_topological;
  ]
