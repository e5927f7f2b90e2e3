(* Murali et al.'s software-only crosstalk-adaptive scheduler (PAPERS.md,
   "Software mitigation of crosstalk on noisy intermediate-scale quantum
   computers", ASPLOS 2020), transplanted onto this repo's device model.

   No frequency tuning: every qubit idles at its fabrication parking
   frequency and every two-qubit gate runs at the shared interaction-region
   midpoint, exactly like Baseline N.  Crosstalk is mitigated purely in
   time — a ready gate whose modeled simultaneous-crosstalk error against
   the gates already accepted into the current moment exceeds
   [delay_threshold] is pushed to a later moment instead of detuned.  The
   idle padding this inserts is not free: the evaluation charges
   decoherence over the schedule's total duration, which is precisely the
   trade-off the paper's frequency-aware schedulers win (Table I). *)

open Fastsc_physics

(* Seeded fault for the verification harness (docs/DESIGN.md §11): flip the
   threshold comparison, so conflicting pairs pack together and distant
   (harmless) pairs serialize. *)
let fault_threshold = Fault.enabled "murali-delay-threshold"

let simultaneous_error ?(worst_case = false) device ~t (a, b) (c, d) =
  let omega_int = Step_builder.interaction_center device in
  let alpha q = Transmon.anharmonicity (Device.transmon device q) in
  (* Every coupled spectator channel between the two gates' operand sets; at
     the shared interaction frequency any such channel sits on resonance,
     which is the whole reason simultaneity is expensive here. *)
  List.fold_left
    (fun acc x ->
      List.fold_left
        (fun acc y ->
          let g = Device.coupling device x y in
          if g > 0.0 then
            acc
            +. Crosstalk.pair_error ~worst_case ~alpha_a:(alpha x) ~alpha_b:(alpha y) ~g
                 ~omega_a:omega_int ~omega_b:omega_int ~t ()
          else acc)
        acc [ c; d ])
    0.0 [ a; b ]

let pack ?(threshold = 1e-4) ~algorithm device circuit =
  let idle_freqs = Freq_alloc.idle_per_qubit device in
  let omega_int = Step_builder.interaction_center device in
  let pending = Pending.create circuit in
  let steps = ref [] in
  let delayed = ref 0 in
  while not (Pending.is_empty pending) do
    let used = Array.make (Device.n_qubits device) false in
    let chosen = ref [] in
    (* accepted two-qubit gates of this moment: (operand pair, gate time) *)
    let active = ref [] in
    List.iter
      (fun app ->
        let free = Array.for_all (fun q -> not used.(q)) app.Gate.qubits in
        if free then begin
          let accept =
            match app.Gate.qubits with
            | [| a; b |] ->
              let t_gate = Device.gate_time device app.Gate.gate in
              let ok =
                List.for_all
                  (fun (pair, t_other) ->
                    let err =
                      simultaneous_error device ~t:(Float.max t_gate t_other) (a, b) pair
                    in
                    if fault_threshold then err >= threshold else err <= threshold)
                  !active
              in
              if ok then active := ((a, b), t_gate) :: !active else incr delayed;
              ok
            | _ -> true
          in
          if accept then begin
            Array.iter (fun q -> used.(q) <- true) app.Gate.qubits;
            chosen := app :: !chosen
          end
        end)
      (Pending.ready pending);
    let gates = List.rev !chosen in
    (* the highest-criticality ready gate is always accepted (the acceptance
       test is vacuous against an empty moment), so every iteration makes
       progress *)
    assert (gates <> []);
    List.iter (Pending.schedule pending) gates;
    steps :=
      Step_builder.make device ~idle_freqs ~freq_of_gate:(fun _ -> omega_int) gates :: !steps
  done;
  ( {
      Schedule.device;
      algorithm;
      steps = List.rev !steps;
      idle_freqs;
      coupler = Schedule.Fixed_coupler;
    },
    !delayed )

let run ?threshold device circuit = fst (pack ?threshold ~algorithm:"murali-delay" device circuit)

let scheduler : Pass.scheduler =
  (module struct
    let name = "murali-delay"

    let aliases = [ "murali"; "md" ]

    let table1 = false

    let consumes = `Native

    let schedule (options : Pass.options) device native =
      let threshold = options.Pass.delay_threshold in
      let sched, delayed = pack ~threshold ~algorithm:"murali-delay" device native in
      ( sched,
        [
          ("delayed", Pass.Int delayed);
          ("steps", Pass.Int (Schedule.depth sched));
          ("threshold", Pass.Float threshold);
        ] )
  end)
