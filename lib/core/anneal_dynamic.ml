(* Per-step cost: the evaluator's own step error, so the annealer optimizes
   exactly the objective it is judged on. *)
let step_cost schedule_skeleton device ~idle_freqs ~freq_of gates =
  let step = Step_builder.make device ~idle_freqs ~freq_of_gate:freq_of gates in
  let gate_error, crosstalk_error = Schedule.step_errors schedule_skeleton step in
  gate_error +. crosstalk_error

(* annealing budget per step *)
let iterations = 400

let run ?(seed = 0) device circuit =
  let rng = Rng.create seed in
  let idle_freqs = Freq_alloc.idle_per_qubit device in
  let partition = Device.partition device in
  let band_lo =
    Float.min
      (partition.Partition.interaction_lo +. (Device.params device).Device.anharmonicity)
      partition.Partition.interaction_hi
  in
  let band_hi = partition.Partition.interaction_hi in
  let skeleton =
    {
      Schedule.device;
      algorithm = "anneal-dynamic";
      steps = [];
      idle_freqs;
      coupler = Schedule.Fixed_coupler;
    }
  in
  let pending = Pending.create circuit in
  let steps = ref [] in
  while not (Pending.is_empty pending) do
    (* maximum qubit-disjoint parallelism: the purely spectral strategy *)
    let gates = Pending.select pending ~accept:(fun _ -> true) in
    assert (gates <> []);
    let two_qubit = List.filter (fun g -> Gate.is_two_qubit g.Gate.gate) gates in
    let freq_table = Hashtbl.create 8 in
    let freq_of app =
      match Hashtbl.find_opt freq_table app.Gate.id with
      | Some f -> f
      | None -> (band_lo +. band_hi) /. 2.0
    in
    if two_qubit <> [] then begin
      (* init: spread across the band in gate order *)
      List.iteri
        (fun i app ->
          let k = List.length two_qubit in
          let f =
            if k = 1 then band_hi
            else band_lo +. ((band_hi -. band_lo) *. float_of_int i /. float_of_int (k - 1))
          in
          Hashtbl.replace freq_table app.Gate.id f)
        two_qubit;
      let cost () = step_cost skeleton device ~idle_freqs ~freq_of gates in
      let current = ref (cost ()) in
      let temperature = ref (0.1 *. Float.max !current 1e-6) in
      for _ = 1 to iterations do
        let victim = List.nth two_qubit (Rng.int rng (List.length two_qubit)) in
        let old_freq = freq_of victim in
        let proposal =
          Float.max band_lo
            (Float.min band_hi (old_freq +. Rng.gaussian ~std:0.08 rng))
        in
        Hashtbl.replace freq_table victim.Gate.id proposal;
        let next = cost () in
        let accept =
          next <= !current
          || Rng.float rng < exp (-.(next -. !current) /. Float.max !temperature 1e-12)
        in
        if accept then current := next
        else Hashtbl.replace freq_table victim.Gate.id old_freq;
        temperature := !temperature *. 0.985
      done
    end;
    List.iter (Pending.schedule pending) gates;
    steps := Step_builder.make device ~idle_freqs ~freq_of_gate:freq_of gates :: !steps
  done;
  { skeleton with Schedule.steps = List.rev !steps }
