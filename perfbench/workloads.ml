(* The three closed-loop workloads: what one op is, the seeded op list, the
   set-up that precedes timing, and the output checks.  Each op list is a
   pure function of the workload seed and the run length; the compiler only
   ever sees the generated devices and circuits. *)

type program = {
  success : float;
  log10_success : float;
  depth : int;
  n_gates : int;
  swaps : int;
}

(* Bit-exact equality, the determinism contract's notion of "the same". *)
let same_program a b =
  Int64.equal (Int64.bits_of_float a.success) (Int64.bits_of_float b.success)
  && Int64.equal (Int64.bits_of_float a.log10_success) (Int64.bits_of_float b.log10_success)
  && a.depth = b.depth && a.n_gates = b.n_gates && a.swaps = b.swaps

type prepared = {
  n_ops : int;
  run_op : Trace.t option -> int -> program;
      (** Run op [i]; raises [Failure] when an output check fails. *)
  verify : program option array -> (int * string) list;
      (** Checks across ops (repeat identity, sampling bounds): the ops that
          fail them, with the reason. *)
  figures : (string * float) list;  (** Per-layer figures fixed at set-up. *)
  label : int -> string;  (** What op [i] runs, for reports and the trace. *)
}

type workload = {
  name : string;
  why : string;
  jobs : int;  (** [FASTSC_JOBS] the workload is pinned to. *)
  limit_ms : float;
      (** Latency limit of [within_limit_share]: about three times the
          workload's p95 on the reference host, so the share catches a tail
          that grows, not only failures. *)
  setup : Trace.t option -> seed:int -> seconds:int -> prepared;
}

(* Every memo table a run fills, emptied before each set-up so that the
   traced run, which sets up again in the same process, starts where the
   untraced one did. *)
let reset_caches () =
  Freq_alloc.reset_solver_cache ();
  Crosstalk.reset_pair_cache ();
  Fastsc_serve.Ladder.reset_stale_cache ()

(* -- counters read around ops ------------------------------------------------- *)

type counters = {
  probes : int;  (** [Smt.find_max_delta_count]. *)
  solver : Freq_alloc.cache_stats;
  pair : Crosstalk.cache_stats;
  minor_words : float;  (** This domain's allocation, [Gc.quick_stat]. *)
  major_words : float;
}

let counters () =
  let gc = Gc.quick_stat () in
  {
    probes = Smt.find_max_delta_count ();
    solver = Freq_alloc.solver_cache_stats ();
    pair = Crosstalk.pair_cache_stats ();
    minor_words = gc.Gc.minor_words;
    major_words = gc.Gc.major_words;
  }

let deltas a b =
  [
    ("smt_probes", b.probes - a.probes);
    ("solver_hits", b.solver.hits - a.solver.hits);
    ("solver_misses", b.solver.misses - a.solver.misses);
    ("warm_hits", b.solver.warm_hits - a.solver.warm_hits);
    ("warm_misses", b.solver.warm_misses - a.solver.warm_misses);
    ("pair_hits", b.pair.hits - a.pair.hits);
    ("pair_misses", b.pair.misses - a.pair.misses);
  ]

(* Counter deltas of one op, attached to its root span. *)
let counter_args a b =
  List.map (fun (k, v) -> (k, float_of_int v)) (deltas a b)
  @ [ ("minor_words", b.minor_words -. a.minor_words) ]

let same_counts (a, b) (a', b') = deltas a b = deltas a' b'

let counter_figures ~ops a b =
  let d = deltas a b in
  let get k = List.assoc k d in
  let hit_ratio hits misses = Measure.ratio (get hits) (get hits + get misses) in
  let per_op x = if ops = 0 then 0.0 else x /. float_of_int ops in
  [
    ("smt.probes_per_op", per_op (float_of_int (get "smt_probes")));
    ("freq_alloc.hit_ratio", hit_ratio "solver_hits" "solver_misses");
    ("freq_alloc.warm_hit_ratio", hit_ratio "warm_hits" "warm_misses");
    ("crosstalk.pair_hit_ratio", hit_ratio "pair_hits" "pair_misses");
    ("gc.minor_words_per_op", per_op (b.minor_words -. a.minor_words));
    ("gc.major_words_per_op", per_op (b.major_words -. a.major_words));
  ]

(* -- shared pieces ----------------------------------------------------------- *)

let device tr ~seed n =
  Trace.span tr "device.create" (fun () -> Device.create ~seed (Topology.square_grid n))

let circuit tr ?(cycles = 5) ~seed bench ~n device =
  Trace.span tr "benchmarks.circuit" (fun () ->
      let rng = Rng.create seed in
      match bench with
      | "bv" -> Bv.circuit ~n ()
      | "qaoa" -> Qaoa.circuit rng ~n ()
      | "ising" -> Ising.circuit ~n ()
      | "qgan" -> Qgan.circuit rng ~n ()
      | "xeb" ->
        Xeb.circuit rng ~graph:(Device.graph device)
          ~classes:(Baseline_gmon.edge_classes device) ~cycles ()
      | "grover" -> Grover.circuit ~n ()
      | "vqe" -> Vqe.circuit rng ~n ()
      | other -> invalid_arg ("Workloads.circuit: unknown benchmark " ^ other))

(* Referencing Compile links it, and its initialization registers the
   built-in schedulers the pipelines below look up by name. *)
let () = ignore Compile.all_algorithms

(* Untraced: one [Pass.execute].  Traced: the same stages applied one at a
   time to a fresh context, each in its own span — the same result as
   [Pass.execute] without a deadline. *)
let compile tr ?(options = Pass.default_options) ~algorithm device circ =
  match tr with
  | None -> Pass.execute ~options ~algorithm device circ
  | Some _ ->
    List.fold_left
      (fun ctx (stage : Pass.pass) ->
        let name = "pass." ^ String.map (fun c -> if c = '-' then '_' else c) stage.pass_name in
        Trace.span tr name (fun () -> Pass.run_pipeline [ stage ] ctx))
      (Pass.Context.create ~options device circ)
      (Pass.pipeline ~algorithm ())

let fail fmt = Printf.ksprintf failwith fmt

(* Schedule.check plus finite success: the output checks every compiled
   program passes. *)
let checked tr ~label (ctx : Pass.Context.t) =
  let schedule = Pass.Context.schedule_exn ctx in
  (match Trace.span tr "schedule.check" (fun () -> Schedule.check schedule) with
  | Ok () -> ()
  | Error msg -> fail "%s: Schedule.check: %s" label msg);
  let m = Pass.Context.metrics_exn ctx in
  if not (Float.is_finite m.Schedule.log10_success) then
    fail "%s: success %g has no finite log10" label m.Schedule.success;
  let swaps =
    match ctx.Pass.Context.routed with
    | Some r -> r.Mapping.n_swaps
    | None -> (
      match List.assoc_opt "swaps" ctx.Pass.Context.stats with Some (Pass.Int k) -> k | _ -> 0)
  in
  {
    success = m.Schedule.success;
    log10_success = m.Schedule.log10_success;
    depth = Schedule.depth schedule;
    n_gates = Schedule.n_gates schedule;
    swaps;
  }

(* [rounds] passes over [cells] (at least one), each in its own
   seed-shuffled order. *)
let shuffled_rounds ~seed ~rounds cells =
  let rng = Rng.create seed in
  Array.concat
    (List.init (max 1 rounds) (fun _ ->
         let order = Array.init cells Fun.id in
         Rng.shuffle rng order;
         order))

let paper_device_seed = 2020

let circuit_seed = 7

(* -- paper-compile ----------------------------------------------------------- *)

let paper_benches = [ "bv"; "qaoa"; "ising"; "qgan"; "xeb"; "grover"; "vqe" ]

let paper_sizes = [ 9; 16 ]

let paper_algorithms =
  [
    "baseline-n"; "baseline-g"; "baseline-u"; "baseline-s"; "color-dynamic"; "murali-delay";
    "cqc-synergy";
  ]

type cell = { bench : string; n : int; algorithm : string }

let paper_cells =
  Array.of_list
    (List.concat_map
       (fun bench ->
         List.concat_map
           (fun n -> List.map (fun algorithm -> { bench; n; algorithm }) paper_algorithms)
           paper_sizes)
       paper_benches)

(* Run lengths turn into op counts at rates measured on a 2-core x86-64
   host, so that a run measures about [seconds] of work there.  The count is
   fixed by the arguments, never by a clock: a slow phase of the machine
   stretches the run instead of changing its mix of ops.  paper-compile
   makes 2.5 passes over the 98 cells per second. *)
let paper_ops ~seed ~seconds =
  shuffled_rounds ~seed ~rounds:(((5 * seconds) + 1) / 2) (Array.length paper_cells)

let paper_setup tr ~seed ~seconds =
  let devices = List.map (fun n -> (n, device tr ~seed:paper_device_seed n)) paper_sizes in
  let circuits =
    List.concat_map
      (fun bench ->
        List.map
          (fun n ->
            ((bench, n), circuit tr ~seed:circuit_seed bench ~n (List.assoc n devices)))
          paper_sizes)
      paper_benches
  in
  let label c = Printf.sprintf "%s(%d)/%s" c.bench c.n c.algorithm in
  let run_cell tr c =
    let ctx =
      compile tr ~algorithm:c.algorithm (List.assoc c.n devices) (List.assoc (c.bench, c.n) circuits)
    in
    checked tr ~label:(label c) ctx
  in
  (* the untimed pass that fills the caches; its results are the reference
     every timed repeat must equal bit for bit *)
  let reference = Array.map (run_cell None) paper_cells in
  let ops = paper_ops ~seed ~seconds in
  {
    n_ops = Array.length ops;
    run_op = (fun tr i -> run_cell tr paper_cells.(ops.(i)));
    verify =
      (fun results ->
        List.filter_map Fun.id
          (List.init (Array.length ops) (fun i ->
               match results.(i) with
               | Some p when not (same_program p reference.(ops.(i))) ->
                 Some (i, label paper_cells.(ops.(i)) ^ ": metrics differ from the warm-up pass")
               | _ -> None)));
    figures = [];
    label = (fun i -> label paper_cells.(ops.(i)));
  }

(* -- compile-scale ----------------------------------------------------------- *)

let scale_benches = [| "bv"; "ising"; "qgan"; "xeb"; "vqe" |]

(* Three sizes make 15 (family, size) kinds: with an odd number of equally
   frequent kinds the median op falls inside one kind's latencies instead of
   on the gap between two, where it would flip from run to run. *)
let scale_sizes = [| 64; 81; 100 |]

type scale_op = { s_bench : string; s_n : int; s_seed : int }

(* Rounds of the 15 (family, size) kinds, each round in seed-shuffled order
   and each op on a new seed-drawn chip, so every seed runs the same mix.
   0.75 rounds per second of run length: at least 200 ops, as p95 needs. *)
let scale_ops ~seed ~seconds =
  let rng = Rng.create seed in
  let pairs =
    Array.concat
      (Array.to_list
         (Array.map (fun s_bench -> Array.map (fun s_n -> (s_bench, s_n)) scale_sizes) scale_benches))
  in
  Array.map
    (fun k ->
      let s_bench, s_n = pairs.(k) in
      { s_bench; s_n; s_seed = 100_000 + Rng.int rng 1_000_000 })
    (shuffled_rounds ~seed ~rounds:(3 * seconds / 4) (Array.length pairs))

(* The --decompose --warm-start path: the ladder's second rung. *)
let scale_options = { Pass.default_options with Pass.decompose_components = true; warm_start = true }

let scale_setup _tr ~seed ~seconds =
  let run tr op =
    let dev = device tr ~seed:op.s_seed op.s_n in
    let circ = circuit tr ~seed:op.s_seed op.s_bench ~n:op.s_n dev in
    let ctx = compile tr ~options:scale_options ~algorithm:"color-dynamic" dev circ in
    checked tr ~label:(Printf.sprintf "%s(%d)@%d" op.s_bench op.s_n op.s_seed) ctx
  in
  (* warm-up: one op per family and size on a chip no timed op uses, so
     the code paths are live before timing *)
  Array.iter
    (fun s_bench ->
      Array.iter (fun s_n -> ignore (run None { s_bench; s_n; s_seed = 1 })) scale_sizes)
    scale_benches;
  let ops = scale_ops ~seed ~seconds in
  {
    n_ops = Array.length ops;
    run_op = (fun tr i -> run tr ops.(i));
    verify = (fun _ -> []);
    figures = [];
    label = (fun i -> Printf.sprintf "%s(%d)@%d" ops.(i).s_bench ops.(i).s_n ops.(i).s_seed);
  }

(* -- validate-sim ------------------------------------------------------------ *)

type sim_cell = { v_bench : string; v_n : int; v_algorithm : string }

let sim_algorithms = [ "baseline-n"; "baseline-u"; "color-dynamic" ]

(* Cells with n <= 6 get an exact density-matrix reference; n = 9 is
   trajectories only (a 9-qubit density matrix is too slow for set-up). *)
let sim_cells =
  Array.of_list
    (List.concat_map
       (fun (benches, n) ->
         List.concat_map
           (fun v_bench ->
             List.map (fun v_algorithm -> { v_bench; v_n = n; v_algorithm }) sim_algorithms)
           benches)
       [
         ([ "bv"; "ising"; "qaoa"; "qgan"; "xeb" ], 4);
         ([ "bv"; "ising"; "qaoa"; "qgan"; "xeb" ], 6);
         ([ "bv"; "ising"; "qaoa" ], 9);
       ])

let sim_trials = 64

(* A pass over the 39 cells takes about 2.2 s at 2 jobs on a fast host and
   twice that on a slow one; 0.3 passes per second of run length, at least
   the 200 ops p95 needs. *)
let sim_ops ~seed ~seconds =
  shuffled_rounds ~seed ~rounds:(3 * seconds / 10) (Array.length sim_cells)

(* Hoeffding: the mean of [k] independent trial fidelities in [0, 1] strays
   more than this from its expectation with probability below 1e-6. *)
let sampling_bound k = sqrt (log (2.0 /. 1e-6) /. (2.0 *. float_of_int k))

let sim_setup tr ~seed ~seconds =
  let devices = List.map (fun n -> (n, device tr ~seed:paper_device_seed n)) [ 4; 6; 9 ] in
  let circuits =
    Array.map
      (fun c ->
        circuit tr ~cycles:3 ~seed:circuit_seed c.v_bench ~n:c.v_n (List.assoc c.v_n devices))
      sim_cells
  in
  let label c = Printf.sprintf "%s(%d)/%s" c.v_bench c.v_n c.v_algorithm in
  (* exact references: Density.run_steps is an independent evolution of the
     same noise channels, not the trajectory code under test *)
  let exact =
    Array.mapi
      (fun i c ->
        if c.v_n > 6 then None
        else begin
          let dev = List.assoc c.v_n devices in
          let ctx = compile None ~algorithm:c.v_algorithm dev circuits.(i) in
          let program = checked None ~label:(label c) ctx in
          let steps = Schedule.to_noisy_steps (Pass.Context.schedule_exn ctx) in
          let n_qubits = Device.n_qubits dev in
          let ideal = Noisy_sim.ideal_of_steps ~n_qubits steps in
          let rho = Trace.span tr "density.run_steps" (fun () -> Density.run_steps ~n_qubits steps) in
          Some (program, Density.fidelity_pure rho ideal)
        end)
      sim_cells
  in
  let gaps =
    Array.to_list exact
    |> List.filter_map
         (Option.map (fun (p, exact) -> Float.abs (p.log10_success -. log10 exact)))
  in
  let ops = sim_ops ~seed ~seconds in
  let fidelity = Array.make (Array.length ops) nan in
  let run_op tr i =
    let c = sim_cells.(ops.(i)) in
    let dev = List.assoc c.v_n devices in
    let ctx = compile tr ~algorithm:c.v_algorithm dev circuits.(ops.(i)) in
    let program = checked tr ~label:(label c) ctx in
    let schedule = Pass.Context.schedule_exn ctx in
    let steps = Trace.span tr "schedule.to_noisy_steps" (fun () -> Schedule.to_noisy_steps schedule) in
    let n_qubits = Device.n_qubits dev in
    let ideal =
      Trace.span tr "noisy_sim.ideal_of_steps" (fun () -> Noisy_sim.ideal_of_steps ~n_qubits steps)
    in
    let rng = Rng.create ((seed * 1_000_003) + i) in
    fidelity.(i) <-
      Trace.span tr "noisy_sim.average_fidelity" (fun () ->
          Noisy_sim.average_fidelity rng ~n_qubits ~ideal ~steps ~trials:sim_trials);
    program
  in
  let verify results =
    (* pool each referenced cell's trajectory means and hold them to the
       exact density value *)
    let bad = ref [] in
    Array.iteri
      (fun cell reference ->
        match reference with
        | None -> ()
        | Some (reference, exact) ->
          let mine = List.filter (fun i -> ops.(i) = cell) (List.init (Array.length ops) Fun.id) in
          let pooled = Measure.mean (Array.of_list (List.map (fun i -> fidelity.(i)) mine)) in
          let bound = sampling_bound (sim_trials * List.length mine) in
          List.iter
            (fun i ->
              match results.(i) with
              | Some p when not (same_program p reference) ->
                bad := (i, label sim_cells.(cell) ^ ": metrics differ from set-up") :: !bad
              | _ -> ())
            mine;
          if mine <> [] && Float.abs (pooled -. exact) > bound then
            List.iter
              (fun i ->
                bad :=
                  ( i,
                    Printf.sprintf "%s: trajectory mean %.4f vs exact %.4f exceeds %.4f"
                      (label sim_cells.(cell)) pooled exact bound )
                  :: !bad)
              mine)
      exact;
    List.rev !bad
  in
  {
    n_ops = Array.length ops;
    run_op;
    verify;
    figures = [ ("validate.heuristic_gap_decades", Measure.mean (Array.of_list gaps)) ];
    label = (fun i -> label sim_cells.(ops.(i)));
  }

(* -- the catalogue ----------------------------------------------------------- *)

let closed =
  [
    {
      name = "paper-compile";
      why =
        "The paper's fig9/fig10/table2 traffic: 98 cells, every pass does real work, SMT is all \
         cache hits and the pool is bypassed";
      jobs = 1;
      limit_ms = 45.0;
      setup = paper_setup;
    };
    {
      name = "compile-scale";
      why =
        "A new 64- to 100-qubit chip per op on the decompose + warm-start path: routing, \
         per-moment coloring and component SMT solves (about 195 probes per op)";
      jobs = 1;
      limit_ms = 650.0;
      setup = scale_setup;
    };
    {
      name = "validate-sim";
      why =
        "Sec. VI-C validation: trajectory kernels and the trial fan-out on the pool do the work, \
         checked against exact density-matrix references";
      jobs = 2;
      limit_ms = 2000.0;
      setup = sim_setup;
    };
  ]
