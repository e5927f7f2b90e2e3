(* Shared infrastructure for the experiment drivers: devices, the benchmark
   suite of Table II, and compile-and-evaluate helpers. *)

let device_seed = 2020 (* MICRO 2020 *)

let circuit_seed = 7

let mesh_device ?(seed = device_seed) n_qubits =
  Device.create ~seed (Topology.square_grid n_qubits)

let device_of_topology ?(seed = device_seed) topology = Device.create ~seed topology

(* XEB needs the device's coupler activation classes. *)
let xeb_for_device ?(cycles = 5) ?(seed = circuit_seed) device =
  let classes = Baseline_gmon.edge_classes device in
  Xeb.circuit (Rng.create seed) ~graph:(Device.graph device) ~classes ~cycles ()

type benchmark = { label : string; n : int; make : Device.t -> Circuit.t }

let benchmark ?(seed = circuit_seed) name n =
  match name with
  | "bv" -> { label = Printf.sprintf "bv(%d)" n; n; make = (fun _ -> Bv.circuit ~n ()) }
  | "qaoa" ->
    {
      label = Printf.sprintf "qaoa(%d)" n;
      n;
      make = (fun _ -> Qaoa.circuit (Rng.create seed) ~n ());
    }
  | "ising" ->
    { label = Printf.sprintf "ising(%d)" n; n; make = (fun _ -> Ising.circuit ~n ()) }
  | "qgan" ->
    {
      label = Printf.sprintf "qgan(%d)" n;
      n;
      make = (fun _ -> Qgan.circuit (Rng.create seed) ~n ());
    }
  | "xeb" ->
    {
      label = Printf.sprintf "xeb(%d,5)" n;
      n;
      make = (fun device -> xeb_for_device ~seed device);
    }
  | "grover" ->
    {
      label = Printf.sprintf "grover(%d,%d)" n (Grover.data_qubits ~n);
      n;
      make = (fun _ -> Grover.circuit ~n ());
    }
  | "vqe" ->
    {
      label = Printf.sprintf "vqe(%d)" n;
      n;
      make = (fun _ -> Vqe.circuit (Rng.create seed) ~n ());
    }
  | other -> invalid_arg ("unknown benchmark: " ^ other)

(* The paper's suite (§VI-B): n = 4, 9, 16; qaoa(16)/ising(16) are kept here
   even though the paper omits their Fig 9 bars (success < 1e-4) — we print
   them and mark the cutoff in the driver. *)
let suite_sizes = [ 4; 9; 16 ]

let suite_names = [ "bv"; "qaoa"; "ising"; "qgan"; "xeb"; "grover"; "vqe" ]

let full_suite () =
  List.concat_map (fun name -> List.map (fun n -> benchmark name n) suite_sizes) suite_names

(* All compilation goes through the pass-manager pipeline; drivers that need
   scheduler statistics or the instrumentation trail read them off the
   returned context instead of the old ColorDynamic-only stats path. *)
let compile_context ?(options = Compile.default_options) ~algorithm device circuit =
  Pass.execute ~options ~through:`Schedule
    ~algorithm:(Compile.algorithm_to_string algorithm) device circuit

let compile_and_evaluate ?(options = Compile.default_options) ~algorithm device bench =
  let circuit = bench.make device in
  let ctx =
    Pass.execute ~options ~algorithm:(Compile.algorithm_to_string algorithm) device circuit
  in
  (match Schedule.check (Pass.Context.schedule_exn ctx) with
  | Ok () -> ()
  | Error msg ->
    failwith
      (Printf.sprintf "invalid schedule from %s on %s: %s"
         (Compile.algorithm_to_string algorithm) bench.label msg));
  Pass.Context.metrics_exn ctx

(* The multicore sweep engine.  Every driver follows the same shape: describe
   the figure/table as a grid of independent cells, evaluate the cells across
   the domain pool, then print serially from the in-order result list.  The
   printing phase never runs concurrently with cell evaluation, and results
   come back in input order, so stdout is byte-identical at any job count
   (the determinism contract in docs/MANUAL.md §9). *)

let grid f cells = Pool.map f cells

(* Slice a flat in-order cell list back into rows of [width] (the inverse of
   fanning a (row x column) table out one cell at a time). *)
let rows_of ~width cells =
  if width < 1 then invalid_arg "Exp_common.rows_of: width must be >= 1";
  let rec take k acc = function
    | rest when k = 0 -> (List.rev acc, rest)
    | [] -> invalid_arg "Exp_common.rows_of: ragged cell list"
    | cell :: rest -> take (k - 1) (cell :: acc) rest
  in
  let rec go = function
    | [] -> []
    | cells ->
      let row, rest = take width [] cells in
      row :: go rest
  in
  go cells

(* The common (benchmark x algorithm) fan-out of Figs 9/10: one pool cell per
   pair — rather than per benchmark — so the grid saturates the pool even
   when one column (e.g. Baseline U on the deep 16-qubit circuits) dominates.
   Each cell re-fabricates its device from the cell's own seed, which is what
   makes cells independent: nothing is shared, and the fabrication RNG is
   deterministic per seed. *)
let compile_and_evaluate_grid ?options ?(device_of = fun bench -> mesh_device bench.n)
    ~algorithms benches =
  let cells =
    List.concat_map (fun bench -> List.map (fun algorithm -> (bench, algorithm)) algorithms) benches
  in
  let metrics =
    grid
      (fun (bench, algorithm) ->
        compile_and_evaluate ?options ~algorithm (device_of bench) bench)
      cells
  in
  (* regroup the flat in-order cell list into per-benchmark rows *)
  let rec rows benches metrics =
    match benches with
    | [] -> []
    | bench :: rest ->
      let this, remaining =
        List.fold_left
          (fun (acc, ms) algorithm ->
            match ms with
            | m :: tl -> ((algorithm, m) :: acc, tl)
            | [] -> invalid_arg "compile_and_evaluate_grid: cell count mismatch")
          ([], metrics) algorithms
      in
      (bench, List.rev this) :: rows rest remaining
  in
  rows benches metrics

let log_cell value =
  if value = neg_infinity then "-inf" else Tablefmt.cell_float ~digits:2 value

(* The parallelism note goes to stderr: stdout is the determinism surface
   (byte-identical at any job count), the chosen job count is not. *)
let heading title =
  let rule = String.make (String.length title) '=' in
  Printf.eprintf "[%s: jobs=%d]\n%!" title (Pool.default_jobs ());
  Printf.printf "\n%s\n%s\n" title rule
