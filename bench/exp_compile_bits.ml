(* Bit-for-bit compile outputs: the golden behind test/test_compile_bits.ml.

   Every paper-compile cell ({bv, qaoa, ising, qgan, xeb, grover, vqe} x mesh
   n in {9, 16} x seven schedulers, device seed 2020, circuit seed 7) plus a
   few 64-qubit color-dynamic cells on the decompose + warm-start path, on
   the 8x8 mesh and on HH-2x4 (67 qubits, the smallest heavy-hex holding 64),
   plus {bv, qaoa, xeb} x 16-qubit mesh x color-dynamic under the greedy
   router and under the degree placement (route paths that the default
   lookahead router with [`Auto] placement never takes; their labels carry
   a [router=...] or [placement=...] tag), plus {bv, qaoa, xeb} x 9-qubit
   mesh x {anneal-dynamic, gmon-dynamic} (two queueing schedulers outside
   the paper set), plus {bv, qaoa} x {FULL-9, FULL-16,
   RING-9} x {color-dynamic, baseline-u} (chips whose idle coloring needs
   more than two colors: 9, 16 and 3 parking frequencies), is compiled through
   [Pass.execute] and evaluated three times: the default
   eq-4 estimate, and re-evaluations of the same schedule at crosstalk
   distance 2, with the time-dependent transfer probability and with its
   worst-case envelope (which saturates on about half the cells).
   Each evaluation prints one line with the IEEE-754 bit patterns of its
   success, log10 success, gate, crosstalk and decoherence error, plus depth,
   native gate count and SWAP count, so that a change in the lowest bit of
   any metric shows as a diff.  Regenerate the golden with
   `dune exec bench/main.exe -- compile-bits > test/compile_bits.golden`. *)

let paper_benches = [ "bv"; "qaoa"; "ising"; "qgan"; "xeb"; "grover"; "vqe" ]

let paper_sizes = [ 9; 16 ]

let paper_algorithms =
  [
    "baseline-n"; "baseline-g"; "baseline-u"; "baseline-s"; "color-dynamic"; "murali-delay";
    "cqc-synergy";
  ]

let scale_benches = [ "bv"; "ising"; "xeb" ]

let scale_options =
  { Pass.default_options with Pass.decompose_components = true; warm_start = true }

let variant_benches = [ "bv"; "qaoa"; "xeb" ]

let zoo_algorithms = [ "anneal-dynamic"; "gmon-dynamic" ]

let multicolor_benches = [ "bv"; "qaoa" ]

let multicolor_algorithms = [ "color-dynamic"; "baseline-u" ]

let variants =
  [
    ("[router=greedy]", { Pass.default_options with Pass.router = `Greedy });
    ("[placement=degree]", { Pass.default_options with Pass.placement = `Degree });
  ]

(* Devices are built inside each cell from this description, so pool domains
   never share a mutable graph. *)
type chip = Mesh | Heavy_hex of int * int | Complete of int | Ring of int

let multicolor_chips = [ (9, Complete 9); (16, Complete 16); (9, Ring 9) ]

let cells =
  List.concat_map
    (fun bench ->
      List.concat_map
        (fun n ->
          List.map
            (fun algorithm -> (bench, n, algorithm, Pass.default_options, Mesh, ""))
            paper_algorithms)
        paper_sizes)
    paper_benches
  @ List.map (fun bench -> (bench, 64, "color-dynamic", scale_options, Mesh, "")) scale_benches
  @ List.map
      (fun bench -> (bench, 64, "color-dynamic", scale_options, Heavy_hex (2, 4), ""))
      scale_benches
  @ List.concat_map
      (fun (tag, options) ->
        List.map (fun bench -> (bench, 16, "color-dynamic", options, Mesh, tag)) variant_benches)
      variants
  @ List.concat_map
      (fun bench ->
        List.map
          (fun algorithm -> (bench, 9, algorithm, Pass.default_options, Mesh, ""))
          zoo_algorithms)
      variant_benches
  @ List.concat_map
      (fun (n, chip) ->
        List.concat_map
          (fun bench ->
            List.map
              (fun algorithm -> (bench, n, algorithm, Pass.default_options, chip, ""))
              multicolor_algorithms)
          multicolor_benches)
      multicolor_chips

let bits x = Printf.sprintf "%016Lx" (Int64.bits_of_float x)

(* SWAPs of the routed program; schedulers that route inside their own stage
   (cqc-synergy) report them as the "swaps" statistic instead. *)
let swaps ctx =
  match ctx.Pass.Context.routed with
  | Some r -> r.Mapping.n_swaps
  | None -> (
    match List.assoc_opt "swaps" ctx.Pass.Context.stats with Some (Pass.Int k) -> k | _ -> 0)

let line label mode ~swaps (m : Schedule.metrics) =
  Printf.sprintf "%s %s success=%s log10=%s gate=%s xtalk=%s dec=%s depth=%d gates=%d swaps=%d"
    label mode (bits m.Schedule.success) (bits m.Schedule.log10_success)
    (bits m.Schedule.gate_error) (bits m.Schedule.crosstalk_error)
    (bits m.Schedule.decoherence_error) m.Schedule.depth m.Schedule.n_gates swaps

let cell (bench, n, algorithm, options, chip, tag) =
  let on topology = (Exp_common.device_of_topology topology, "@" ^ topology.Topology.name) in
  let device, at =
    match chip with
    | Mesh -> (Exp_common.mesh_device n, "")
    | Heavy_hex (rows, cols) -> on (Topology.heavy_hex rows cols)
    | Complete k -> on (Topology.complete k)
    | Ring k -> on (Topology.ring k)
  in
  let b = Exp_common.benchmark bench n in
  let ctx = Pass.execute ~options ~algorithm device (b.Exp_common.make device) in
  let schedule = Pass.Context.schedule_exn ctx in
  let label = Printf.sprintf "%s%s/%s%s" b.Exp_common.label at algorithm tag in
  let swaps = swaps ctx in
  [
    line label "eq4" ~swaps (Pass.Context.metrics_exn ctx);
    line label "d2" ~swaps (Schedule.evaluate ~crosstalk_distance:2 schedule);
    line label "worst-d2" ~swaps
      (Schedule.evaluate ~worst_case:true ~crosstalk_distance:2 schedule);
  ]

let run () = List.iter (List.iter print_endline) (Exp_common.grid cell cells)
