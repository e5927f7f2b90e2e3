(* CQC-style synergistic routing + scheduling (PAPERS.md, Hua et al.):
   SWAP selection is steered by the crosstalk the scheduler will face.

   The router is [Mapping.route_lookahead] with a pressure term: a
   candidate SWAP scores its SABRE-style lookahead score plus [lambda]
   times the number of crosstalk-graph neighbours its coupling has in the
   current moment burst (the two-qubit gates of the last flush that emitted
   anything, plus the SWAPs inserted since).  Ties and near-ties therefore
   resolve toward SWAPs that will not fight their concurrent peers for
   spectrum, which is the paper's "synergy" between routing and
   crosstalk-aware scheduling; [lambda = 0] is plain lookahead.

   This scheduler declares [consumes = `Logical]: the pass-graph hands it
   the placed but unrouted program and it owns SWAP insertion, native
   decomposition and packing (the packing phase is Murali-style
   threshold-delay at uniform frequencies — CQC is software-only, like
   Murali, so the head-to-head against the frequency-aware schedulers is
   apples-to-apples). *)

(* Seeded fault for the verification harness (DESIGN.md §11): force
   the pressure weight to 0, reducing SWAP selection to plain lookahead. *)
let fault_swap_score = Fault.enabled "cqc-swap-score"

let route ?(lambda = 0.5) ?(crosstalk_distance = 1) device circuit =
  let graph = Device.graph device in
  if Circuit.n_qubits circuit <> Graph.n_vertices graph then
    invalid_arg "Cqc_synergy.route: circuit must already be placed onto the device";
  let xg = Crosstalk_graph.build ~distance:crosstalk_distance graph in
  let vertex = Crosstalk_graph.vertex_of_pair xg in
  let pressure =
    {
      Mapping.weight = (if fault_swap_score then 0.0 else lambda);
      conflicts =
        (fun burst pq -> Crosstalk_graph.conflict_count xg (vertex pq) (List.map vertex burst));
      total = 0;
    }
  in
  let result =
    Mapping.route_lookahead ~pressure ~dist:(Device.distances device) graph circuit
  in
  (result, pressure.Mapping.total)

type run_stats = { n_swaps : int; conflict_total : int; delayed : int }

let run ?(decomposition = Decompose.Hybrid) ?(crosstalk_distance = 1) device placed =
  let result, conflict_total = route ~crosstalk_distance device placed in
  let native = Decompose.run decomposition result.Mapping.circuit in
  let sched, delayed = Murali_delay.pack ~algorithm:"cqc-synergy" device native in
  (sched, { n_swaps = result.Mapping.n_swaps; conflict_total; delayed })
