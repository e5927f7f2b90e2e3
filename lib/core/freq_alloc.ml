type assignment = { freqs : float array; delta : float }

type cache_stats = {
  hits : int;
  misses : int;
  entries : int;
  warm_hits : int;
  warm_misses : int;
}

(* The separation problems solved here are fully determined by a canonical
   key: the variable count, the band, the anharmonicity offset, and the
   placement order (multiplicity-derived for interaction solves, the
   identity for idle ones).  `Smt.find_max_delta` binary-searches a
   backtracking solve per probe, so ColorDynamic re-paying it for the same
   (n_colors, order) layer after layer is the dominant compile cost (§VII-C);
   one mutex-protected table removes the repeats and stays safe when sweep
   cells run on pool domains. *)
type key = {
  k_n : int;
  k_lo : float;
  k_hi : float;
  k_alpha : float;
  k_order : int list;
}

(* Seeded faults for the verification harness (DESIGN.md §11). *)
let fault_stale_reset = Fault.enabled "freq-cache-stale-reset"

let fault_alpha_key = Fault.enabled "freq-cache-key-alpha"

let cache : (key, float * float array) Hashtbl.t = Hashtbl.create 64

let cache_mutex = Mutex.create ()

let cache_hits = ref 0

let cache_misses = ref 0

let warm_hits = ref 0

let warm_misses = ref 0

(* Same recycle discipline as Crosstalk.pair_error: at 2^16 entries the table
   is reset wholesale rather than evicted piecemeal, so a 100x100 sweep can
   never grow it without bound while the steady-state working set (a handful
   of color counts x bands x orders) always re-fills within a few solves. *)
let max_cache_entries = 1 lsl 16

let solver_cache_stats () =
  Mutex.lock cache_mutex;
  let stats =
    {
      hits = !cache_hits;
      misses = !cache_misses;
      entries = Hashtbl.length cache;
      warm_hits = !warm_hits;
      warm_misses = !warm_misses;
    }
  in
  Mutex.unlock cache_mutex;
  stats

let reset_solver_cache () =
  Mutex.lock cache_mutex;
  if not fault_stale_reset then Hashtbl.reset cache;
  cache_hits := 0;
  cache_misses := 0;
  warm_hits := 0;
  warm_misses := 0;
  Mutex.unlock cache_mutex

let build_problem ~lo ~hi ~alpha n =
  let problem = Fastsc_smt.Smt.create ~lo ~hi n in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      (* eq 2: direct separation; eq 3: anharmonicity sidebands both ways *)
      Fastsc_smt.Smt.add_separation problem i j;
      Fastsc_smt.Smt.add_separation ~offset:alpha problem i j;
      Fastsc_smt.Smt.add_separation ~offset:alpha problem j i
    done
  done;
  problem

let solve_separated_uncached ?warm ?warm_used ~lo ~hi ~alpha ~order n =
  let problem = build_problem ~lo ~hi ~alpha n in
  (match warm with
  | None -> ()
  | Some w ->
    (* a seed is a "warm hit" when it is actually usable: positive margin,
       so the binary search opens there instead of at delta = 0 *)
    let usable = match Fastsc_smt.Smt.margin problem w with
      | Some m -> m > 0.0
      | None -> false
    in
    Option.iter (fun r -> r := usable) warm_used;
    Mutex.lock cache_mutex;
    if usable then incr warm_hits else incr warm_misses;
    Mutex.unlock cache_mutex);
  match Fastsc_smt.Smt.find_max_delta ~order ?warm problem with
  | Some (delta, freqs) -> { freqs; delta }
  | None ->
    (* find_max_delta only fails when even delta = 0 is infeasible, so that
       is the "best delta tried".  Spell the whole problem out: with
       several schedulers driving this solver, "no feasible assignment"
       alone is undiagnosable. *)
    failwith
      (Printf.sprintf
         "Freq_alloc: no feasible frequency assignment for %d color%s in band [%.4f, %.4f] \
          GHz with sideband offset %.4f GHz, placement order [%s] (best delta tried: 0 — the \
          band cannot hold the colors at any separation)"
         n
         (if n = 1 then "" else "s")
         lo hi alpha
         (String.concat "; " (List.map string_of_int order)))

let solve_separated ?warm ?warm_used ~lo ~hi ~alpha ~order n =
  match warm with
  | Some _ ->
    (* Warm solves bypass the memo table in both directions: their result
       depends on the seed witness, not just the key, and cached values must
       stay pure functions of the key — otherwise whether a concurrent cell
       sees the cold or the warm answer would depend on domain scheduling,
       breaking the any-jobs byte-identity contract. *)
    solve_separated_uncached ?warm ?warm_used ~lo ~hi ~alpha ~order n
  | None ->
    let k_alpha = if fault_alpha_key then 0.0 else alpha in
    let key = { k_n = n; k_lo = lo; k_hi = hi; k_alpha; k_order = order } in
    Mutex.lock cache_mutex;
    let cached = Hashtbl.find_opt cache key in
    (match cached with
    | Some _ -> incr cache_hits
    | None -> incr cache_misses);
    Mutex.unlock cache_mutex;
    (match cached with
    | Some (delta, freqs) -> { freqs = Array.copy freqs; delta }
    | None ->
      let assignment = solve_separated_uncached ~lo ~hi ~alpha ~order n in
      Mutex.lock cache_mutex;
      if Hashtbl.length cache >= max_cache_entries then Hashtbl.reset cache;
      (* another domain may have solved the same key meanwhile; both computed
         the same deterministic answer, so last-write-wins is fine *)
      Hashtbl.replace cache key (assignment.delta, Array.copy assignment.freqs);
      Mutex.unlock cache_mutex;
      assignment)

(* Rigid translation preserves every pairwise separation and lets the
   assignment hug one end of its band: idle frequencies sink toward the low
   sweet spot, interaction frequencies rise toward the high one (faster
   gates, larger detuning from parked qubits — §V-B3). *)
let shift_to ~target_min:anchor freqs =
  match Array.length freqs with
  | 0 -> freqs
  | _ ->
    let current = Array.fold_left Float.min infinity freqs in
    Array.map (fun f -> f -. current +. anchor) freqs

let shift_to_max ~target_max:anchor freqs =
  match Array.length freqs with
  | 0 -> freqs
  | _ ->
    let current = Array.fold_left Float.max neg_infinity freqs in
    Array.map (fun f -> f -. current +. anchor) freqs

let idle device =
  let g = Device.graph device in
  let coloring =
    match Coloring.two_color g with
    | Some c -> c
    | None -> Coloring.welsh_powell g
  in
  let n = max (Coloring.n_colors coloring) 1 in
  let partition = Device.partition device in
  let alpha = -.(Device.params device).Device.anharmonicity in
  (* Every color has the same band and the same three separations against
     every other, so all colors are interchangeable at every search node and
     any placement order finds the same witness; the identity order is
     exact. *)
  let assignment =
    solve_separated ~lo:partition.Partition.parking_lo ~hi:partition.Partition.parking_hi
      ~alpha ~order:(List.init n Fun.id) n
  in
  ( coloring,
    {
      assignment with
      freqs = shift_to ~target_min:partition.Partition.parking_lo assignment.freqs;
    } )

let idle_per_qubit device =
  let coloring, assignment = idle device in
  Array.init (Device.n_qubits device) (fun q -> assignment.freqs.(coloring.(q)))

(* Re-aim a previous witness at a new placement order: the separation
   problem is a complete graph, symmetric under permutation of variables, so
   the same value multiset sorted ascending along the new order is feasible
   with the same margin — and monotone, which is what the ordered warm seed
   requires. *)
let warm_for_order ~order warm =
  let sorted = Array.copy warm in
  Array.sort compare sorted;
  let w = Array.make (Array.length warm) 0.0 in
  List.iteri (fun k v -> w.(v) <- sorted.(k)) order;
  w

let interaction ?lo ?hi ?warm ?warm_used device ~n_colors ~multiplicity =
  if Array.length multiplicity <> n_colors then
    invalid_arg "Freq_alloc.interaction: multiplicity size mismatch";
  let partition = Device.partition device in
  (* The bottom |alpha| of the interaction region is reserved for CZ
     partner qubits (which sit one anharmonicity below their color), so
     no active qubit ever sags into the exclusion band toward the parked
     sidebands. *)
  let reserved = (Device.params device).Device.anharmonicity in
  let lo =
    Option.value lo ~default:(partition.Partition.interaction_lo +. reserved)
  in
  let hi = Option.value hi ~default:partition.Partition.interaction_hi in
  let lo = Float.min lo hi in
  let alpha = -.(Device.params device).Device.anharmonicity in
  if n_colors = 0 then { freqs = [||]; delta = hi -. lo }
  else begin
    (* Total ordering by multiplicity, ascending: the solver places variables
       in non-decreasing frequency order, so the busiest color ends highest. *)
    let order =
      List.sort
        (fun a b ->
          match compare multiplicity.(a) multiplicity.(b) with
          | 0 -> compare a b
          | c -> c)
        (List.init n_colors Fun.id)
    in
    let warm =
      match warm with
      | Some w when Array.length w = n_colors -> Some (warm_for_order ~order w)
      | _ -> None
    in
    let assignment =
      solve_separated ?warm ?warm_used ~lo ~hi ~alpha ~order n_colors
    in
    { assignment with freqs = shift_to_max ~target_max:hi assignment.freqs }
  end

let spread ~lo ~hi n =
  if n <= 0 then [||]
  else if n = 1 then [| (lo +. hi) /. 2.0 |]
  else Array.init n (fun k -> lo +. ((hi -. lo) *. float_of_int k /. float_of_int (n - 1)))
