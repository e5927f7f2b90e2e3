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
   multiplicity-derived placement order.  `Smt.find_max_delta` binary-searches
   a backtracking solve per probe, so ColorDynamic re-paying it for the same
   (n_colors, order) layer after layer is the dominant compile cost (§VII-C);
   one mutex-protected table removes the repeats and stays safe when sweep
   cells run on pool domains. *)
type key = {
  k_n : int;
  k_lo : float;
  k_hi : float;
  k_alpha : float;
  k_order : int list option;
}

(* Seeded faults for the verification harness (docs/DESIGN.md §11). *)
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

(* Snapshot codec: the memo table as a JSON document, for the serve daemon's
   crash-safe cache persistence (Snapshot wraps this payload in a checksummed
   envelope).  Entries are emitted in sorted key order so the same cache
   state always serializes to the same bytes. *)

let json_of_entry (k, (delta, freqs)) =
  Json.Obj
    [
      ("n", Json.Int k.k_n);
      ("lo", Json.Float k.k_lo);
      ("hi", Json.Float k.k_hi);
      ("alpha", Json.Float k.k_alpha);
      ( "order",
        match k.k_order with
        | None -> Json.Null
        | Some o -> Json.List (List.map (fun i -> Json.Int i) o) );
      ("delta", Json.Float delta);
      ("freqs", Json.List (Array.to_list (Array.map (fun f -> Json.Float f) freqs)));
    ]

let export_cache () =
  Mutex.lock cache_mutex;
  let entries = Hashtbl.fold (fun k v acc -> (k, v) :: acc) cache [] in
  Mutex.unlock cache_mutex;
  let entries = List.sort (fun (a, _) (b, _) -> compare a b) entries in
  Json.Obj [ ("solver_cache", Json.List (List.map json_of_entry entries)) ]

let entry_of_json json =
  let to_float = function
    | Json.Float f -> Some f
    | Json.Int i -> Some (float_of_int i)
    | _ -> None
  in
  let field name = Option.bind (Json.member name json) to_float in
  match (Json.member "n" json, field "lo", field "hi", field "alpha", field "delta") with
  | Some (Json.Int n), Some lo, Some hi, Some alpha, Some delta when n >= 0 -> (
    let order =
      match Json.member "order" json with
      | Some (Json.List items) ->
        let ints =
          List.filter_map (function Json.Int i -> Some i | _ -> None) items
        in
        if List.length ints = List.length items then Some (Some ints) else None
      | Some Json.Null | None -> Some None
      | Some _ -> None
    in
    let freqs =
      match Json.member "freqs" json with
      | Some (Json.List items) ->
        let fs = List.filter_map to_float items in
        if List.length fs = List.length items && List.length fs = n then
          Some (Array.of_list fs)
        else None
      | _ -> None
    in
    match (order, freqs) with
    | Some k_order, Some freqs
      when Float.is_finite delta && Array.for_all Float.is_finite freqs ->
      Some ({ k_n = n; k_lo = lo; k_hi = hi; k_alpha = alpha; k_order }, (delta, freqs))
    | _ -> None)
  | _ -> None

let import_cache doc =
  match Json.member "solver_cache" doc with
  | Some (Json.List items) ->
    (* malformed entries are skipped, not fatal: a snapshot from an older
       build costs only the entries it cannot express *)
    let entries = List.filter_map entry_of_json items in
    Mutex.lock cache_mutex;
    let imported = ref 0 in
    List.iter
      (fun (k, v) ->
        if Hashtbl.length cache < max_cache_entries then begin
          Hashtbl.replace cache k v;
          incr imported
        end)
      entries;
    Mutex.unlock cache_mutex;
    !imported
  | _ -> 0

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
  match Fastsc_smt.Smt.find_max_delta ?order ?warm problem with
  | Some (delta, freqs) -> { freqs; delta }
  | None ->
    (* find_max_delta only fails when even delta = 0 is infeasible, so that
       is the "best delta tried".  Spell the whole problem out: with
       registry-added algorithms driving this solver, "no feasible
       assignment" alone is undiagnosable. *)
    failwith
      (Printf.sprintf
         "Freq_alloc: no feasible frequency assignment for %d color%s in band [%.4f, %.4f] \
          GHz with sideband offset %.4f GHz%s (best delta tried: 0 — the band cannot hold \
          the colors at any separation)"
         n
         (if n = 1 then "" else "s")
         lo hi alpha
         (match order with
         | None -> ""
         | Some order ->
           Printf.sprintf ", placement order [%s]"
             (String.concat "; " (List.map string_of_int order))))

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
  let n = Coloring.n_colors coloring in
  let partition = Device.partition device in
  let alpha = -.(Device.params device).Device.anharmonicity in
  let assignment =
    solve_separated ~lo:partition.Partition.parking_lo ~hi:partition.Partition.parking_hi
      ~alpha ~order:None (max n 1)
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
      solve_separated ?warm ?warm_used ~lo ~hi ~alpha ~order:(Some order) n_colors
    in
    { assignment with freqs = shift_to_max ~target_max:hi assignment.freqs }
  end

let spread ~lo ~hi n =
  if n <= 0 then [||]
  else if n = 1 then [| (lo +. hi) /. 2.0 |]
  else Array.init n (fun k -> lo +. ((hi -. lo) *. float_of_int k /. float_of_int (n - 1)))
