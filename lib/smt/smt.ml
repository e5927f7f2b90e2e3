type sep = { i : int; j : int; offset : float }

type t = {
  n : int;
  lo : float array;
  hi : float array;
  mutable seps : sep list;
  mutable forbidden : (int * float) list;
}

let epsilon = 1e-9

(* Seeded faults for the verification harness (docs/DESIGN.md §11): each is a
   deliberate bug, off unless FASTSC_FAULT selects it, that the test suite
   must demonstrably catch. *)
let fault_resolve_flip = Fastsc_util.Fault.enabled "smt-resolve-flip"

let fault_sideband_skip = Fastsc_util.Fault.enabled "smt-sideband-skip"

let fault_deadline_skip = Fastsc_util.Fault.enabled "smt-deadline-skip"

(* Cooperative cancellation for the serve layer's request budgets: every
   search loop polls the ambient deadline at chunk boundaries (once per
   bisection probe, once per [deadline_poll_mask + 1] search nodes) and
   unwinds with Deadline.Expired — an exception, never a [None], so an
   exhausted budget can never masquerade as infeasibility.  This single
   guard covers every poll in the module, so the seeded fault disables them
   all at once (a partial skip would still be caught by the deeper polls and
   teach the meta-suite nothing). *)
let deadline_poll_mask = 255

let deadline_check site =
  if not fault_deadline_skip then Fastsc_util.Deadline.check ~site ()

let create ?(lo = 0.0) ?(hi = 1.0) n =
  if n < 0 then invalid_arg "Smt.create: negative variable count";
  if lo > hi then invalid_arg "Smt.create: lo > hi";
  { n; lo = Array.make n lo; hi = Array.make n hi; seps = []; forbidden = [] }

let n_vars t = t.n

let check_var t v =
  if v < 0 || v >= t.n then invalid_arg "Smt: variable out of range"

let set_bounds t v ~lo ~hi =
  check_var t v;
  if lo > hi then invalid_arg "Smt.set_bounds: lo > hi";
  t.lo.(v) <- lo;
  t.hi.(v) <- hi

let add_separation ?(offset = 0.0) t i j =
  check_var t i;
  check_var t j;
  if i = j && offset = 0.0 then
    invalid_arg "Smt.add_separation: |x - x| >= delta is unsatisfiable";
  t.seps <- { i; j; offset } :: t.seps

let add_forbidden t v ~center =
  check_var t v;
  t.forbidden <- (v, center) :: t.forbidden;
  t

(* Open intervals that x_v must avoid, given currently placed values. *)
let blocked_intervals t ~delta placed v =
  let intervals = ref [] in
  let avoid center = intervals := (center -. delta, center +. delta) :: !intervals in
  List.iter
    (fun { i; j; offset } ->
      if i = v && j <> v then (
        match placed.(j) with
        | Some xj -> avoid (xj -. offset)
        | None -> ())
      else if j = v && i <> v then (
        match placed.(i) with
        | Some xi -> avoid (xi +. offset)
        | None -> ()))
    t.seps;
  List.iter (fun (u, center) -> if u = v then avoid center) t.forbidden;
  List.sort compare !intervals

(* Self-sideband constraints |offset| >= delta do not depend on the values. *)
let self_constraints_ok t ~delta =
  fault_sideband_skip
  || List.for_all
       (fun { i; j; offset } -> i <> j || Float.abs offset +. epsilon >= delta)
       t.seps

(* Smallest value >= start that avoids every interval; None if it escapes
   [hi].  Blocked intervals are open, so landing exactly on an endpoint is
   allowed.

   The list arrives sorted by (a, b), and one forward pass reaches the same
   fixpoint the old retry-until-stable loop computed.  An interval whose
   upper end sits more than epsilon below the running maximum is dominated:
   it starts no earlier than some retained interval (sort order) and ends
   strictly inside it, so any value it could bump is bumped at least as far
   by the dominating interval first — merging it away changes nothing.
   Among the survivors the upper ends are non-decreasing to within epsilon,
   so a jump to some b can never land strictly inside an {e earlier}
   interval, and a single left-to-right scan visits every interval that can
   still fire. *)
let resolve_upward intervals ~hi start =
  let value = ref start in
  let bmax = ref neg_infinity in
  List.iter
    (fun (a, b) ->
      let live = if fault_resolve_flip then b < !bmax -. epsilon else b >= !bmax -. epsilon in
      if live then begin
        if !value > a +. epsilon && !value < b -. epsilon then value := b;
        if b > !bmax then bmax := b
      end)
    intervals;
  if !value <= hi +. epsilon then Some (Float.min !value hi) else None

(* Candidate values for backtracking: the minimal feasible one plus the upper
   endpoints of blocked intervals above it, each re-resolved against the
   remaining intervals (any optimal solution can be normalised so every
   variable sits at such a point). *)
let candidates t ~delta placed v ~floor =
  let intervals = blocked_intervals t ~delta placed v in
  let hi = t.hi.(v) in
  match resolve_upward intervals ~hi (Float.max floor t.lo.(v)) with
  | None -> []
  | Some least ->
    let ends =
      List.filter_map
        (fun (_, b) ->
          if b > least +. epsilon then resolve_upward intervals ~hi b else None)
        intervals
    in
    least :: List.sort_uniq compare (List.filter (fun x -> x > least +. epsilon) ends)

(* [stop] is polled once per search node; when it fires the search abandons
   the branch and unwinds with "no solution".  Only the portfolio racer sets
   it — a cancelled task's result is discarded there, so the early [None]
   never masquerades as a genuine infeasibility. *)
let solve_ordered ?(stop = fun () -> false) t ~delta order =
  let placed = Array.make t.n None in
  let nodes = ref 0 in
  let rec place remaining floor =
    incr nodes;
    if !nodes land deadline_poll_mask = 0 then deadline_check "solve_ordered";
    if stop () then false
    else
      match remaining with
      | [] -> true
      | v :: rest ->
        let try_value value =
          placed.(v) <- Some value;
          if place rest value then true
          else begin
            placed.(v) <- None;
            false
          end
        in
        List.exists try_value (candidates t ~delta placed v ~floor)
  in
  if place order neg_infinity then
    Some (Array.map (function Some x -> x | None -> nan) placed)
  else None

let solve_any t ~delta =
  let placed = Array.make t.n None in
  let budget = ref 200_000 in
  let rec place unplaced floor =
    decr budget;
    if !budget land deadline_poll_mask = 0 then deadline_check "solve_any";
    if !budget <= 0 then false
    else
      match unplaced with
      | [] -> true
      | _ ->
        List.exists
          (fun v ->
            let rest = List.filter (fun u -> u <> v) unplaced in
            let try_value value =
              placed.(v) <- Some value;
              if place rest value then true
              else begin
                placed.(v) <- None;
                false
              end
            in
            List.exists try_value (candidates t ~delta placed v ~floor))
          unplaced
  in
  if place (List.init t.n Fun.id) neg_infinity then
    Some (Array.map (function Some x -> x | None -> nan) placed)
  else None

type violation =
  | Length_mismatch of int
  | Not_finite of int
  | Out_of_bounds of int
  | Separation_violated of int * int * float
  | Forbidden_violated of int * float

let pp_violation ppf = function
  | Length_mismatch n -> Format.fprintf ppf "assignment has %d values" n
  | Not_finite v -> Format.fprintf ppf "x%d is not finite" v
  | Out_of_bounds v -> Format.fprintf ppf "x%d outside its bounds" v
  | Separation_violated (i, j, offset) ->
    if offset = 0.0 then Format.fprintf ppf "|x%d - x%d| < delta" i j
    else Format.fprintf ppf "|x%d %+g - x%d| < delta" i offset j
  | Forbidden_violated (v, center) ->
    Format.fprintf ppf "x%d inside the forbidden zone around %g" v center

(* All comparisons carry the same epsilon slack the solver uses, so witnesses
   sitting exactly on a boundary (two variables at precisely delta apart, a
   value landing on an interval endpoint) verify as satisfying.  Non-finite
   values are rejected explicitly: every float comparison against NaN is
   false, so without the finiteness pass an all-NaN array would sail through
   the bounds and separation loops untouched. *)
let violations t ~delta assignment =
  if Array.length assignment <> t.n then [ Length_mismatch (Array.length assignment) ]
  else begin
    let found = ref [] in
    let report v = found := v :: !found in
    for v = 0 to t.n - 1 do
      if not (Float.is_finite assignment.(v)) then report (Not_finite v)
      else if assignment.(v) < t.lo.(v) -. epsilon || assignment.(v) > t.hi.(v) +. epsilon
      then report (Out_of_bounds v)
    done;
    (* seps is kept newest-first; walk insertion order for a stable report *)
    List.iter
      (fun { i; j; offset } ->
        let broken =
          if i = j then Float.abs offset +. epsilon < delta
          else Float.abs (assignment.(i) +. offset -. assignment.(j)) +. epsilon < delta
        in
        if broken then report (Separation_violated (i, j, offset)))
      (List.rev t.seps);
    List.iter
      (fun (v, center) ->
        if Float.abs (assignment.(v) -. center) +. epsilon < delta then
          report (Forbidden_violated (v, center)))
      (List.rev t.forbidden);
    List.rev !found
  end

let verify t ~delta assignment = violations t ~delta assignment = []

let check = verify

(* Smallest slack of any constraint under [assignment]: the largest delta at
   which the assignment still verifies.  None when the assignment is invalid
   independently of delta (wrong length, NaN, outside bounds).  This is what
   makes warm starts sound: a previous moment's witness with margin [m] is a
   ready-made feasible point for every delta <= m, so the binary search can
   open at [lo = m] instead of probing delta = 0. *)
let margin t assignment =
  if Array.length assignment <> t.n then None
  else begin
    let ok = ref true in
    for v = 0 to t.n - 1 do
      if
        (not (Float.is_finite assignment.(v)))
        || assignment.(v) < t.lo.(v) -. epsilon
        || assignment.(v) > t.hi.(v) +. epsilon
      then ok := false
    done;
    if not !ok then None
    else begin
      let m = ref infinity in
      List.iter
        (fun { i; j; offset } ->
          let slack =
            if i = j then Float.abs offset
            else Float.abs (assignment.(i) +. offset -. assignment.(j))
          in
          if slack < !m then m := slack)
        t.seps;
      List.iter
        (fun (v, center) ->
          let slack = Float.abs (assignment.(v) -. center) in
          if slack < !m then m := slack)
        t.forbidden;
      Some !m
    end
  end

(* Variables connected (transitively) by binary separations must be placed
   together; everything else is independent.  Self-sidebands and forbidden
   zones are unary, so they never join components.  Ordering is inherited
   from Graph.components: each component ascending, components by smallest
   variable — a pure function of the problem, which is what keeps the
   decomposed solve deterministic at any job count. *)
let component_partition t =
  let g = Fastsc_graphlib.Graph.create t.n in
  List.iter
    (fun { i; j; _ } -> if i <> j then Fastsc_graphlib.Graph.add_edge g i j)
    t.seps;
  Fastsc_graphlib.Graph.components g

(* Restrict the problem to one component.  [globals.(k)] is the original id
   of local variable [k]; seps and forbidden keep their relative list order,
   so the subproblem built for the whole variable set is search-equivalent
   to the original problem. *)
let restrict t comp =
  let globals = Array.of_list comp in
  let n' = Array.length globals in
  let local_of = Array.make t.n (-1) in
  Array.iteri (fun k v -> local_of.(v) <- k) globals;
  let sub =
    {
      n = n';
      lo = Array.map (fun v -> t.lo.(v)) globals;
      hi = Array.map (fun v -> t.hi.(v)) globals;
      seps =
        List.filter_map
          (fun { i; j; offset } ->
            if local_of.(i) >= 0 && local_of.(j) >= 0 then
              Some { i = local_of.(i); j = local_of.(j); offset }
            else None)
          t.seps;
      forbidden =
        List.filter_map
          (fun (v, center) ->
            if local_of.(v) >= 0 then Some (local_of.(v), center) else None)
          t.forbidden;
    }
  in
  (sub, globals)

(* Split a global sweep order into per-component local orders: each component
   keeps the relative order its members had in the global list. *)
let split_order t order comps =
  let rank = Array.make t.n 0 in
  List.iteri (fun k v -> rank.(v) <- k) order;
  List.map
    (fun comp ->
      let local_of = Hashtbl.create (List.length comp) in
      List.iteri (fun k v -> Hashtbl.replace local_of v k) comp;
      List.map
        (fun v -> Hashtbl.find local_of v)
        (List.sort (fun a b -> compare rank.(a) rank.(b)) comp))
    comps

let validate_order t order =
  if List.length order <> t.n then
    invalid_arg "Smt.solve: order must list every variable exactly once"

(* Solve one component's subproblem; [sub_order], when given, is already in
   local variable ids. *)
let solve_sub ?sub_order sub ~delta =
  match sub_order with
  | Some o -> solve_ordered sub ~delta o
  | None -> if sub.n = 0 then Some [||] else solve_any sub ~delta

let merge_component_witnesses t pieces =
  let witness = Array.make t.n nan in
  List.iter
    (fun (globals, w) -> Array.iteri (fun k v -> witness.(v) <- w.(k)) globals)
    pieces;
  witness

(* Monolithic whole-problem search: the pre-decomposition code path, kept as
   the benchmark baseline and for callers that want the global monotone
   contract of [~order] (an order spanning components couples them through
   the shared floor, which per-component solving deliberately does not). *)
let solve_monolithic ?order t ~delta =
  if not (self_constraints_ok t ~delta) then None
  else
    let result =
      match order with
      | Some order ->
        validate_order t order;
        solve_ordered t ~delta order
      | None -> if t.n = 0 then Some [||] else solve_any t ~delta
    in
    match result with
    | Some assignment ->
      assert (check t ~delta assignment);
      Some assignment
    | None -> None

(* The unordered path decomposes: independent components are solved one by
   one on their own restricted problems.  Single-component problems (every
   complete-graph allocation the compiler builds today) dispatch to the
   exact pre-decomposition search, so existing witnesses are bit-identical.
   The ordered path stays monolithic — the global monotone contract spans
   components by design. *)
let solve ?order t ~delta =
  match order with
  | Some _ -> solve_monolithic ?order t ~delta
  | None ->
    if not (self_constraints_ok t ~delta) then None
    else if t.n = 0 then Some [||]
    else begin
      let result =
        match component_partition t with
        | [] | [ _ ] -> solve_any t ~delta
        | comps ->
          let rec go acc = function
            | [] -> Some (merge_component_witnesses t (List.rev acc))
            | comp :: rest -> (
              let sub, globals = restrict t comp in
              match solve_sub sub ~delta with
              | None -> None
              | Some w -> go ((globals, w) :: acc) rest)
          in
          go [] comps
      in
      match result with
      | Some assignment ->
        assert (check t ~delta assignment);
        Some assignment
      | None -> None
    end

(* Pool-parallel component solve.  Byte-identical to {!solve}: components and
   their subproblems are pure functions of [t], each cell runs the same
   search [solve] would run sequentially, and Pool.map stores results by
   input index — so the merged witness cannot depend on jobs or scheduling.
   With [~order] each component receives the restriction of the global order
   (no cross-component floor chaining, unlike monolithic [solve ~order]). *)
let solve_components ?jobs ?order t ~delta =
  if not (self_constraints_ok t ~delta) then None
  else if t.n = 0 then Some [||]
  else begin
    Option.iter (validate_order t) order;
    let comps = component_partition t in
    let sub_orders =
      match order with
      | None -> List.map (fun _ -> None) comps
      | Some order -> List.map Option.some (split_order t order comps)
    in
    let cells = List.combine comps sub_orders in
    let pieces =
      Fastsc_util.Pool.map ?jobs
        (fun (comp, sub_order) ->
          let sub, globals = restrict t comp in
          Option.map (fun w -> (globals, w)) (solve_sub ?sub_order sub ~delta))
        cells
    in
    if List.exists Option.is_none pieces then None
    else begin
      let witness = merge_component_witnesses t (List.map Option.get pieces) in
      assert (check t ~delta witness);
      Some witness
    end
  end

let widest_range t =
  let w = ref 0.0 in
  for v = 0 to t.n - 1 do
    w := Float.max !w (t.hi.(v) -. t.lo.(v))
  done;
  !w

(* One binary search = one "solve" for instrumentation purposes: the compiler
   passes report how many frequency-assignment searches a compilation paid
   for (the memoized Freq_alloc layer makes the delta between passes the
   interesting number).  Atomic so pool domains can solve concurrently. *)
let solve_counter = Atomic.make 0

let find_max_delta_count () = Atomic.get solve_counter

let reset_find_max_delta_count () = Atomic.set solve_counter 0

(* Respecting [order] means the witness must be non-decreasing along it; a
   warm witness from another moment need not be, so it is only accepted as a
   seed when it honours the contract the caller asked for. *)
let monotone_along order assignment =
  let rec walk = function
    | a :: (b :: _ as rest) ->
      assignment.(a) <= assignment.(b) +. epsilon && walk rest
    | _ -> true
  in
  walk order

let find_max_delta ?order ?(tolerance = 1e-4) ?delta_hi ?warm t =
  Atomic.incr solve_counter;
  deadline_check "find_max_delta";
  let delta_hi = match delta_hi with Some d -> d | None -> Float.max tolerance (widest_range t) in
  (* Warm start: a previous witness with positive margin [m] is feasible for
     every delta <= m, so it replaces the delta = 0 probe and opens the
     search at [lo = m].  Invalid or non-monotone (under [order]) witnesses
     fall back to the cold path — warm starting never changes feasibility,
     only how much of the binary search is skipped. *)
  let seeded =
    match warm with
    | None -> None
    | Some w -> (
      match margin t w with
      | Some m
        when m > 0.0
             && (match order with None -> true | Some o -> monotone_along o w)
        -> Some (Float.min m delta_hi, Array.copy w)
      | _ -> None)
  in
  let base =
    match seeded with
    | Some _ -> seeded
    | None -> (
      match solve ?order t ~delta:0.0 with
      | None -> None
      | Some witness0 -> Some (0.0, witness0))
  in
  match base with
  | None -> None
  | Some (d0, w0) ->
    let best = ref (d0, w0) in
    let lo = ref d0 and hi = ref delta_hi in
    (* Check the top first: if delta_hi itself is feasible we are done. *)
    if !lo < delta_hi then (
      match solve ?order t ~delta:delta_hi with
      | Some w ->
        best := (delta_hi, w);
        lo := delta_hi
      | None -> ());
    while !hi -. !lo > tolerance do
      deadline_check "find_max_delta";
      let mid = (!lo +. !hi) /. 2.0 in
      match solve ?order t ~delta:mid with
      | Some w ->
        best := (mid, w);
        lo := mid
      | None -> hi := mid
    done;
    Some !best

type component_solution = { members : int list; local_delta : float }

(* Per-component binary searches, fanned over the pool.  The merged maximum
   is the min over components (the binding component caps the global delta),
   and each per-component witness stays feasible at that smaller value, so
   the merged witness verifies at the merged delta.  Each component pays its
   own find_max_delta (own solve_counter tick) — that is the solve count the
   trace reports.  Deterministic at any job count: components, subproblems
   and per-component searches are pure functions of [t], and results merge
   in component index order. *)
let find_max_delta_components ?jobs ?order ?(tolerance = 1e-4) ?delta_hi ?warm t =
  let delta_hi = match delta_hi with Some d -> d | None -> Float.max tolerance (widest_range t) in
  Option.iter (validate_order t) order;
  match component_partition t with
  | [] ->
    Option.map
      (fun (d, w) -> ((d, w), []))
      (find_max_delta ?order ~tolerance ~delta_hi ?warm t)
  | [ comp ] ->
    Option.map
      (fun (d, w) -> ((d, w), [ { members = comp; local_delta = d } ]))
      (find_max_delta ?order ~tolerance ~delta_hi ?warm t)
  | comps ->
    let sub_orders =
      match order with
      | None -> List.map (fun _ -> None) comps
      | Some order -> List.map Option.some (split_order t order comps)
    in
    let cells = List.combine comps sub_orders in
    let results =
      (* inherit_ambient: component solves run on worker domains, which have
         their own ambient deadline state — re-install the caller's so the
         per-component searches stay cancellable *)
      Fastsc_util.Pool.map ?jobs
        (Fastsc_util.Deadline.inherit_ambient (fun (comp, sub_order) ->
          let sub, globals = restrict t comp in
          let sub_warm =
            Option.map (fun w -> Array.map (fun v -> w.(v)) globals) warm
          in
          Option.map
            (fun (d, w) -> (comp, globals, d, w))
            (find_max_delta ?order:sub_order ~tolerance ~delta_hi ?warm:sub_warm
               sub)))
        cells
    in
    if List.exists Option.is_none results then None
    else begin
      let results = List.map Option.get results in
      let delta =
        List.fold_left (fun acc (_, _, d, _) -> Float.min acc d) delta_hi results
      in
      let witness =
        merge_component_witnesses t
          (List.map (fun (_, globals, _, w) -> (globals, w)) results)
      in
      assert (verify t ~delta witness);
      let infos =
        List.map
          (fun (comp, _, d, _) -> { members = comp; local_delta = d })
          results
      in
      Some ((delta, witness), infos)
    end

(* Ordering portfolio: race candidate sweep orders as pool tasks and keep the
   lowest-index feasible one.  Task [i] may be cancelled only once some task
   [j < i] has already succeeded, so every task below the eventual winner
   always runs to completion — the winner is a pure function of the problem
   and the portfolio, independent of jobs or scheduling. *)
let solve_portfolio ?jobs t ~delta ~orders =
  if orders = [] then invalid_arg "Smt.solve_portfolio: empty portfolio";
  List.iter (validate_order t) orders;
  if not (self_constraints_ok t ~delta) then None
  else begin
    let winner = Atomic.make max_int in
    let claim i =
      let rec spin () =
        let cur = Atomic.get winner in
        if i < cur && not (Atomic.compare_and_set winner cur i) then spin ()
      in
      spin ()
    in
    let attempts =
      (* same cross-domain deadline bridge as find_max_delta_components *)
      let run_cell =
        Fastsc_util.Deadline.inherit_ambient (fun (i, order) ->
            if Atomic.get winner < i then None
            else
              let stop () = Atomic.get winner < i in
              match solve_ordered ~stop t ~delta order with
              | Some w ->
                claim i;
                Some w
              | None -> None)
      in
      Fastsc_util.Pool.mapi ?jobs (fun i order -> run_cell (i, order)) orders
    in
    let rec first i = function
      | [] -> None
      | Some w :: _ -> Some (i, w)
      | None :: rest -> first (i + 1) rest
    in
    match first 0 attempts with
    | Some (i, w) ->
      assert (check t ~delta w);
      Some (i, w)
    | None -> None
  end

let find_max_delta_portfolio ?jobs ?(tolerance = 1e-4) ?delta_hi ~orders t =
  Atomic.incr solve_counter;
  deadline_check "find_max_delta_portfolio";
  let delta_hi = match delta_hi with Some d -> d | None -> Float.max tolerance (widest_range t) in
  match solve_portfolio ?jobs t ~delta:0.0 ~orders with
  | None -> None
  | Some (i0, w0) ->
    let best = ref (i0, 0.0, w0) in
    let lo = ref 0.0 and hi = ref delta_hi in
    (match solve_portfolio ?jobs t ~delta:delta_hi ~orders with
    | Some (i, w) ->
      best := (i, delta_hi, w);
      lo := delta_hi
    | None -> ());
    while !hi -. !lo > tolerance do
      deadline_check "find_max_delta_portfolio";
      let mid = (!lo +. !hi) /. 2.0 in
      match solve_portfolio ?jobs t ~delta:mid ~orders with
      | Some (i, w) ->
        best := (i, mid, w);
        lo := mid
      | None -> hi := mid
    done;
    let i, d, w = !best in
    Some (i, (d, w))
