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

let solve_ordered t ~delta order =
  let placed = Array.make t.n None in
  let nodes = ref 0 in
  let rec place remaining floor =
    incr nodes;
    if !nodes land deadline_poll_mask = 0 then deadline_check "solve_ordered";
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

(* Unordered search: each step picks any unplaced variable and places it at
   or above the previous value, so every feasible assignment is reachable in
   its sorted order.  The search gives up after 200,000 nodes and answers
   "no solution", so past that budget a [None] is not a proof of
   infeasibility.  The compiler's problems (a handful of colors, one
   variable each) stay far below it; about ten variables with only a few
   separations can reach it. *)
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

let validate_order t order =
  if List.length order <> t.n then
    invalid_arg "Smt.solve: order must list every variable exactly once"

let solve ?order t ~delta =
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
      assert (verify t ~delta assignment);
      Some assignment
    | None -> None

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
