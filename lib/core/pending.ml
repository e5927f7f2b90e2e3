(* A ready gate is kept as the int key [rank * n_gates + id], where [rank]
   is how far its criticality lies below the circuit's deepest: ascending
   keys are most critical first, ties by id. *)
type t = {
  instrs : Gate.application array;
  crit : int array;
  max_crit : int;
  frontier : Mapping.Frontier.t;  (* readiness; gate ids are its positions *)
  scheduled : bool array;
  mutable ready : int array;  (* [n_ready] keys, ascending; may hold scheduled gates *)
  mutable spare : int array;  (* what [settle] rebuilds [ready] into *)
  mutable n_ready : int;
  mutable fresh : int array;  (* [n_fresh] keys readied since the last [settle] *)
  mutable n_fresh : int;
  mutable stale : bool;  (* a gate was scheduled since the last [settle] *)
  mutable remaining : int;
}

(* Seeded fault for the verification harness (DESIGN.md §11): key the
   ready set by id alone, so gates are served in program order. *)
let fault_crit_order = Fault.enabled "pending-crit-order"

let key t id =
  let rank = if fault_crit_order then 0 else t.max_crit - t.crit.(id) in
  (rank * Array.length t.instrs) + id

let id_of t key = key mod Array.length t.instrs

let push_fresh t key =
  if t.n_fresh = Array.length t.fresh then begin
    let grown = Array.make (2 * t.n_fresh) 0 in
    Array.blit t.fresh 0 grown 0 t.n_fresh;
    t.fresh <- grown
  end;
  t.fresh.(t.n_fresh) <- key;
  t.n_fresh <- t.n_fresh + 1

let create circuit =
  let frontier = Mapping.Frontier.create circuit in
  let crit = Layers.criticality circuit in
  let n_qubits = Circuit.n_qubits circuit in
  let t =
    {
      instrs = Circuit.instructions circuit;
      crit;
      max_crit = Array.fold_left max 0 crit;
      frontier;
      scheduled = Array.make (Circuit.length circuit) false;
      (* ready gates never share a qubit *)
      ready = Array.make n_qubits 0;
      spare = Array.make n_qubits 0;
      n_ready = 0;
      fresh = Array.make (2 * n_qubits) 0;
      n_fresh = 0;
      stale = false;
      remaining = Circuit.length circuit;
    }
  in
  List.iter (fun app -> push_fresh t (key t app.Gate.id)) (Mapping.Frontier.ready frontier);
  t

let is_empty t = t.remaining = 0

let n_remaining t = t.remaining

(* A moment readies a handful of gates, sorted in place; the first moments
   of a wide circuit ready hundreds. *)
let sort_fresh t =
  let fresh = t.fresh and n = t.n_fresh in
  if n <= 16 then
    for k = 1 to n - 1 do
      let x = fresh.(k) in
      let j = ref (k - 1) in
      while !j >= 0 && fresh.(!j) > x do
        fresh.(!j + 1) <- fresh.(!j);
        decr j
      done;
      fresh.(!j + 1) <- x
    done
  else begin
    let sorted = Array.sub fresh 0 n in
    Array.stable_sort Int.compare sorted;
    for k = 0 to n - 1 do
      fresh.(k) <- sorted.(k)
    done
  end

(* Bring [ready] up to date, once per moment: merge in the sorted fresh
   keys and drop the scheduled ones, in one pass over both. *)
let settle t =
  if t.stale || t.n_fresh > 0 then begin
    sort_fresh t;
    let old = t.ready and n_old = t.n_ready and fresh = t.fresh and n_fresh = t.n_fresh in
    let into = t.spare in
    let n = ref 0 and i = ref 0 and j = ref 0 in
    while !i < n_old || !j < n_fresh do
      let key =
        if !j >= n_fresh || (!i < n_old && old.(!i) < fresh.(!j)) then begin
          incr i;
          old.(!i - 1)
        end
        else begin
          incr j;
          fresh.(!j - 1)
        end
      in
      if not t.scheduled.(id_of t key) then begin
        into.(!n) <- key;
        incr n
      end
    done;
    t.ready <- into;
    t.spare <- old;
    t.n_ready <- !n;
    t.n_fresh <- 0;
    t.stale <- false
  end

let ready t =
  settle t;
  List.init t.n_ready (fun k -> t.instrs.(id_of t t.ready.(k)))

let criticality t app = t.crit.(app.Gate.id)

(* Ready gates never share a qubit (each heads the queue of every operand),
   so a moment may take any subset of them. *)
let select t ~accept =
  settle t;
  let chosen = ref [] in
  for k = 0 to t.n_ready - 1 do
    let app = t.instrs.(id_of t t.ready.(k)) in
    if accept app then chosen := app :: !chosen
  done;
  List.rev !chosen

let schedule t app =
  let id = app.Gate.id in
  match Mapping.Frontier.retire t.frontier id with
  | exception Invalid_argument _ ->
    invalid_arg
      (Printf.sprintf "Pending.schedule: gate %d is not ready (dependency violation)" id)
  | fresh ->
    t.scheduled.(id) <- true;
    t.stale <- true;
    List.iter (fun j -> push_fresh t (key t j)) fresh;
    t.remaining <- t.remaining - 1
