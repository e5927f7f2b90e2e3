(* Ready gates as (criticality, id), most critical first, ties by id. *)
module Ready = Set.Make (struct
  type t = int * int

  let compare (c1, i1) (c2, i2) =
    match Int.compare c2 c1 with 0 -> Int.compare i1 i2 | c -> c
end)

type t = {
  instrs : Gate.application array;
  crit : int array;
  frontier : Mapping.Frontier.t;  (* readiness; gate ids are its positions *)
  mutable ready : Ready.t;
  mutable remaining : int;
  used : bool array;  (* per qubit: taken in the moment [select] is building *)
}

(* Seeded faults for the verification harness (docs/DESIGN.md §11): key the
   ready set by id alone, so gates are served in program order; leave the
   first chosen gate's qubits marked used after [select]. *)
let fault_crit_order = Fault.enabled "pending-crit-order"

let fault_used_leak = Fault.enabled "pending-used-leak"

let key t id = ((if fault_crit_order then 0 else t.crit.(id)), id)

let create circuit =
  let frontier = Mapping.Frontier.create circuit in
  let t =
    {
      instrs = Circuit.instructions circuit;
      crit = Layers.criticality circuit;
      frontier;
      ready = Ready.empty;
      remaining = Circuit.length circuit;
      used = Array.make (Circuit.n_qubits circuit) false;
    }
  in
  List.iter
    (fun app -> t.ready <- Ready.add (key t app.Gate.id) t.ready)
    (Mapping.Frontier.ready frontier);
  t

let is_empty t = t.remaining = 0

let n_remaining t = t.remaining

let ready t = List.map (fun (_, id) -> t.instrs.(id)) (Ready.elements t.ready)

let criticality t app = t.crit.(app.Gate.id)

let select t ~accept =
  let mark used app = Array.iter (fun q -> t.used.(q) <- used) app.Gate.qubits in
  let pick (_, id) chosen =
    let app = t.instrs.(id) in
    if Array.exists (fun q -> t.used.(q)) app.Gate.qubits || not (accept app) then chosen
    else (mark true app; app :: chosen)
  in
  let chosen = List.rev (Ready.fold pick t.ready []) in
  List.iteri (fun i app -> if not (fault_used_leak && i = 0) then mark false app) chosen;
  chosen

let schedule t app =
  let id = app.Gate.id in
  match Mapping.Frontier.retire t.frontier id with
  | exception Invalid_argument _ ->
    invalid_arg
      (Printf.sprintf "Pending.schedule: gate %d is not ready (dependency violation)" id)
  | fresh ->
    t.ready <-
      List.fold_left
        (fun ready j -> Ready.add (key t j) ready)
        (Ready.remove (key t id) t.ready)
        fresh;
    t.remaining <- t.remaining - 1
