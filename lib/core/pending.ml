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
}

(* Seeded fault for the verification harness (DESIGN.md §11): key the
   ready set by id alone, so gates are served in program order. *)
let fault_crit_order = Fault.enabled "pending-crit-order"

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

(* Ready gates never share a qubit (each heads the queue of every operand),
   so a moment may take any subset of them. *)
let select t ~accept = List.filter accept (ready t)

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
