type algorithm =
  | Naive
  | Gmon
  | Uniform
  | Static
  | Color_dynamic
  | Gmon_dynamic
  | Anneal_dynamic
  | Murali_delay
  | Cqc_synergy

(* The closed public variant against the canonical names of [Pass]'s
   scheduler table, in its order.  Dispatch and alias parsing go through
   that table. *)
let names =
  [
    (Naive, "baseline-n");
    (Gmon, "baseline-g");
    (Uniform, "baseline-u");
    (Static, "baseline-s");
    (Color_dynamic, "color-dynamic");
    (Gmon_dynamic, "gmon-dynamic");
    (Anneal_dynamic, "anneal-dynamic");
    (Murali_delay, "murali-delay");
    (Cqc_synergy, "cqc-synergy");
  ]

let algorithm_to_string algorithm = List.assoc algorithm names

let all_algorithms = [ Naive; Gmon; Uniform; Static; Color_dynamic ]

let extended_algorithms = List.map fst names

let algorithm_of_string spec =
  match Pass.find_scheduler spec with
  | Some s -> List.find_map (fun (a, n) -> if n = s.Pass.name then Some a else None) names
  | None -> None

let prepare options device circuit =
  Pass.Context.native_exn
    (Pass.run_pipeline Pass.prepare_passes (Pass.Context.create ~options device circuit))

let schedule_native options algorithm device native =
  fst ((Pass.scheduler_exn (algorithm_to_string algorithm)).Pass.schedule options device native)

let run ?(options = Pass.default_options) algorithm device circuit =
  Pass.Context.schedule_exn
    (Pass.execute ~options ~through:`Schedule ~algorithm:(algorithm_to_string algorithm)
       device circuit)
