(* The graceful-degradation ladder.

   A request walks four rungs, each cheaper than the last, until one
   produces a schedule within whatever budget remains:

     full             the requested algorithm with the request's own
                      options, first half of the budget
     decomposed-warm  same algorithm with component decomposition and
                      warm starts on, the rest of the budget
     stale            a previously computed witness for the identical
                      compile problem (in-memory, no SMT, no deadline)
     greedy           the greedy-spread scheduler — graph coloring only,
                      runs without a deadline and always succeeds

   SMT rungs abandon work by raising Deadline.Expired from the cooperative
   polls inside Pass/Smt; the ladder catches it (and Failure, for genuinely
   infeasible problems) and steps down.  Every attempt is recorded with its
   wall-clock and outcome, so the response trace shows exactly how the
   request degraded. *)

type tier = Full | Decomposed_warm | Stale | Greedy

let tier_name = function
  | Full -> "full"
  | Decomposed_warm -> "decomposed-warm"
  | Stale -> "stale"
  | Greedy -> "greedy"

(* Seeded fault for the verification harness (DESIGN.md §11): label the
   response with the first tier attempted instead of the one that actually
   produced the witness. *)
let fault_ladder_tier = Fault.enabled "serve-ladder-tier"

(* -- the stale-witness cache ------------------------------------------------- *)

(* Completed SMT-tier results keyed by Protocol.cache_key: same bound and
   reset-on-full recycle discipline as the solver memo tables.  Greedy
   results are not stored — a stale hit must never be worse than what the
   greedy rung below it would recompute. *)

let max_stale_entries = 1024

let stale : (string, string * Schedule.metrics) Hashtbl.t = Hashtbl.create 64

let stale_mutex = Mutex.create ()

let stale_hits = ref 0

let stale_misses = ref 0

let stale_store key value =
  Mutex.lock stale_mutex;
  if Hashtbl.length stale >= max_stale_entries then Hashtbl.reset stale;
  Hashtbl.replace stale key value;
  Mutex.unlock stale_mutex

let stale_find key =
  Mutex.lock stale_mutex;
  let found = Hashtbl.find_opt stale key in
  (match found with Some _ -> incr stale_hits | None -> incr stale_misses);
  Mutex.unlock stale_mutex;
  found

let stale_cache_stats () =
  Mutex.lock stale_mutex;
  let stats = (!stale_hits, !stale_misses, Hashtbl.length stale) in
  Mutex.unlock stale_mutex;
  stats

let reset_stale_cache () =
  Mutex.lock stale_mutex;
  Hashtbl.reset stale;
  stale_hits := 0;
  stale_misses := 0;
  Mutex.unlock stale_mutex

(* -- walking the ladder ------------------------------------------------------ *)

let options_for (req : Protocol.request) ~warm ~decompose =
  {
    Pass.default_options with
    Pass.crosstalk_distance = req.crosstalk_distance;
    warm_start = req.warm_start || warm;
    decompose_components = req.decompose_components || decompose;
  }

let compile ?default_deadline_ms (req : Protocol.request) =
  (* Every later step sees the canonical name, so an alias and its name
     share one stale-cache key. *)
  let req =
    match Pass.find_scheduler req.algorithm with
    | Some s -> { req with algorithm = s.Pass.name }
    | None ->
      raise
        (Protocol.Bad_request
           (Printf.sprintf "unknown algorithm %S (known: %s)" req.algorithm
              (String.concat " " (List.map (fun s -> s.Pass.name) Pass.schedulers))))
  in
  let t_start = Deadline.now_s () in
  let budget_ms =
    match req.deadline_ms with Some d -> Some d | None -> default_deadline_ms
  in
  let overall =
    Option.map
      (fun b -> Deadline.after_ms ~label:("request " ^ req.id) b)
      budget_ms
  in
  let device, circuit = Protocol.realize req in
  let key = Protocol.cache_key req in
  let attempts = ref [] in
  let record t ms outcome =
    attempts :=
      { Protocol.a_tier = tier_name t; a_ms = ms; a_outcome = outcome } :: !attempts
  in
  let finish producing (algorithm, metrics) =
    let tried = List.rev !attempts in
    let reported =
      if fault_ladder_tier then
        match tried with a :: _ -> a.Protocol.a_tier | [] -> tier_name producing
      else tier_name producing
    in
    Protocol.Ok_response
      {
        Protocol.ok_id = req.id;
        tier = reported;
        algorithm;
        retries = List.length tried - 1;
        latency_ms = (Deadline.now_s () -. t_start) *. 1000.0;
        attempts = tried;
        metrics;
      }
  in
  let run_smt t ~options ~deadline =
    let t0 = Deadline.now_s () in
    let ms () = (Deadline.now_s () -. t0) *. 1000.0 in
    match Pass.execute ~options ?deadline ~algorithm:req.algorithm device circuit with
    | ctx ->
      let metrics = Pass.Context.metrics_exn ctx in
      let algorithm = Option.value ~default:req.algorithm ctx.Pass.Context.algorithm in
      record t (ms ()) "ok";
      stale_store key (algorithm, metrics);
      Some (algorithm, metrics)
    | exception Deadline.Expired _ ->
      record t (ms ()) "expired";
      None
    | exception Failure _ ->
      record t (ms ()) "error";
      None
  in
  (* rung 1: full solve on the first half of the budget — enough to succeed
     when the problem is easy, early enough to leave the fallback room *)
  let tier_full_deadline =
    Option.map
      (fun d ->
        Deadline.after_ms
          ~label:("request " ^ req.id ^ " tier full")
          (Float.max 0.0 (Deadline.remaining_ms d /. 2.0)))
      overall
  in
  match
    run_smt Full ~deadline:tier_full_deadline
      ~options:(options_for req ~warm:false ~decompose:false)
  with
  | Some result -> finish Full result
  | None -> (
    (* rung 2: decomposition + warm starts make much larger problems fit a
       budget; bounded by what remains of the whole request budget *)
    match
      run_smt Decomposed_warm ~deadline:overall
        ~options:(options_for req ~warm:true ~decompose:true)
    with
    | Some result -> finish Decomposed_warm result
    | None -> (
      (* rung 3: a witness computed for the identical problem earlier — pure
         table lookup, immune to the deadline *)
      match stale_find key with
      | Some (algorithm, metrics) ->
        record Stale 0.0 "hit";
        finish Stale (algorithm, metrics)
      | None ->
        record Stale 0.0 "miss";
        (* rung 4: no SMT, no deadline — cannot fail, so the ladder always
           returns a structured response *)
        let t0 = Deadline.now_s () in
        let ctx =
          Pass.execute
            ~options:(options_for req ~warm:false ~decompose:false)
            ~algorithm:"greedy-spread" device circuit
        in
        let metrics = Pass.Context.metrics_exn ctx in
        record Greedy ((Deadline.now_s () -. t0) *. 1000.0) "ok";
        finish Greedy ("greedy-spread", metrics)))
