(* Periodic operational stats for the serve daemon (ROADMAP item 1
   follow-on): every N completed requests the daemon prints one stderr line
   with the solver-cache hit rate and per-tier latency percentiles, so an
   operator watching the log can see cache decay or a tier drifting toward
   its deadline without attaching a profiler.

   The recorder is a mutex-guarded accumulator fed from pool workers; the
   formatter is a pure function of a snapshot, unit-tested in isolation.
   Each line takes the latency samples recorded since the previous one, so
   a long-lived daemon holds at most one window of them. *)

(* The degradation ladder's rungs, in ladder order, so the stats line lists
   tiers in the order requests fall through them. *)
let tier_order = [ "full"; "decomposed-warm"; "stale"; "greedy" ]

type t = {
  mutex : Mutex.t;
  mutable served : int;
  mutable errors : int;
  samples : (string, float list) Hashtbl.t;  (* tier -> latency samples *)
}

let create () = { mutex = Mutex.create (); served = 0; errors = 0; samples = Hashtbl.create 8 }

let record t response =
  Mutex.lock t.mutex;
  t.served <- t.served + 1;
  (match response with
  | Protocol.Ok_response body ->
    let prev = Option.value ~default:[] (Hashtbl.find_opt t.samples body.Protocol.tier) in
    Hashtbl.replace t.samples body.Protocol.tier (body.Protocol.latency_ms :: prev)
  | Protocol.Error_response _ -> t.errors <- t.errors + 1);
  Mutex.unlock t.mutex

(* The counts, and the window's samples, which it leaves empty. *)
let take t =
  Mutex.lock t.mutex;
  let tiers =
    List.filter_map
      (fun tier ->
        match Hashtbl.find_opt t.samples tier with
        | None | Some [] -> None
        | Some samples -> Some (tier, samples))
      (tier_order
      @ List.filter
          (fun k -> not (List.mem k tier_order))
          (List.sort_uniq compare (Hashtbl.fold (fun k _ acc -> k :: acc) t.samples [])))
  in
  Hashtbl.reset t.samples;
  let served = t.served and errors = t.errors in
  Mutex.unlock t.mutex;
  (served, errors, tiers)

(* Pure formatter: everything it reports arrives as arguments. *)
let format_line ~served ~errors ~cache_hits ~cache_misses ~tiers =
  let buf = Buffer.create 128 in
  Buffer.add_string buf (Printf.sprintf "stats: %d served" served);
  if errors > 0 then Buffer.add_string buf (Printf.sprintf " (%d errors)" errors);
  let solves = cache_hits + cache_misses in
  Buffer.add_string buf
    (if solves = 0 then " | solver cache -"
     else
       Printf.sprintf " | solver cache %.0f%% hit (%d/%d)"
         (100.0 *. float_of_int cache_hits /. float_of_int solves)
         cache_hits solves);
  List.iter
    (fun (tier, samples) ->
      Buffer.add_string buf
        (Printf.sprintf " | %s n=%d p50 %.1fms p95 %.1fms" tier (List.length samples)
           (Stats.percentile 50.0 samples)
           (Stats.percentile 95.0 samples)))
    tiers;
  Buffer.contents buf

let line t =
  let served, errors, tiers = take t in
  let cache = Freq_alloc.solver_cache_stats () in
  format_line ~served ~errors ~cache_hits:cache.Freq_alloc.hits
    ~cache_misses:cache.Freq_alloc.misses ~tiers
