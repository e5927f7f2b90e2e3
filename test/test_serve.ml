open Helpers
module Protocol = Fastsc_serve.Protocol
module Ladder = Fastsc_serve.Ladder
module Telemetry = Fastsc_serve.Telemetry

(* The serve layer: wire protocol totality, the degradation ladder's tier
   walk, and the stale-witness cache.  The deadline-zero ladder test is the
   sentinel for the seeded serve-ladder-tier fault: with the fault on, the
   response reports the first tier attempted instead of the one that
   produced the witness. *)

let parse line = Protocol.parse_request line

let rejects line =
  match parse line with
  | _ -> false
  | exception Protocol.Bad_request _ -> true

let test_request_defaults () =
  let req = parse {|{"id":"r1"}|} in
  check_true "id" (req.Protocol.id = "r1");
  check_true "bench default" (req.Protocol.bench = "bv");
  check_int "n default" 9 req.Protocol.n;
  check_true "topology default" (req.Protocol.topology = "grid");
  check_int "seed default" 2020 req.Protocol.seed;
  check_true "algorithm default" (req.Protocol.algorithm = "color-dynamic");
  check_true "no deadline by default" (req.Protocol.deadline_ms = None);
  check_true "options default off"
    ((not req.Protocol.warm_start) && not req.Protocol.decompose_components);
  check_int "crosstalk distance default" 1 req.Protocol.crosstalk_distance

let test_request_fields () =
  let req =
    parse
      {|{"id":"r2","bench":"qaoa","n":12,"topology":"ring","seed":7,
         "algorithm":"static","deadline_ms":250,"warm_start":true,
         "decompose_components":true,"crosstalk_distance":2}|}
  in
  check_true "bench" (req.Protocol.bench = "qaoa");
  check_int "n" 12 req.Protocol.n;
  check_true "deadline accepted as int" (req.Protocol.deadline_ms = Some 250.0);
  check_true "flags" (req.Protocol.warm_start && req.Protocol.decompose_components)

let test_request_rejections () =
  check_true "invalid JSON" (rejects "{nope");
  check_true "non-object" (rejects "[1,2]");
  check_true "missing id" (rejects {|{"bench":"bv"}|});
  check_true "mistyped n" (rejects {|{"id":"x","n":"nine"}|});
  check_true "n below one" (rejects {|{"id":"x","n":0}|});
  check_true "negative deadline" (rejects {|{"id":"x","deadline_ms":-5}|});
  check_true "unknown benchmark" (rejects {|{"id":"x","bench":"frobnicate"}|});
  check_true "negative crosstalk distance" (rejects {|{"id":"x","crosstalk_distance":-1}|})

let test_cache_key_identity () =
  let base = {|{"id":"a","bench":"bv","n":6,"topology":"path"}|} in
  let key = Protocol.cache_key (parse base) in
  (* id and deadline do not change the compile problem *)
  check_true "id excluded"
    (Protocol.cache_key (parse {|{"id":"b","bench":"bv","n":6,"topology":"path"}|}) = key);
  check_true "deadline excluded"
    (Protocol.cache_key
       (parse {|{"id":"a","bench":"bv","n":6,"topology":"path","deadline_ms":0}|})
    = key);
  (* anything that does change the problem changes the key *)
  check_true "n included"
    (Protocol.cache_key (parse {|{"id":"a","bench":"bv","n":7,"topology":"path"}|}) <> key);
  check_true "seed included"
    (Protocol.cache_key (parse {|{"id":"a","bench":"bv","n":6,"topology":"path","seed":3}|})
    <> key);
  let qasm id text =
    Protocol.cache_key
      (parse
         (Printf.sprintf {|{"id":%S,"bench":"bv","n":6,"topology":"path","qasm":%S}|} id text))
  in
  check_true "qasm hashed into key" (qasm "a" "OPENQASM 2.0;" <> key);
  check_true "same qasm, same key" (qasm "a" "OPENQASM 2.0;" = qasm "b" "OPENQASM 2.0;");
  check_true "different qasm, different key"
    (qasm "a" "OPENQASM 2.0;\nqreg q[2];" <> qasm "a" "OPENQASM 2.0;\nqreg q[3];")

let test_realize_qasm_error_is_bad_request () =
  let req = parse {|{"id":"q","n":4,"topology":"path","qasm":"this is not qasm"}|} in
  check_true "qasm parse error maps to Bad_request"
    (match Protocol.realize req with
    | _ -> false
    | exception Protocol.Bad_request msg -> contains msg "qasm");
  let bad_topo = parse {|{"id":"q","n":4,"topology":"moebius"}|} in
  check_true "unknown topology maps to Bad_request"
    (match Protocol.realize bad_topo with
    | _ -> false
    | exception Protocol.Bad_request msg -> contains msg "topology")

(* A size the topology or the benchmark cannot have is the client's error:
   the daemon answers bad_request, not internal. *)
let test_daemon_bad_size_is_bad_request () =
  let requests = Filename.temp_file "fastsc_serve" ".jsonl" in
  let responses = Filename.temp_file "fastsc_serve" ".out" in
  Out_channel.with_open_bin requests (fun oc ->
      output_string oc "{\"id\":\"a\",\"n\":1}\n{\"id\":\"b\",\"n\":2,\"topology\":\"ring\"}\n");
  let code =
    Sys.command
      (Printf.sprintf "%s serve < %s > %s 2> /dev/null"
         (Filename.quote (Filename.concat ".." (Filename.concat "bin" "fastsc.exe")))
         (Filename.quote requests) (Filename.quote responses))
  in
  let answers =
    List.filter_map
      (fun line -> if line = "" then None else Some (Json.parse line))
      (String.split_on_char '\n' (In_channel.with_open_bin responses In_channel.input_all))
  in
  Sys.remove requests;
  Sys.remove responses;
  check_int "daemon exit" 0 code;
  check_int "one answer per request" 2 (List.length answers);
  List.iter
    (fun id ->
      check_true (id ^ " answered bad_request")
        (List.exists
           (fun doc ->
             Json.member "id" doc = Some (Json.String id)
             && Json.member "code" doc = Some (Json.String "bad_request"))
           answers))
    [ "a"; "b" ]

let test_error_response_codes () =
  List.iter
    (fun (code, name) ->
      let resp =
        Protocol.Error_response { err_id = "e"; code; message = "m" }
      in
      let doc = Protocol.response_to_json resp in
      check_true ("code " ^ name)
        (Json.member "code" doc = Some (Json.String name));
      check_true "status error"
        (Json.member "status" doc = Some (Json.String "error")))
    [
      (Protocol.Overloaded, "overloaded");
      (Protocol.Bad_request_code, "bad_request");
      (Protocol.Internal, "internal");
    ]

(* -- the ladder -------------------------------------------------------------- *)

let small_request ?deadline_ms ?(seed = 2020) () =
  {
    Protocol.id = "t";
    bench = "bv";
    qasm = None;
    n = 5;
    topology = "path";
    seed;
    algorithm = "color-dynamic";
    deadline_ms;
    warm_start = false;
    decompose_components = false;
    crosstalk_distance = 1;
  }

let ok_body = function
  | Protocol.Ok_response b -> b
  | Protocol.Error_response { message; _ } -> Alcotest.fail ("error response: " ^ message)

let test_ladder_no_deadline_is_full () =
  Ladder.reset_stale_cache ();
  let b = ok_body (Ladder.compile (small_request ())) in
  check_true "tier full" (b.Protocol.tier = "full");
  check_int "no retries" 0 b.Protocol.retries;
  check_true "single ok attempt"
    (match b.Protocol.attempts with
    | [ a ] -> a.Protocol.a_tier = "full" && a.Protocol.a_outcome = "ok"
    | _ -> false);
  check_true "metrics populated" (b.Protocol.metrics.Fastsc_core.Schedule.n_gates > 0)

(* Sentinel for FASTSC_FAULT=serve-ladder-tier: the fault reports the first
   attempted tier ("full") instead of the producing one ("greedy"). *)
let test_ladder_deadline_zero_degrades_to_greedy () =
  Ladder.reset_stale_cache ();
  let b = ok_body (Ladder.compile (small_request ~deadline_ms:0.0 ~seed:31 ())) in
  check_true "tier greedy" (b.Protocol.tier = "greedy");
  check_true "greedy algorithm reported" (b.Protocol.algorithm = "greedy-spread");
  check_int "three rungs failed first" 3 b.Protocol.retries;
  let trail =
    List.map (fun a -> (a.Protocol.a_tier, a.Protocol.a_outcome)) b.Protocol.attempts
  in
  check_true "full trail recorded"
    (trail
    = [
        ("full", "expired");
        ("decomposed-warm", "expired");
        ("stale", "miss");
        ("greedy", "ok");
      ])

let test_ladder_stale_hit () =
  Ladder.reset_stale_cache ();
  (* prime: an unbudgeted compile stores its witness under the cache key *)
  let warm = ok_body (Ladder.compile (small_request ~seed:47 ())) in
  (* identical problem, zero budget: both SMT rungs expire, the stale rung
     returns the stored witness *)
  let b = ok_body (Ladder.compile (small_request ~deadline_ms:0.0 ~seed:47 ())) in
  check_true "tier stale" (b.Protocol.tier = "stale");
  check_true "same algorithm as the primed witness"
    (b.Protocol.algorithm = warm.Protocol.algorithm);
  check_true "identical metrics" (b.Protocol.metrics = warm.Protocol.metrics);
  let hits, _misses, entries = Ladder.stale_cache_stats () in
  check_true "cache hit counted" (hits >= 1 && entries >= 1)

let test_ladder_stale_hit_by_alias () =
  Ladder.reset_stale_cache ();
  (* a witness stored under the canonical name answers a request that names
     the scheduler by its alias *)
  let warm = ok_body (Ladder.compile (small_request ~seed:59 ())) in
  let alias = { (small_request ~deadline_ms:0.0 ~seed:59 ()) with Protocol.algorithm = "cd" } in
  let b = ok_body (Ladder.compile alias) in
  check_true "tier stale" (b.Protocol.tier = "stale");
  check_true "canonical algorithm" (b.Protocol.algorithm = "color-dynamic");
  check_true "the primed metrics" (b.Protocol.metrics = warm.Protocol.metrics)

let test_ladder_unknown_algorithm () =
  let req = { (small_request ()) with Protocol.algorithm = "no-such-scheduler" } in
  check_true "unknown algorithm raises Bad_request"
    (match Ladder.compile req with
    | _ -> false
    | exception Protocol.Bad_request msg -> contains msg "no-such-scheduler")

let test_scrub_zeroes_latency () =
  Ladder.reset_stale_cache ();
  let resp = Ladder.compile (small_request ~deadline_ms:0.0 ~seed:53 ()) in
  let doc = Protocol.response_to_json ~scrub:true resp in
  check_true "latency scrubbed"
    (Json.member "latency_ms" doc = Some (Json.Float 0.0));
  (match Json.member "attempts" doc with
  | Some (Json.List attempts) ->
    List.iter
      (fun a ->
        check_true "attempt ms scrubbed" (Json.member "ms" a = Some (Json.Float 0.0)))
      attempts
  | _ -> Alcotest.fail "attempts missing from response");
  (* scrubbed responses for the same request are byte-identical *)
  Ladder.reset_stale_cache ();
  let again = Ladder.compile (small_request ~deadline_ms:0.0 ~seed:53 ()) in
  check_true "scrubbed responses deterministic"
    (Protocol.response_line ~scrub:true resp = Protocol.response_line ~scrub:true again)

(* -- telemetry --------------------------------------------------------------- *)

let test_telemetry_format_line () =
  check_true "no solves yet shows a dash"
    (Telemetry.format_line ~served:0 ~errors:0 ~cache_hits:0 ~cache_misses:0
       ~tiers:[]
    = "stats: 0 served | solver cache -");
  check_true "hit rate and error suffix"
    (Telemetry.format_line ~served:10 ~errors:2 ~cache_hits:3 ~cache_misses:1
       ~tiers:[]
    = "stats: 10 served (2 errors) | solver cache 75% hit (3/4)");
  (* single-sample buckets pin p50 = p95 = the sample, independent of the
     percentile interpolation rule; tier order is preserved as given *)
  check_true "per-tier percentiles in order"
    (Telemetry.format_line ~served:3 ~errors:0 ~cache_hits:1 ~cache_misses:1
       ~tiers:[ ("full", [ 4.0 ]); ("greedy", [ 1.5; 1.5 ]) ]
    = "stats: 3 served | solver cache 50% hit (1/2) \
       | full n=1 p50 4.0ms p95 4.0ms | greedy n=2 p50 1.5ms p95 1.5ms")

let test_telemetry_recorder () =
  let t = Telemetry.create () in
  let body = ok_body (Ladder.compile (small_request ())) in
  Telemetry.record t
    (Protocol.Ok_response { body with Protocol.tier = "greedy"; latency_ms = 1.0 });
  Telemetry.record t
    (Protocol.Ok_response { body with Protocol.tier = "full"; latency_ms = 2.0 });
  Telemetry.record t
    (Protocol.Error_response
       { err_id = "e"; code = Protocol.Internal; message = "boom" });
  let line = Telemetry.line t in
  check_true "served count" (contains line "stats: 3 served");
  check_true "error count" (contains line "(1 errors)");
  check_true "solver cache section present" (contains line "| solver cache");
  check_true "full bucket" (contains line "| full n=1 p50 2.0ms p95 2.0ms");
  check_true "greedy bucket" (contains line "| greedy n=1 p50 1.0ms p95 1.0ms");
  (* ladder order: full is reported before greedy even though greedy was
     recorded first *)
  let idx sub =
    let rec go i =
      if i + String.length sub > String.length line then -1
      else if String.sub line i (String.length sub) = sub then i
      else go (i + 1)
    in
    go 0
  in
  check_true "ladder order" (idx "| full" < idx "| greedy")

(* Each line reports the samples recorded since the previous one; the
   served count stays cumulative, so a long-lived daemon keeps one window. *)
let test_telemetry_window () =
  let t = Telemetry.create () in
  let body = ok_body (Ladder.compile (small_request ())) in
  let record () =
    Telemetry.record t
      (Protocol.Ok_response { body with Protocol.tier = "full"; latency_ms = 2.0 })
  in
  List.iter record [ (); (); () ];
  check_true "first window" (contains (Telemetry.line t) "| full n=3 ");
  List.iter record [ (); () ];
  let second = Telemetry.line t in
  check_true "served stays cumulative" (contains second "stats: 5 served");
  check_true "second window holds only its own samples" (contains second "| full n=2 ");
  check_true "an empty window lists no tier" (not (contains (Telemetry.line t) "| full"))

let suite =
  [
    Alcotest.test_case "request defaults" `Quick test_request_defaults;
    Alcotest.test_case "request fields" `Quick test_request_fields;
    Alcotest.test_case "request rejections" `Quick test_request_rejections;
    Alcotest.test_case "cache key identity" `Quick test_cache_key_identity;
    Alcotest.test_case "realize maps errors to Bad_request" `Quick
      test_realize_qasm_error_is_bad_request;
    Alcotest.test_case "daemon: a bad size is a bad request" `Quick
      test_daemon_bad_size_is_bad_request;
    Alcotest.test_case "error response codes" `Quick test_error_response_codes;
    Alcotest.test_case "ladder: no deadline is full tier" `Quick
      test_ladder_no_deadline_is_full;
    Alcotest.test_case "ladder: zero budget degrades to greedy" `Quick
      test_ladder_deadline_zero_degrades_to_greedy;
    Alcotest.test_case "ladder: stale hit" `Quick test_ladder_stale_hit;
    Alcotest.test_case "ladder: stale hit by alias" `Quick test_ladder_stale_hit_by_alias;
    Alcotest.test_case "ladder: unknown algorithm" `Quick test_ladder_unknown_algorithm;
    Alcotest.test_case "scrub zeroes latency" `Quick test_scrub_zeroes_latency;
    Alcotest.test_case "telemetry: pure formatter" `Quick test_telemetry_format_line;
    Alcotest.test_case "telemetry: recorder round-trip" `Quick
      test_telemetry_recorder;
    Alcotest.test_case "telemetry: each line reports its own window" `Quick
      test_telemetry_window;
  ]
