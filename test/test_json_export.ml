open Helpers
open Fastsc_device
open Fastsc_core

(* A tiny structural validator: balanced braces/brackets outside strings,
   and no trailing garbage — enough to catch emitter bugs. *)
let well_formed text =
  let depth = ref 0 and in_string = ref false and escaped = ref false and ok = ref true in
  String.iter
    (fun c ->
      if !in_string then begin
        if !escaped then escaped := false
        else if c = '\\' then escaped := true
        else if c = '"' then in_string := false
      end
      else
        match c with
        | '"' -> in_string := true
        | '{' | '[' -> incr depth
        | '}' | ']' ->
          decr depth;
          if !depth < 0 then ok := false
        | _ -> ())
    text;
  !ok && !depth = 0 && not !in_string

let test_json_scalars () =
  check_true "null" (Json.to_string Json.Null = "null");
  check_true "bool" (Json.to_string (Json.Bool true) = "true");
  check_true "int" (Json.to_string (Json.Int (-3)) = "-3");
  check_true "float has dot" (contains (Json.to_string (Json.Float 2.0)) "2.0");
  check_true "nan encoded as string" (contains (Json.to_string (Json.Float Float.nan)) "\"")

let test_json_escaping () =
  check_true "quote" (Json.escape "a\"b" = "\"a\\\"b\"");
  check_true "backslash" (Json.escape "a\\b" = "\"a\\\\b\"");
  check_true "newline" (Json.escape "a\nb" = "\"a\\nb\"");
  check_true "control" (Json.escape "\x01" = "\"\\u0001\"")

let test_json_compound () =
  let v = Json.Obj [ ("xs", Json.List [ Json.Int 1; Json.Int 2 ]); ("b", Json.Bool false) ] in
  let compact = Json.to_string ~pretty:false v in
  check_true "compact" (compact = "{\"xs\":[1,2],\"b\":false}");
  check_true "pretty well formed" (well_formed (Json.to_string v));
  check_true "empty containers" (Json.to_string (Json.List []) = "[]" && Json.to_string (Json.Obj []) = "{}")

(* -- the reader half: parse is the inverse of to_string --------------------- *)

let test_parse_round_trip () =
  let v =
    Json.Obj
      [
        ("null", Json.Null);
        ("flag", Json.Bool true);
        ("count", Json.Int (-7));
        ("ratio", Json.Float 0.125);
        ("label", Json.String "a\"b\\c\nd");
        ("xs", Json.List [ Json.Int 1; Json.Float 2.5; Json.String "x" ]);
        ("nested", Json.Obj [ ("empty_list", Json.List []); ("empty_obj", Json.Obj []) ]);
      ]
  in
  check_true "pretty round-trips" (Json.parse (Json.to_string v) = v);
  check_true "compact round-trips" (Json.parse (Json.to_string ~pretty:false v) = v);
  (* the emitter prints floats with a dot or exponent precisely so the
     reader can keep Int and Float apart *)
  check_true "2.0 stays a float" (Json.parse (Json.to_string (Json.Float 2.0)) = Json.Float 2.0);
  check_true "2 stays an int" (Json.parse "2" = Json.Int 2)

let test_parse_escapes () =
  check_true "escape sequences decode"
    (Json.parse {|"a\"b\\c\nd\teA"|} = Json.String "a\"b\\c\nd\teA");
  check_true "whitespace tolerated"
    (Json.parse " {\n \"a\" : [ 1 , 2 ] \n} " = Json.Obj [ ("a", Json.List [ Json.Int 1; Json.Int 2 ]) ]);
  check_true "exponent forms" (Json.parse "1e3" = Json.Float 1000.0)

let test_parse_rejects_garbage () =
  let rejects text =
    match Json.parse text with
    | exception Json.Parse_error _ -> true
    | _ -> false
  in
  check_true "empty input" (rejects "");
  check_true "trailing garbage" (rejects "{} x");
  check_true "unterminated string" (rejects "\"abc");
  check_true "unbalanced brace" (rejects "{\"a\": 1");
  check_true "bare word" (rejects "frobnicate");
  check_true "missing comma" (rejects "[1 2]")

let test_parse_depth_limit () =
  (* adversarial nesting must fail with a clear parse error, not a stack
     overflow: the serve daemon parses attacker-controlled request lines *)
  let deep k = String.make k '[' ^ "0" ^ String.make k ']' in
  check_true "nesting at the limit parses"
    (match Json.parse (deep Json.max_depth) with
    | _ -> true
    | exception Json.Parse_error _ -> false);
  (match Json.parse (deep (Json.max_depth + 1)) with
  | _ -> Alcotest.fail "over-deep input parsed"
  | exception Json.Parse_error msg ->
    check_true "error names the nesting limit" (contains msg "nesting"));
  (* objects count against the same limit *)
  let deep_obj k =
    String.concat "" (List.init k (fun _ -> "{\"a\":"))
    ^ "0"
    ^ String.make k '}'
  in
  check_true "deep objects also rejected"
    (match Json.parse (deep_obj (Json.max_depth + 1)) with
    | _ -> false
    | exception Json.Parse_error _ -> true)

let test_member () =
  let v = Json.Obj [ ("a", Json.Int 1); ("b", Json.Null) ] in
  check_true "present" (Json.member "a" v = Some (Json.Int 1));
  check_true "explicit null is present" (Json.member "b" v = Some Json.Null);
  check_true "absent" (Json.member "c" v = None);
  check_true "non-object" (Json.member "a" (Json.Int 3) = None)

let schedule () =
  let device = Device.create ~seed:8 (Topology.grid 2 2) in
  let circuit = Circuit.of_gates 4 [ (Gate.H, [ 0 ]); (Gate.Iswap, [ 0; 1 ]); (Gate.Cz, [ 2; 3 ]) ] in
  Compile.schedule_native Pass.default_options Compile.Color_dynamic device circuit

let test_schedule_export () =
  let text = Export.to_string (Export.schedule (schedule ())) in
  check_true "well formed" (well_formed text);
  check_true "algorithm recorded" (contains text "color-dynamic");
  check_true "steps present" (contains text "\"steps\"");
  check_true "interacting pairs" (contains text "\"interacting\"");
  check_true "gate names" (contains text "\"iswap\"")

let test_metrics_export () =
  let m = Schedule.evaluate (schedule ()) in
  let text = Export.to_string (Export.metrics m) in
  check_true "well formed" (well_formed text);
  check_true "has success" (contains text "\"success\"");
  check_true "has depth" (contains text "\"depth\"")

let test_bundle_export () =
  let text = Export.to_string (Export.bundle (schedule ())) in
  check_true "well formed" (well_formed text);
  check_true "has schedule" (contains text "\"schedule\"");
  check_true "has metrics" (contains text "\"metrics\"");
  check_true "has waveforms" (contains text "\"waveforms\"");
  check_true "ramp segments appear" (contains text "\"ramp_from\"");
  let without = Export.to_string (Export.bundle ~include_waveforms:false (schedule ())) in
  check_true "waveforms omitted" (not (contains without "\"waveforms\""))

let prop_escape_roundtrip_safe =
  prop_case "escape always yields well-formed strings" QCheck.(string_of_size (Gen.int_range 0 40))
    (fun s -> well_formed (Json.escape s))

let suite =
  [
    Alcotest.test_case "scalars" `Quick test_json_scalars;
    Alcotest.test_case "escaping" `Quick test_json_escaping;
    Alcotest.test_case "compound" `Quick test_json_compound;
    Alcotest.test_case "parse round trip" `Quick test_parse_round_trip;
    Alcotest.test_case "parse escapes" `Quick test_parse_escapes;
    Alcotest.test_case "parse rejects garbage" `Quick test_parse_rejects_garbage;
    Alcotest.test_case "parse depth limit" `Quick test_parse_depth_limit;
    Alcotest.test_case "member" `Quick test_member;
    Alcotest.test_case "schedule export" `Quick test_schedule_export;
    Alcotest.test_case "metrics export" `Quick test_metrics_export;
    Alcotest.test_case "bundle export" `Quick test_bundle_export;
    prop_escape_roundtrip_safe;
  ]
