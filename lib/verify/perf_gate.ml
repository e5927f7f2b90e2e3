type field_class =
  | Ignored
  | Exact
  | Timing of { higher_better : bool; noise_floor : float }

let tokens key = String.split_on_char '_' key

let contains_sub ~sub s =
  let n = String.length sub and m = String.length s in
  let rec at i = i + n <= m && (String.sub s i n = sub || at (i + 1)) in
  at 0

(* Classification is by key name alone, so the gate needs no schema knowledge
   of individual experiments: benchmark JSON in this repo spells wall-clock
   fields with an explicit unit token (ms_jobs1, warm_ms, ns_per_gate_flat,
   seconds, trials_per_sec) and everything else it emits — counters, deltas,
   fidelities, labels — is deterministic at any FASTSC_JOBS and must match the
   baseline exactly. *)
let classify key =
  if key = "jobs" then Ignored
  else if contains_sub ~sub:"speedup" key then
    (* single-core CI makes parallel-speedup ratios pure scheduling noise *)
    Ignored
  else if contains_sub ~sub:"per_sec" key then
    Timing { higher_better = true; noise_floor = 0.0 }
  else begin
    let toks = tokens key in
    if List.mem "ns" toks then Timing { higher_better = false; noise_floor = 20.0 }
    else if List.mem "ms" toks then Timing { higher_better = false; noise_floor = 2.0 }
    else if List.mem "wall" toks || List.mem "seconds" toks || List.mem "secs" toks then
      Timing { higher_better = false; noise_floor = 0.01 }
    else Exact
  end

type comparison = {
  path : string;
  higher_better : bool;
  baseline : float;
  fresh : float;
  ratio : float;  (** Regression ratio: 1.0 is parity, above 1.0 is slower. *)
}

type result = {
  timings : comparison list;
  exact_checked : int;
  exact_mismatches : string list;
  structural_errors : string list;
  ignored : int;
}

let empty =
  { timings = []; exact_checked = 0; exact_mismatches = []; structural_errors = []; ignored = 0 }

let number = function
  | Json.Int i -> Some (float_of_int i)
  | Json.Float f -> Some f
  | _ -> None

let json_brief = function
  | Json.Null -> "null"
  | Json.Bool b -> string_of_bool b
  | Json.Int i -> string_of_int i
  | Json.Float f -> Printf.sprintf "%g" f
  | Json.String s -> Printf.sprintf "%S" s
  | Json.List l -> Printf.sprintf "<array of %d>" (List.length l)
  | Json.Obj o -> Printf.sprintf "<object of %d>" (List.length o)

let compare_timing ~path ~higher_better ~noise_floor ~baseline ~fresh acc =
  if baseline = 0.0 then
    (* scrubbed-field convention: a zeroed baseline field only gates a doc
       scrubbed the same way, so the comparison degrades to exactness *)
    let acc = { acc with exact_checked = acc.exact_checked + 1 } in
    if fresh = 0.0 then acc
    else
      {
        acc with
        exact_mismatches =
          Printf.sprintf "%s: baseline scrubbed (0) but fresh is %g" path fresh
          :: acc.exact_mismatches;
      }
  else begin
    let ratio =
      if Float.abs (fresh -. baseline) <= noise_floor then 1.0
      else if higher_better then baseline /. fresh
      else fresh /. baseline
    in
    { acc with timings = { path; higher_better; baseline; fresh; ratio } :: acc.timings }
  end

let rec compare_values ~path ~key acc (baseline : Json.t) (fresh : Json.t) =
  match (baseline, fresh) with
  | (Json.Int _ | Json.Float _), (Json.Int _ | Json.Float _) -> (
    let b = Option.get (number baseline) and f = Option.get (number fresh) in
    match classify key with
    | Ignored -> { acc with ignored = acc.ignored + 1 }
    | Timing { higher_better; noise_floor } ->
      compare_timing ~path ~higher_better ~noise_floor ~baseline:b ~fresh:f acc
    | Exact ->
      let acc = { acc with exact_checked = acc.exact_checked + 1 } in
      if b = f then acc
      else
        {
          acc with
          exact_mismatches =
            Printf.sprintf "%s: baseline %s, fresh %s" path (json_brief baseline)
              (json_brief fresh)
            :: acc.exact_mismatches;
        })
  | Json.Obj bs, Json.Obj fs ->
    let missing =
      List.filter_map
        (fun (k, _) -> if List.mem_assoc k fs then None else Some (k, "missing from fresh"))
        bs
    and extra =
      List.filter_map
        (fun (k, _) -> if List.mem_assoc k bs then None else Some (k, "not in baseline"))
        fs
    in
    let acc =
      List.fold_left
        (fun acc (k, why) ->
          {
            acc with
            structural_errors = Printf.sprintf "%s.%s: %s" path k why :: acc.structural_errors;
          })
        acc (missing @ extra)
    in
    List.fold_left
      (fun acc (k, bv) ->
        match List.assoc_opt k fs with
        | None -> acc
        | Some fv -> compare_values ~path:(path ^ "." ^ k) ~key:k acc bv fv)
      acc bs
  | Json.List bs, Json.List fs ->
    if List.length bs <> List.length fs then
      {
        acc with
        structural_errors =
          Printf.sprintf "%s: baseline has %d elements, fresh has %d" path (List.length bs)
            (List.length fs)
          :: acc.structural_errors;
      }
    else
      List.fold_left
        (fun (i, acc) (bv, fv) ->
          ( i + 1,
            compare_values ~path:(Printf.sprintf "%s[%d]" path i) ~key acc bv fv ))
        (0, acc) (List.combine bs fs)
      |> snd
  | (Json.String _ | Json.Bool _ | Json.Null), _ when baseline = fresh -> acc
  | _ ->
    {
      acc with
      structural_errors =
        Printf.sprintf "%s: baseline %s, fresh %s" path (json_brief baseline) (json_brief fresh)
        :: acc.structural_errors;
    }

let compare_docs ~baseline ~fresh =
  let acc = compare_values ~path:"$" ~key:"" empty baseline fresh in
  {
    acc with
    timings = List.rev acc.timings;
    exact_mismatches = List.rev acc.exact_mismatches;
    structural_errors = List.rev acc.structural_errors;
  }

let median_regression r =
  match r.timings with
  | [] -> 1.0
  | ts ->
    let ratios = List.sort compare (List.map (fun c -> c.ratio) ts) in
    let n = List.length ratios in
    if n mod 2 = 1 then List.nth ratios (n / 2)
    else (List.nth ratios ((n / 2) - 1) +. List.nth ratios (n / 2)) /. 2.0

let default_tolerance = 0.25

type verdict = Ok | Regression of string | Structural of string list

let evaluate ?(tolerance = default_tolerance) r =
  if r.structural_errors <> [] then Structural r.structural_errors
  else if r.exact_mismatches <> [] then
    Regression
      (Printf.sprintf "%d deterministic field(s) drifted: %s"
         (List.length r.exact_mismatches)
         (String.concat "; " r.exact_mismatches))
  else begin
    let median = median_regression r in
    if median > 1.0 +. tolerance then
      Regression
        (Printf.sprintf "median timing regression %.1f%% exceeds tolerance %.0f%%"
           ((median -. 1.0) *. 100.0) (tolerance *. 100.0))
    else Ok
  end

let passes ?tolerance r = match evaluate ?tolerance r with Ok -> true | _ -> false

let render ?(tolerance = default_tolerance) ~label r =
  let buf = Buffer.create 512 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "perf gate [%s]: %d timing field(s), %d exact field(s) checked, %d ignored\n" label
    (List.length r.timings) r.exact_checked r.ignored;
  List.iter (fun e -> add "  structural: %s\n" e) r.structural_errors;
  List.iter (fun e -> add "  drift: %s\n" e) r.exact_mismatches;
  let worst =
    List.sort (fun a b -> compare b.ratio a.ratio) r.timings |> fun l ->
    List.filteri (fun i _ -> i < 5) l
  in
  List.iter
    (fun c ->
      add "  %-8s %s: baseline %g, fresh %g (%+.1f%%)\n"
        (if c.ratio > 1.0 +. tolerance then "SLOW" else "ok")
        c.path c.baseline c.fresh
        ((c.ratio -. 1.0) *. 100.0))
    worst;
  (match evaluate ~tolerance r with
  | Ok ->
    add "  PASS: median timing regression %+.1f%% within %.0f%% tolerance\n"
      ((median_regression r -. 1.0) *. 100.0)
      (tolerance *. 100.0)
  | Regression why -> add "  FAIL: %s\n" why
  | Structural errs -> add "  FAIL: %d structural mismatch(es) — not comparable\n" (List.length errs));
  Buffer.contents buf
