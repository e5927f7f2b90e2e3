(* In-memory span recorder for the traced run.  Spans are recorded by the
   benchmark around its own calls into each layer (nothing inside the
   library is instrumented), kept in memory, and written out when the run
   ends: as Chrome trace-event JSON, and as a table of self time by layer. *)

type span = {
  id : int;
  name : string;
  op : int;  (** The op the span belongs to; [-1] for set-up. *)
  parent : int;  (** Enclosing span's id, [-1] at the root. *)
  start : float;  (** Monotonic seconds. *)
  mutable stop : float;
  mutable label : string;  (** What the op ran (root spans only). *)
  mutable args : (string * float) list;  (** The op's counter deltas (root spans only). *)
}

type t = { mutable spans : span array; mutable count : int; mutable stack : int list; mutable op : int }

let create () = { spans = [||]; count = 0; stack = []; op = -1 }

let now = Fastsc_util.Deadline.now_s

let push t s =
  if t.count = Array.length t.spans then begin
    let grown = Array.make (max 1024 (2 * t.count)) s in
    Array.blit t.spans 0 grown 0 t.count;
    t.spans <- grown
  end;
  t.spans.(t.count) <- s;
  t.count <- t.count + 1

(* Record [f ()] as span [name] under the innermost open span.  With no
   recorder this is a plain call: the untraced run pays one match. *)
let span t name f =
  match t with
  | None -> f ()
  | Some t ->
    let parent = match t.stack with p :: _ -> p | [] -> -1 in
    let s = { id = t.count; name; op = t.op; parent; start = now (); stop = nan; label = ""; args = [] } in
    push t s;
    t.stack <- s.id :: t.stack;
    Fun.protect
      ~finally:(fun () ->
        s.stop <- now ();
        t.stack <- List.tl t.stack)
      f

(* Root span of op [op]; returns the result and the span, so the caller can
   attach the op's counter deltas to it. *)
let op_span t ?(label = "") op f =
  match t with
  | None -> (f (), None)
  | Some r ->
    r.op <- op;
    let before = r.count in
    let v = span t "op" f in
    r.op <- -1;
    let root = r.spans.(before) in
    root.label <- label;
    (v, Some root)

let spans t = Array.sub t.spans 0 t.count

let duration s = s.stop -. s.start

(* Self time: a span's duration minus the time its direct children cover
   (children run one after another on the tracing domain, so their
   durations add). *)
let self_times t =
  let self = Array.init t.count (fun i -> duration t.spans.(i)) in
  for i = 0 to t.count - 1 do
    let s = t.spans.(i) in
    if s.parent >= 0 then self.(s.parent) <- self.(s.parent) -. duration s
  done;
  self

type layer_row = { layer : string; calls : int; self_s : float }

(* Self time of the timed ops' spans (set-up excluded) summed by span name,
   largest first. *)
let by_layer t =
  let self = self_times t in
  let table = Hashtbl.create 32 in
  for i = 0 to t.count - 1 do
    let s = t.spans.(i) in
    if s.op >= 0 then begin
      let calls, total = Option.value ~default:(0, 0.0) (Hashtbl.find_opt table s.name) in
      Hashtbl.replace table s.name (calls + 1, total +. self.(i))
    end
  done;
  Hashtbl.fold (fun layer (calls, self_s) acc -> { layer; calls; self_s } :: acc) table []
  |> List.sort (fun a b -> Float.compare b.self_s a.self_s)

let ops_total_s t =
  let total = ref 0.0 in
  for i = 0 to t.count - 1 do
    let s = t.spans.(i) in
    if s.name = "op" && s.op >= 0 then total := !total +. duration s
  done;
  !total

(* Mean self time per call of span [name] (set-up spans included), seconds;
   0 when the workload never made the call. *)
let mean_self t name =
  let self = self_times t in
  let calls = ref 0 and total = ref 0.0 in
  for i = 0 to t.count - 1 do
    if t.spans.(i).name = name then begin
      incr calls;
      total := !total +. self.(i)
    end
  done;
  if !calls = 0 then 0.0 else !total /. float_of_int !calls

(* Self time of span [name] over the timed ops' total time. *)
let share t name =
  let total = ops_total_s t in
  if total <= 0.0 then 0.0
  else
    List.fold_left (fun acc r -> if r.layer = name then acc +. r.self_s else acc) 0.0 (by_layer t)
    /. total

let print_table ~workload t =
  let total = ops_total_s t in
  Printf.printf "where the time goes: %s (self time of the traced ops, %.3f s)\n" workload total;
  Printf.printf "  %-30s %8s %12s %8s\n" "layer" "calls" "self ms" "share";
  List.iter
    (fun r ->
      Printf.printf "  %-30s %8d %12.3f %7.2f%%\n" r.layer r.calls (r.self_s *. 1000.0)
        (if total > 0.0 then 100.0 *. r.self_s /. total else 0.0))
    (by_layer t)

(* Chrome trace-event JSON (complete events, microseconds, one thread). *)
let write_chrome t path =
  let base = if t.count = 0 then 0.0 else t.spans.(0).start in
  let event s =
    Json.Obj
      [
        ("name", Json.String (if s.label = "" then s.name else s.name ^ " " ^ s.label));
        ("ph", Json.String "X");
        ("ts", Json.Float ((s.start -. base) *. 1e6));
        ("dur", Json.Float (duration s *. 1e6));
        ("pid", Json.Int 1);
        ("tid", Json.Int 1);
        ( "args",
          Json.Obj
            ([ ("op", Json.Int s.op); ("id", Json.Int s.id); ("parent", Json.Int s.parent) ]
            @ List.map (fun (k, v) -> (k, Json.Float v)) s.args) );
      ]
  in
  let doc = Json.Obj [ ("traceEvents", Json.List (List.map event (Array.to_list (spans t)))) ] in
  Out_channel.with_open_text path (fun oc -> output_string oc (Json.to_string ~pretty:false doc))
