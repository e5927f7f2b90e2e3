(* The host-speed canary: a fixed kernel of plain OCaml that calls nothing
   in fastsc.  Its time says how fast the host runs at the moment it is
   sampled, so a run can scale its timings to a reference host speed, and
   flag a run that straddles a change of host speed.

   The kernel does the kind of work the compiler does — allocation and
   minor collections, pointer-chasing through a balanced tree, a sort, a
   hash table — because on the 2-core x86-64 VM the benchmark was tuned on
   the slow phases hit that work, and not a kernel that stays in the
   first-level cache.  It runs in a helper process (this executable with
   [--canary-helper]), so its heap and memory are not the benchmark's, and
   each sample runs it once untimed first, so that its time does not depend
   on what ran before it. *)

module Int_map = Map.Make (Int)

(* The same 4,000 insertions, sort and table every time. *)
let kernel () =
  let x = ref 0x2545F491 in
  let m = ref Int_map.empty in
  for i = 1 to 4000 do
    x := ((!x * 1103515245) + 12345) land 0x3FFFFFFF;
    m := Int_map.add !x i !m
  done;
  let sorted = List.sort compare (Int_map.fold (fun k v acc -> (k lxor v) :: acc) !m []) in
  let table = Hashtbl.create 16 in
  List.iter (fun k -> Hashtbl.replace table (k land 4095) k) sorted;
  Hashtbl.length table

let sink = ref 0

let cpu () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* CPU seconds one run of the kernel takes now, after an untimed run.  CPU
   time, like the closed loops' op times, leaves out the moments the
   hypervisor takes the core away. *)
let sample () =
  sink := !sink lxor kernel ();
  let t0 = cpu () in
  sink := !sink lxor kernel ();
  cpu () -. t0

(* The helper's loop: one sample per byte read from stdin, its time written
   back as a line of nine digits of microseconds (getrusage's resolution);
   exits at end of input.  A line of fixed width makes reading it allocate
   the same every time, so the benchmark's GC counts repeat exactly. *)
let serve_helper () =
  let rec loop () =
    match In_channel.input_char stdin with
    | None -> ()
    | Some _ ->
      Printf.printf "%09d\n%!" (Float.to_int (Float.round (sample () *. 1e6)));
      loop ()
  in
  loop ()

(* The helper process, started on first use and stopped at exit. *)
let helper =
  lazy
    (let exe = Sys.executable_name in
     let ic, oc = Unix.open_process_args exe [| exe; "--canary-helper" |] in
     at_exit (fun () -> ignore (Unix.close_process (ic, oc)));
     (ic, oc))

let ask () =
  let ic, oc = Lazy.force helper in
  output_char oc 's';
  flush oc;
  match In_channel.input_line ic with
  | Some line -> float_of_int (int_of_string line) /. 1e6
  | None -> failwith "the canary helper exited"

let now = Fastsc_util.Deadline.now_s

(* The kernel's CPU time on the reference host: the 2-core x86-64 VM the
   benchmark was tuned on, in its slower phase.  Timings are reported as
   they would read there. *)
let reference_s = 0.0025

(* The samples of one run, newest first: when each was taken and its CPU
   seconds. *)
type t = { mutable samples : (float * float) list }

let create () = { samples = [] }

let take t =
  let at = now () in
  t.samples <- (at, ask ()) :: t.samples

let count t = List.length t.samples

(* Samples until there are at least [k]: tops up a phase that sampled only
   when it could. *)
let top_up t k =
  for _ = count t + 1 to k do
    take t
  done

let in_order t =
  match t.samples with
  | [] -> invalid_arg "Canary: no samples"
  | samples -> Array.of_list (List.rev samples)

let median_time a = Measure.median_of (Array.to_list (Array.map snd a))

(* How much faster than the reference host this host ran over the whole
   run, from the median of its samples: measured seconds times this factor
   are reference seconds. *)
let speed_factor t = reference_s /. median_time (in_order t)

(* Samples around a moment whose median gives its local speed factor. *)
let window = 25

(* The speed factor at each of [times], from the median of the [window]
   samples taken nearest to it, so that a change of host speed within a
   run scales only the ops it slowed. *)
let local_factors t times =
  let a = in_order t in
  let n = Array.length a in
  let k = min window n in
  Array.map
    (fun x ->
      (* the first sample taken at or after [x] *)
      let rec first lo hi =
        if lo >= hi then lo
        else
          let mid = (lo + hi) / 2 in
          if fst a.(mid) < x then first (mid + 1) hi else first lo mid
      in
      let lo = max 0 (min (first 0 n - (k / 2)) (n - k)) in
      reference_s /. median_time (Array.sub a lo k))
    times

(* The change of host speed across the run: the median of the last fifth of
   its samples over the median of the first fifth, minus 1.  Positive when
   the host slowed down. *)
let drift t =
  let a = in_order t in
  let n = Array.length a in
  let k = max 1 (n / 5) in
  (median_time (Array.sub a (n - k) k) /. median_time (Array.sub a 0 k)) -. 1.0
