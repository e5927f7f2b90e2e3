(* Bounded retry with exponential backoff and deterministic jitter.

   Snapshot IO uses this (a concurrent reader, a filesystem hiccup) — places
   where one transient failure should not lose a warm cache.  Jitter is
   derived from the attempt number with a splitmix hash rather than a random
   draw, so a retried test run replays the exact same schedule. *)

let attempts = 3

let base_ms = 10.0

let factor = 2.0

let max_ms = 1000.0

let jitter = 0.25

let splitmix x =
  let open Int64 in
  let z = add x 0x9E3779B97F4A7C15L in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

(* in [0, 1), deterministic per attempt *)
let unit_float attempt =
  let bits = Int64.shift_right_logical (splitmix (Int64.of_int attempt)) 11 in
  Int64.to_float bits /. 9007199254740992.0 (* 2^53 *)

let backoff_ms attempt =
  let raw = base_ms *. (factor ** float_of_int attempt) in
  let capped = Float.min raw max_ms in
  (* jittered multiplicatively into [1-j, 1+j] *)
  let scale = 1.0 +. (jitter *. ((2.0 *. unit_float attempt) -. 1.0)) in
  Float.max 0.0 (capped *. scale)

let with_backoff ?(sleep = fun ms -> Unix.sleepf (ms /. 1000.0)) f =
  let rec go attempt =
    match f attempt with
    | v -> v
    | exception exn ->
      let bt = Printexc.get_raw_backtrace () in
      if attempt + 1 >= attempts then Printexc.raise_with_backtrace exn bt
      else begin
        sleep (backoff_ms attempt);
        go (attempt + 1)
      end
  in
  go 0
