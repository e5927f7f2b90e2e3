type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let create seed = { state = Int64.of_int seed }

let copy t = { state = t.state }

(* splitmix64: Steele, Lea & Flood, "Fast splittable pseudorandom number
   generators" (OOPSLA 2014).  Tiny state, excellent statistical quality for
   simulation purposes, and trivially reproducible across platforms. *)
let int64 t =
  let z = Int64.add t.state golden_gamma in
  t.state <- z;
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

(* Seeded fault for the verification harness (DESIGN.md §11). *)
let fault_split_alias = Fault.enabled "rng-split-alias"

let split t =
  if fault_split_alias then { state = t.state }
  else begin
    let seed = int64 t in
    { state = seed }
  end

let split_n t n =
  if n < 0 then invalid_arg "Rng.split_n: negative count";
  (* Explicit loop: Array.init's evaluation order is unspecified, and the
     children must be drawn from the parent stream in index order. *)
  let out = Array.init n (fun _ -> { state = 0L }) in
  for i = 0 to n - 1 do
    out.(i) <- split t
  done;
  out

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Rejection sampling to avoid modulo bias. *)
  let bound64 = Int64.of_int bound in
  let rec draw () =
    let raw = Int64.shift_right_logical (int64 t) 1 in
    let value = Int64.rem raw bound64 in
    if Int64.sub (Int64.sub raw value) (Int64.sub Int64.max_int bound64) > 0L
    then draw ()
    else Int64.to_int value
  in
  draw ()

let float t =
  (* 53 random mantissa bits scaled into [0,1). *)
  let bits = Int64.shift_right_logical (int64 t) 11 in
  Int64.to_float bits *. (1.0 /. 9007199254740992.0)

let uniform t lo hi = lo +. ((hi -. lo) *. float t)

let bool t = Int64.logand (int64 t) 1L = 1L

let gaussian ?(mean = 0.0) ?(std = 1.0) t =
  let rec nonzero () =
    let u = float t in
    if u > 0.0 then u else nonzero ()
  in
  let u1 = nonzero () and u2 = float t in
  let radius = sqrt (-2.0 *. log u1) in
  mean +. (std *. radius *. cos (2.0 *. Float.pi *. u2))

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

let choose t arr =
  if Array.length arr = 0 then invalid_arg "Rng.choose: empty array";
  arr.(int t (Array.length arr))

let sample t k xs =
  let n = List.length xs in
  if k >= n then xs
  else begin
    let reservoir = Array.make k (List.hd xs) in
    List.iteri
      (fun i x ->
        if i < k then reservoir.(i) <- x
        else
          let j = int t (i + 1) in
          if j < k then reservoir.(j) <- x)
      xs;
    Array.to_list reservoir
  end
