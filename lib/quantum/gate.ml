type t =
  | I
  | X
  | Y
  | Z
  | H
  | S
  | Sdg
  | T
  | Tdg
  | Sx
  | Sy
  | Sw
  | Rx of float
  | Ry of float
  | Rz of float
  | Cz
  | Iswap
  | Sqrt_iswap
  | Xy of float
  | Cnot
  | Swap

type application = { id : int; gate : t; qubits : int array }

let arity = function
  | I | X | Y | Z | H | S | Sdg | T | Tdg | Sx | Sy | Sw | Rx _ | Ry _ | Rz _ -> 1
  | Cz | Iswap | Sqrt_iswap | Xy _ | Cnot | Swap -> 2

let is_two_qubit g = arity g = 2

let is_native = function Cnot | Swap -> false | _ -> true

let name = function
  | I -> "i"
  | X -> "x"
  | Y -> "y"
  | Z -> "z"
  | H -> "h"
  | S -> "s"
  | Sdg -> "sdg"
  | T -> "t"
  | Tdg -> "tdg"
  | Sx -> "sx"
  | Sy -> "sy"
  | Sw -> "sw"
  | Rx theta -> Printf.sprintf "rx(%.2f)" theta
  | Ry theta -> Printf.sprintf "ry(%.2f)" theta
  | Rz theta -> Printf.sprintf "rz(%.2f)" theta
  | Cz -> "cz"
  | Iswap -> "iswap"
  | Sqrt_iswap -> "sqrt_iswap"
  | Xy theta -> Printf.sprintf "xy(%.2f)" theta
  | Cnot -> "cnot"
  | Swap -> "swap"

let equal a b =
  let close x y = Float.abs (x -. y) <= 1e-12 in
  match (a, b) with
  | Rx x, Rx y | Ry x, Ry y | Rz x, Rz y | Xy x, Xy y -> close x y
  | _ -> a = b

let c re im = { Complex.re; im }

let z0 = Complex.zero

let z1 = Complex.one

let mi = c 0.0 (-1.0) (* -i, the paper's iSWAP convention *)

(* Square root of an involution A: sqrt(A) = ((1+i) I + (1-i) A) / 2. *)
let sqrt_involution a =
  let id = Matrix.identity (Matrix.rows a) in
  Matrix.scale_re 0.5 (Matrix.add (Matrix.scale (c 1.0 1.0) id) (Matrix.scale (c 1.0 (-1.0)) a))

let pauli_x = Matrix.of_arrays [| [| z0; z1 |]; [| z1; z0 |] |]

let pauli_y = Matrix.of_arrays [| [| z0; c 0.0 (-1.0) |]; [| c 0.0 1.0; z0 |] |]

let pauli_w =
  let s = 1.0 /. sqrt 2.0 in
  Matrix.of_arrays [| [| z0; c s (-.s) |]; [| c s s; z0 |] |]

let unitary = function
  | I -> Matrix.identity 2
  | X -> pauli_x
  | Y -> pauli_y
  | Z -> Matrix.of_arrays [| [| z1; z0 |]; [| z0; c (-1.0) 0.0 |] |]
  | H ->
    let s = 1.0 /. sqrt 2.0 in
    Matrix.of_arrays [| [| c s 0.0; c s 0.0 |]; [| c s 0.0; c (-.s) 0.0 |] |]
  | S -> Matrix.of_arrays [| [| z1; z0 |]; [| z0; c 0.0 1.0 |] |]
  | Sdg -> Matrix.of_arrays [| [| z1; z0 |]; [| z0; c 0.0 (-1.0) |] |]
  | T ->
    let s = 1.0 /. sqrt 2.0 in
    Matrix.of_arrays [| [| z1; z0 |]; [| z0; c s s |] |]
  | Tdg ->
    let s = 1.0 /. sqrt 2.0 in
    Matrix.of_arrays [| [| z1; z0 |]; [| z0; c s (-.s) |] |]
  | Sx -> sqrt_involution pauli_x
  | Sy -> sqrt_involution pauli_y
  | Sw -> sqrt_involution pauli_w
  | Rx theta ->
    let ch = cos (theta /. 2.0) and sh = sin (theta /. 2.0) in
    Matrix.of_arrays [| [| c ch 0.0; c 0.0 (-.sh) |]; [| c 0.0 (-.sh); c ch 0.0 |] |]
  | Ry theta ->
    let ch = cos (theta /. 2.0) and sh = sin (theta /. 2.0) in
    Matrix.of_arrays [| [| c ch 0.0; c (-.sh) 0.0 |]; [| c sh 0.0; c ch 0.0 |] |]
  | Rz theta ->
    let half = theta /. 2.0 in
    Matrix.of_arrays
      [| [| Complex_ext.exp_i (-.half); z0 |]; [| z0; Complex_ext.exp_i half |] |]
  | Cz ->
    Matrix.of_arrays
      [|
        [| z1; z0; z0; z0 |];
        [| z0; z1; z0; z0 |];
        [| z0; z0; z1; z0 |];
        [| z0; z0; z0; c (-1.0) 0.0 |];
      |]
  | Iswap ->
    Matrix.of_arrays
      [|
        [| z1; z0; z0; z0 |];
        [| z0; z0; mi; z0 |];
        [| z0; mi; z0; z0 |];
        [| z0; z0; z0; z1 |];
      |]
  | Sqrt_iswap ->
    let s = 1.0 /. sqrt 2.0 in
    Matrix.of_arrays
      [|
        [| z1; z0; z0; z0 |];
        [| z0; c s 0.0; c 0.0 (-.s); z0 |];
        [| z0; c 0.0 (-.s); c s 0.0; z0 |];
        [| z0; z0; z0; z1 |];
      |]
  | Xy theta ->
    let ch = cos (theta /. 2.0) and sh = sin (theta /. 2.0) in
    Matrix.of_arrays
      [|
        [| z1; z0; z0; z0 |];
        [| z0; c ch 0.0; c 0.0 (-.sh); z0 |];
        [| z0; c 0.0 (-.sh); c ch 0.0; z0 |];
        [| z0; z0; z0; z1 |];
      |]
  | Cnot ->
    Matrix.of_arrays
      [|
        [| z1; z0; z0; z0 |];
        [| z0; z1; z0; z0 |];
        [| z0; z0; z0; z1 |];
        [| z0; z0; z1; z0 |];
      |]
  | Swap ->
    Matrix.of_arrays
      [|
        [| z1; z0; z0; z0 |];
        [| z0; z0; z1; z0 |];
        [| z0; z1; z0; z0 |];
        [| z0; z0; z0; z1 |];
      |]

let dagger = function
  | I -> Some I
  | X -> Some X
  | Y -> Some Y
  | Z -> Some Z
  | H -> Some H
  | S -> Some Sdg
  | Sdg -> Some S
  | T -> Some Tdg
  | Tdg -> Some T
  | Rx theta -> Some (Rx (-.theta))
  | Ry theta -> Some (Ry (-.theta))
  | Rz theta -> Some (Rz (-.theta))
  | Cz -> Some Cz
  | Cnot -> Some Cnot
  | Swap -> Some Swap
  | Sx | Sy | Sw | Iswap | Sqrt_iswap | Xy _ -> None
