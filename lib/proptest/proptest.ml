module Gen = struct
  type 'a t = Rng.t -> 'a

  let return x _rng = x

  let map f g rng = f (g rng)

  let bind g f rng = f (g rng) rng

  let pair ga gb rng =
    let a = ga rng in
    let b = gb rng in
    (a, b)

  let triple ga gb gc rng =
    let a = ga rng in
    let b = gb rng in
    let c = gc rng in
    (a, b, c)

  let bool rng = Rng.bool rng

  let int_range lo hi rng =
    if lo > hi then invalid_arg "Proptest.Gen.int_range: lo > hi";
    lo + Rng.int rng (hi - lo + 1)

  let float_range lo hi rng = if lo >= hi then lo else Rng.uniform rng lo hi

  let oneof gens rng =
    match gens with
    | [] -> invalid_arg "Proptest.Gen.oneof: empty list"
    | _ -> List.nth gens (Rng.int rng (List.length gens)) rng

  let frequency weighted rng =
    let total = List.fold_left (fun acc (w, _) -> acc + w) 0 weighted in
    if total <= 0 then invalid_arg "Proptest.Gen.frequency: weights must be positive";
    let roll = Rng.int rng total in
    let rec pick acc = function
      | [] -> assert false
      | (w, g) :: rest -> if roll < acc + w then g rng else pick (acc + w) rest
    in
    pick 0 weighted

  let choose values rng = Rng.choose rng values

  (* explicit loops rather than List.init/Array.init: their evaluation order
     is unspecified, and replayable generation needs the RNG consumed in a
     fixed order *)
  let list ?(min_len = 0) ~max_len elt rng =
    let len = int_range min_len max_len rng in
    let acc = ref [] in
    for _ = 1 to len do
      acc := elt rng :: !acc
    done;
    List.rev !acc

  let array ?(min_len = 0) ~max_len elt rng =
    let len = int_range min_len max_len rng in
    if len = 0 then [||]
    else begin
      let first = elt rng in
      let out = Array.make len first in
      for i = 1 to len - 1 do
        out.(i) <- elt rng
      done;
      out
    end
end

module Shrink = struct
  type 'a t = 'a -> 'a Seq.t

  let nothing _ = Seq.empty

  (* Candidates walk from the destination toward the value, halving the gap:
     the first candidate is the most aggressive shrink, later ones approach
     the original so the greedy runner can always make some progress. *)
  let int_toward dest x =
    if x = dest then Seq.empty
    else
      Seq.unfold (fun gap -> if gap = 0 then None else Some (x - gap, gap / 2)) (x - dest)

  let int x = int_toward 0 x

  let float_toward dest x =
    if x = dest || not (Float.is_finite x) then Seq.empty
    else
      Seq.take 24
        (Seq.unfold
           (fun gap ->
             if Float.abs gap < 1e-12 then None else Some (x -. gap, gap /. 2.0))
           (x -. dest))

  let pair sa sb (a, b) =
    Seq.append
      (Seq.map (fun a' -> (a', b)) (sa a))
      (Seq.map (fun b' -> (a, b')) (sb b))

  let rec take_n k = function
    | [] -> []
    | _ when k = 0 -> []
    | x :: rest -> x :: take_n (k - 1) rest

  let rec drop_n k = function
    | xs when k = 0 -> xs
    | [] -> []
    | _ :: rest -> drop_n (k - 1) rest

  let list ?elt xs =
    let n = List.length xs in
    let halves =
      if n >= 2 then List.to_seq [ take_n (n / 2) xs; drop_n (n / 2) xs ] else Seq.empty
    in
    let without_one =
      Seq.map
        (fun i -> List.filteri (fun j _ -> j <> i) xs)
        (Seq.init n (fun i -> i))
    in
    let shrink_one =
      match elt with
      | None -> Seq.empty
      | Some elt ->
        Seq.concat_map
          (fun i ->
            Seq.map
              (fun y -> List.mapi (fun j x -> if j = i then y else x) xs)
              (elt (List.nth xs i)))
          (Seq.init n (fun i -> i))
    in
    Seq.append halves (Seq.append without_one shrink_one)

  let array ?elt xs =
    Seq.map Array.of_list (list ?elt (Array.to_list xs))
end

type 'a arbitrary = {
  gen : 'a Gen.t;
  shrink : 'a Shrink.t;
  print : 'a -> string;
  size : 'a -> int;
}

let make ?(shrink = Shrink.nothing) ?(print = fun _ -> "<opaque>") ?(size = fun _ -> 0) gen =
  { gen; shrink; print; size }

let int_range lo hi =
  {
    gen = Gen.int_range lo hi;
    shrink = Shrink.int_toward lo;
    print = string_of_int;
    size = (fun x -> abs x);
  }

let float_range lo hi =
  {
    gen = Gen.float_range lo hi;
    shrink = Shrink.float_toward lo;
    print = string_of_float;
    size = (fun _ -> 0);
  }

let bool =
  { gen = Gen.bool; shrink = Shrink.nothing; print = string_of_bool; size = (fun _ -> 0) }

let print_list print xs = "[" ^ String.concat "; " (List.map print xs) ^ "]"

let pair a b =
  {
    gen = Gen.pair a.gen b.gen;
    shrink = Shrink.pair a.shrink b.shrink;
    print = (fun (x, y) -> Printf.sprintf "(%s, %s)" (a.print x) (b.print y));
    size = (fun (x, y) -> a.size x + b.size y);
  }

let list ?min_len ~max_len elt =
  {
    gen = Gen.list ?min_len ~max_len elt.gen;
    shrink = Shrink.list ~elt:elt.shrink;
    print = print_list elt.print;
    size = List.length;
  }

let array ?min_len ~max_len elt =
  {
    gen = Gen.array ?min_len ~max_len elt.gen;
    shrink = Shrink.array ~elt:elt.shrink;
    print = (fun xs -> print_list elt.print (Array.to_list xs));
    size = Array.length;
  }

(* -- structural generators over the compiler's own data types -------------- *)

let print_graph g = Format.asprintf "%a" Graph.pp g

let graph_gen ~min_vertices ~max_vertices ~edge_prob rng =
  let n = Gen.int_range min_vertices max_vertices rng in
  let g = Graph.create n in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      if Rng.float rng < edge_prob then Graph.add_edge g u v
    done
  done;
  g

(* Shrinking a graph: removing the last vertex (with its edges) first, then
   dropping single edges.  Both moves only ever simplify the instance. *)
let graph_shrink g =
  let n = Graph.n_vertices g in
  let edges = Graph.edges g in
  let smaller =
    if n = 0 then Seq.empty
    else
      Seq.return
        (Graph.of_edges (n - 1) (List.filter (fun (u, v) -> u < n - 1 && v < n - 1) edges))
  in
  let drop_edge (u, v) =
    let h = Graph.copy g in
    Graph.remove_edge h u v;
    h
  in
  Seq.append smaller (Seq.map drop_edge (List.to_seq edges))

let graph_size g = Graph.n_vertices g + List.length (Graph.edges g)

let graph ?(min_vertices = 0) ~max_vertices ~edge_prob () =
  {
    gen = graph_gen ~min_vertices ~max_vertices ~edge_prob;
    shrink = graph_shrink;
    print = print_graph;
    size = graph_size;
  }

let bipartite_graph ~max_side ~edge_prob () =
  let gen rng =
    let a = Gen.int_range 0 max_side rng in
    let b = Gen.int_range 0 max_side rng in
    let g = Graph.create (a + b) in
    for u = 0 to a - 1 do
      for v = a to a + b - 1 do
        if Rng.float rng < edge_prob then Graph.add_edge g u v
      done
    done;
    g
  in
  (* only edge removals: deleting the last vertex would renumber the parts *)
  let shrink g =
    Seq.map
      (fun (u, v) ->
        let h = Graph.copy g in
        Graph.remove_edge h u v;
        h)
      (List.to_seq (Graph.edges g))
  in
  { gen; shrink; print = print_graph; size = graph_size }

(* The full gate set, the parametric families included: invariants that only
   hold for Cliffords would be caught out by the rotation angles here. *)
let random_gate ~two_qubit_ok rng =
  let angle rng = Rng.uniform rng 0.1 (2.0 *. Float.pi -. 0.1) in
  let single =
    [|
      (fun _ -> Gate.I);
      (fun _ -> Gate.X);
      (fun _ -> Gate.Y);
      (fun _ -> Gate.Z);
      (fun _ -> Gate.H);
      (fun _ -> Gate.S);
      (fun _ -> Gate.Sdg);
      (fun _ -> Gate.T);
      (fun _ -> Gate.Tdg);
      (fun _ -> Gate.Sx);
      (fun _ -> Gate.Sy);
      (fun _ -> Gate.Sw);
      (fun rng -> Gate.Rx (angle rng));
      (fun rng -> Gate.Ry (angle rng));
      (fun rng -> Gate.Rz (angle rng));
    |]
  in
  let double =
    [|
      (fun _ -> Gate.Cz);
      (fun _ -> Gate.Iswap);
      (fun _ -> Gate.Sqrt_iswap);
      (fun rng -> Gate.Xy (angle rng));
      (fun _ -> Gate.Cnot);
      (fun _ -> Gate.Swap);
    |]
  in
  if two_qubit_ok && Rng.int rng 3 = 0 then (Rng.choose rng double) rng
  else (Rng.choose rng single) rng

let circuit_gen ~max_qubits ~max_gates rng =
  let n = Gen.int_range 1 max_qubits rng in
  let len = Gen.int_range 0 max_gates rng in
  let b = Circuit.builder n in
  for _ = 1 to len do
    let gate = random_gate ~two_qubit_ok:(n >= 2) rng in
    let q = Rng.int rng n in
    let operands =
      if Gate.is_two_qubit gate then [ q; (q + 1 + Rng.int rng (n - 1)) mod n ] else [ q ]
    in
    Circuit.add b gate operands
  done;
  Circuit.finish b

let circuit_shrink c =
  let n = Circuit.n_qubits c in
  let gates =
    List.map
      (fun app -> (app.Gate.gate, Array.to_list app.Gate.qubits))
      (Array.to_list (Circuit.instructions c))
  in
  Seq.map (fun gs -> Circuit.of_gates n gs) (Shrink.list gates)

let circuit ~max_qubits ~max_gates () =
  {
    gen = circuit_gen ~max_qubits ~max_gates;
    shrink = circuit_shrink;
    print = (fun c -> Format.asprintf "%d qubits:@ %a" (Circuit.n_qubits c) Circuit.pp c);
    size = (fun c -> Circuit.n_qubits c + Array.length (Circuit.instructions c));
  }

(* -- the runner ------------------------------------------------------------ *)

type failure = {
  test_name : string;
  case : int;
  cases : int;
  seed : int;
  original : string;
  shrunk : string;
  shrink_steps : int;
  shrunk_size : int;
  exn : string option;
  message : string;
}

type result = Pass of int | Fail of failure

type test =
  | Test : { name : string; count : int option; arb : 'a arbitrary; prop : 'a -> bool } -> test

let test ~name ?count arb prop = Test { name; count; arb; prop }

let env_int name =
  match Sys.getenv_opt name with
  | None -> None
  | Some s -> int_of_string_opt (String.trim s)

(* An explicit count scales with the variable over the default 100, never
   below one case, so tier R's count axis reaches every property. *)
let scaled_count c =
  match env_int "FASTSC_PROPTEST_COUNT" with Some v when v >= 1 -> max 1 (c * v / 100) | _ -> c

(* Deterministic by default: a fixed base seed means the suite tests the same
   cases on every run and every machine, and CI failures replay locally. *)
let base_seed () =
  match env_int "FASTSC_PROPTEST_SEED" with Some s -> s | None -> 0x5eedc0de

let max_shrink_steps = 500

let run ?seed (Test t) =
  let count = scaled_count (Option.value ~default:100 t.count) in
  let base = match seed with Some s -> s | None -> base_seed () in
  let last_exn = ref None in
  let holds x =
    last_exn := None;
    match t.prop x with
    | ok -> ok
    | exception e ->
      last_exn := Some (Printexc.to_string e);
      false
  in
  (* Greedy descent: keep the first shrink candidate that still fails, repeat
     until no candidate fails (a local minimum) or the step budget runs out. *)
  let rec minimize x steps =
    if steps >= max_shrink_steps then (x, steps)
    else
      match Seq.find (fun y -> not (holds y)) (t.arb.shrink x) with
      | Some y -> minimize y (steps + 1)
      | None -> (x, steps)
  in
  let rec cases k =
    if k >= count then Pass count
    else
      let case_seed = base + k in
      let x = t.arb.gen (Rng.create case_seed) in
      if holds x then cases (k + 1)
      else
        let original = t.arb.print x in
        let shrunk, shrink_steps = minimize x 0 in
        (* re-evaluate so the recorded exception belongs to the minimum, not
           to whichever passing candidate the shrinker probed last *)
        ignore (holds shrunk : bool);
        let exn = !last_exn in
        let shrunk_size = t.arb.size shrunk in
        let message =
          Printf.sprintf
            "property %S failed at case %d/%d (seed %d)\n\
            \  counterexample:    %s\n\
            \  shrunk (%d steps): %s\n\
             %s\
            \  replay: FASTSC_PROPTEST_SEED=%d FASTSC_PROPTEST_COUNT=1 re-runs exactly this \
             case (%d shrink steps, final size %d)"
            t.name (k + 1) count case_seed original shrink_steps (t.arb.print shrunk)
            (match exn with
            | Some e -> Printf.sprintf "  raised:            %s\n" e
            | None -> "")
            case_seed shrink_steps shrunk_size
        in
        Fail
          {
            test_name = t.name;
            case = k + 1;
            cases = count;
            seed = case_seed;
            original;
            shrunk = t.arb.print shrunk;
            shrink_steps;
            shrunk_size;
            exn;
            message;
          }
  in
  cases 0

let check ?seed t = match run ?seed t with Pass _ -> () | Fail f -> failwith f.message
