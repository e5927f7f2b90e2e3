open Helpers
open Fastsc_util

(* Monotonic deadlines: the budget machinery the serve layer threads through
   Pass and Smt.  The last test is the sentinel for the seeded
   smt-deadline-skip fault: with the cooperative polls disabled, an expired
   budget no longer aborts the solve. *)

let test_clock_monotonic () =
  let a = Deadline.now_ns () in
  let b = Deadline.now_ns () in
  check_true "now_ns never goes backwards" (Int64.compare b a >= 0);
  let s0 = Deadline.now_s () in
  let s1 = Deadline.now_s () in
  check_true "now_s never goes backwards" (s1 >= s0)

let test_after_ms_validation () =
  let rejects budget =
    match Deadline.after_ms budget with
    | _ -> false
    | exception Invalid_argument _ -> true
  in
  check_true "negative budget rejected" (rejects (-1.0));
  check_true "nan budget rejected" (rejects Float.nan);
  check_true "infinite budget rejected" (rejects Float.infinity);
  check_true "zero budget accepted" (not (rejects 0.0))

let test_remaining_and_expired () =
  let d = Deadline.after_ms ~label:"long" 60_000.0 in
  check_true "fresh deadline not expired" (not (Deadline.expired d));
  let r = Deadline.remaining_ms d in
  check_true "remaining within budget" (r > 0.0 && r <= 60_000.0);
  check_true "label kept" (Deadline.label d = "long");
  let z = Deadline.after_ms 0.0 in
  check_true "zero budget is expired" (Deadline.expired z);
  check_true "remaining goes negative" (Deadline.remaining_ms z <= 0.0)

let test_check_raises_when_expired () =
  (* no ambient deadline: check is a no-op *)
  Deadline.check ~site:"unit" ();
  let z = Deadline.after_ms ~label:"unit" 0.0 in
  let raised =
    Deadline.with_deadline z (fun () ->
        match Deadline.check ~site:"unit" () with
        | () -> false
        | exception Deadline.Expired msg ->
          check_true "payload names the label" (contains msg "unit");
          true)
  in
  check_true "check raises on expired ambient deadline" raised;
  (* the ambient state must be restored on the way out *)
  Deadline.check ();
  check_true "ambient cleared after with_deadline" (Deadline.current () = None)

let test_nesting_tightens () =
  (* an inner, looser deadline must not loosen the outer one *)
  let tight = Deadline.after_ms ~label:"tight" 0.0 in
  let raised =
    Deadline.with_deadline tight (fun () ->
        let loose = Deadline.after_ms ~label:"loose" 60_000.0 in
        Deadline.with_deadline loose (fun () ->
            match Deadline.check () with
            | () -> false
            | exception Deadline.Expired msg ->
              check_true "the tight deadline stayed in force" (contains msg "tight");
              true))
  in
  check_true "nesting keeps the sooner deadline" raised

(* Sentinel for FASTSC_FAULT=smt-deadline-skip: with the polls disabled, an
   already-expired budget no longer aborts find_max_delta and the solve runs
   to completion instead of raising. *)
let test_smt_aborts_on_expired_budget () =
  let t = Fastsc_smt.Smt.create ~lo:5.0 ~hi:7.0 8 in
  for i = 0 to 6 do
    Fastsc_smt.Smt.add_separation t i (i + 1)
  done;
  let z = Deadline.after_ms ~label:"smt budget" 0.0 in
  let aborted =
    Deadline.with_deadline z (fun () ->
        match Fastsc_smt.Smt.find_max_delta ~order:(List.init 8 Fun.id) ~tolerance:1e-9 t with
        | _ -> false
        | exception Deadline.Expired _ -> true)
  in
  check_true "expired budget aborts the solve via Expired" aborted

let suite =
  [
    Alcotest.test_case "clock is monotonic" `Quick test_clock_monotonic;
    Alcotest.test_case "after_ms validates budgets" `Quick test_after_ms_validation;
    Alcotest.test_case "remaining and expired" `Quick test_remaining_and_expired;
    Alcotest.test_case "check raises when expired" `Quick test_check_raises_when_expired;
    Alcotest.test_case "nesting tightens" `Quick test_nesting_tightens;
    Alcotest.test_case "smt aborts on expired budget" `Quick
      test_smt_aborts_on_expired_budget;
  ]
