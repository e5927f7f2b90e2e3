open Fastsc_physics

type segment =
  | Hold of { flux : float; duration : float }
  | Ramp of { flux_from : float; flux_to : float; duration : float }

type waveform = segment list

let segment_duration = function
  | Hold { duration; _ } -> duration
  | Ramp { duration; _ } -> duration

let total_duration waveform =
  List.fold_left (fun acc s -> acc +. segment_duration s) 0.0 waveform

let segment_end_flux = function
  | Hold { flux; _ } -> flux
  | Ramp { flux_to; _ } -> flux_to

let final_flux = function
  | [] -> invalid_arg "Control.final_flux: empty waveform"
  | waveform -> segment_end_flux (List.nth waveform (List.length waveform - 1))

let lower schedule =
  let device = schedule.Schedule.device in
  let tuning = (Device.params device).Device.flux_tuning_time in
  let flux_of q freq =
    let tr = Device.transmon device q in
    let clamped = Float.max tr.Transmon.omega_min (Float.min tr.Transmon.omega_max freq) in
    Transmon.flux_for_freq tr clamped
  in
  Array.init (Device.n_qubits device) (fun q ->
      let idle_flux = flux_of q schedule.Schedule.idle_freqs.(q) in
      let reversed = ref [] in
      let current = ref idle_flux in
      List.iter
        (fun step ->
          let target = flux_of q step.Schedule.freqs.(q) in
          let duration = step.Schedule.duration in
          if Float.abs (target -. !current) < 1e-12 then begin
            (* merge consecutive holds at the same flux *)
            match !reversed with
            | Hold { flux; duration = d } :: rest when Float.abs (flux -. target) < 1e-12 ->
              reversed := Hold { flux; duration = d +. duration } :: rest
            | _ -> reversed := Hold { flux = target; duration } :: !reversed
          end
          else begin
            let ramp_time = Float.min tuning duration in
            reversed :=
              Ramp { flux_from = !current; flux_to = target; duration = ramp_time }
              :: !reversed;
            let hold_time = duration -. ramp_time in
            if hold_time > 0.0 then
              reversed := Hold { flux = target; duration = hold_time } :: !reversed
          end;
          current := target)
        schedule.Schedule.steps;
      List.rev !reversed)

let flux_at waveform t =
  match waveform with
  | [] -> invalid_arg "Control.flux_at: empty waveform"
  | first :: _ ->
    let start_flux =
      match first with Hold { flux; _ } -> flux | Ramp { flux_from; _ } -> flux_from
    in
    if t <= 0.0 then start_flux
    else begin
      let rec walk clock = function
        | [] -> final_flux waveform
        | segment :: rest ->
          let finish = clock +. segment_duration segment in
          if t <= finish then begin
            match segment with
            | Hold { flux; _ } -> flux
            | Ramp { flux_from; flux_to; duration } ->
              if duration <= 0.0 then flux_to
              else flux_from +. ((flux_to -. flux_from) *. (t -. clock) /. duration)
          end
          else walk finish rest
      in
      walk 0.0 waveform
    end

let max_slew_rate waveform =
  List.fold_left
    (fun acc segment ->
      match segment with
      | Hold _ -> acc
      | Ramp { flux_from; flux_to; duration } ->
        if duration <= 0.0 then acc
        else Float.max acc (Float.abs (flux_to -. flux_from) /. duration))
    0.0 waveform

let check schedule waveforms =
  let exception Bad of string in
  try
    let n = Device.n_qubits schedule.Schedule.device in
    if Array.length waveforms <> n then raise (Bad "waveform count mismatch");
    let expected = Schedule.total_time schedule in
    Array.iteri
      (fun q waveform ->
        let fail msg = raise (Bad (Printf.sprintf "qubit %d: %s" q msg)) in
        if Float.abs (total_duration waveform -. expected) > 1e-6 then
          fail
            (Printf.sprintf "duration %.3f does not span the schedule (%.3f)"
               (total_duration waveform) expected);
        let check_flux f =
          if f < -1e-9 || f > 0.5 +. 1e-9 then fail (Printf.sprintf "flux %.4f out of [0, 0.5]" f)
        in
        let previous_end = ref None in
        List.iter
          (fun segment ->
            if segment_duration segment < 0.0 then fail "negative duration";
            let start_flux =
              match segment with
              | Hold { flux; _ } -> flux
              | Ramp { flux_from; _ } -> flux_from
            in
            check_flux start_flux;
            check_flux (segment_end_flux segment);
            (match !previous_end with
            | Some f when Float.abs (f -. start_flux) > 1e-9 -> fail "discontinuous waveform"
            | _ -> ());
            previous_end := Some (segment_end_flux segment))
          waveform)
      waveforms;
    Ok ()
  with Bad msg -> Error msg
