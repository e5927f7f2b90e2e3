(** Pulse-level lowering: from schedules to per-qubit flux waveforms.

    The last stage of the paper's compiler stack (§II-B: the compiler
    "finally outputs low-level control pulses").  Every qubit's frequency
    trajectory becomes a piecewise-linear external-flux waveform: at each
    step boundary the qubit ramps to its new operating flux within the
    device's flux-retuning window (Appendix C, ~2 ns) and holds there for
    the remainder of the step.  Consecutive holds at the same flux merge, so
    parked qubits produce a single flat segment.

    The waveform is what a control system would actually play; the [check]
    validator asserts it is physically sane (fluxes within one half flux
    quantum, durations consistent with the schedule) and [max_slew_rate]
    exposes the control-bandwidth requirement the schedule implies. *)

type segment =
  | Hold of { flux : float; duration : float }
  | Ramp of { flux_from : float; flux_to : float; duration : float }

type waveform = segment list
(** Time-ordered; durations in ns, flux in units of the flux quantum. *)

val lower : Schedule.t -> waveform array
(** One waveform per qubit.  Each qubit starts at its idle flux; per step it
    ramps (within the device's [flux_tuning_time], clipped to the step) to
    the step's flux and holds. *)

val total_duration : waveform -> float

val final_flux : waveform -> float
(** Flux at the end of the waveform.
    @raise Invalid_argument on an empty waveform. *)

val flux_at : waveform -> float -> float
(** Sample the waveform at absolute time [t] (ns); clamps beyond the ends. *)

val max_slew_rate : waveform -> float
(** Largest [|dflux/dt|] over all ramps, in flux quanta per ns; 0 for flat
    waveforms. *)

val check : Schedule.t -> waveform array -> (unit, string) result
(** Invariants: one waveform per qubit; every waveform spans exactly the
    schedule's total time; all fluxes lie in [\[0, 0.5\]]; all durations are
    non-negative; ramps are continuous with their neighbours. *)
