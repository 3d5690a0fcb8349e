(* Open-loop arrival processes (DESIGN.md §4.11).

   A [process] is pure data — no closures — so driver specs embedding one
   stay structurally comparable ([Exp.run]'s per-context table keys on
   specs).
   All rates are client operations per virtual *second*; all generated
   gaps and durations are virtual microseconds, the engine's unit. *)

type process =
  | Poisson of { rate : float }
  | Bursty of {
      base_rate : float;
      burst_rate : float;
      mean_on_us : float;
      mean_off_us : float;
    }
  | Diurnal of { peak_rate : float; floor : float; period_us : float }

let validate p =
  let bad fmt = Printf.ksprintf invalid_arg fmt in
  match p with
  | Poisson { rate } -> if rate <= 0.0 then bad "Arrival.Poisson: rate %g must be > 0" rate
  | Bursty { base_rate; burst_rate; mean_on_us; mean_off_us } ->
      if base_rate < 0.0 then bad "Arrival.Bursty: base_rate %g must be >= 0" base_rate;
      if burst_rate <= 0.0 then bad "Arrival.Bursty: burst_rate %g must be > 0" burst_rate;
      if mean_on_us <= 0.0 || mean_off_us <= 0.0 then
        bad "Arrival.Bursty: phase means (%g, %g) must be > 0" mean_on_us mean_off_us
  | Diurnal { peak_rate; floor; period_us } ->
      if peak_rate <= 0.0 then bad "Arrival.Diurnal: peak_rate %g must be > 0" peak_rate;
      if floor < 0.0 || floor > 1.0 then bad "Arrival.Diurnal: floor %g must be in [0,1]" floor;
      if period_us <= 0.0 then bad "Arrival.Diurnal: period %g must be > 0" period_us

let mean_rate = function
  | Poisson { rate } -> rate
  | Bursty { base_rate; burst_rate; mean_on_us; mean_off_us } ->
      ((burst_rate *. mean_on_us) +. (base_rate *. mean_off_us))
      /. (mean_on_us +. mean_off_us)
  | Diurnal { peak_rate; floor; _ } ->
      (* time-average of floor + (1-floor) * sin^2 *)
      peak_rate *. (floor +. ((1.0 -. floor) *. 0.5))

(* Heavy-tailed multi-tenant population: Zipf(alpha) split of [total_rate]
   across [n] independent Poisson tenants.  alpha = 0 is a uniform split;
   larger alpha concentrates load on the first tenants. *)
let population ~n ~total_rate ~alpha =
  if n <= 0 then invalid_arg "Arrival.population: n must be > 0";
  if total_rate <= 0.0 then invalid_arg "Arrival.population: total_rate must be > 0";
  let w = Array.init n (fun i -> float_of_int (i + 1) ** -.alpha) in
  let s = Array.fold_left ( +. ) 0.0 w in
  Array.to_list (Array.map (fun wi -> Poisson { rate = total_rate *. wi /. s }) w)

type state = {
  proc : process;
  rng : Wafl_util.Rng.t;
  mutable on : bool;  (* Bursty only: currently in the burst phase *)
  mutable phase_end : float;  (* Bursty only: virtual time the phase ends *)
}

(* Bursty generators deterministically begin with a burst phase starting
   at the first [next] call's [now] (phase_end starts at 0, so the first
   flip lands on the on-phase). *)
let start proc ~rng =
  validate proc;
  { proc; rng; on = false; phase_end = 0.0 }

let next s ~now =
  match s.proc with
  | Poisson { rate } -> Wafl_util.Rng.exponential s.rng ~mean:(1e6 /. rate)
  | Bursty { base_rate; burst_rate; mean_on_us; mean_off_us } ->
      (* Markov-modulated Poisson process.  Exponential gaps are
         memoryless, so a gap that would cross the phase boundary is
         simply re-drawn from the boundary at the new phase's rate. *)
      let rec go t acc =
        if t >= s.phase_end then begin
          s.on <- not s.on;
          s.phase_end <-
            s.phase_end
            +. Wafl_util.Rng.exponential s.rng
                 ~mean:(if s.on then mean_on_us else mean_off_us);
          go t acc
        end
        else begin
          let rate = if s.on then burst_rate else base_rate in
          if rate <= 0.0 then go s.phase_end (acc +. (s.phase_end -. t))
          else begin
            let g = Wafl_util.Rng.exponential s.rng ~mean:(1e6 /. rate) in
            if t +. g <= s.phase_end then acc +. g
            else go s.phase_end (acc +. (s.phase_end -. t))
          end
        end
      in
      go now 0.0
  | Diurnal { peak_rate; floor; period_us } ->
      (* Thinning against the peak: candidate arrivals at [peak_rate] are
         accepted with the instantaneous intensity fraction
         floor + (1-floor) * sin^2(pi t / period). *)
      let rec go t acc =
        let g = Wafl_util.Rng.exponential s.rng ~mean:(1e6 /. peak_rate) in
        let t = t +. g and acc = acc +. g in
        let phase = 2.0 *. Float.pi *. t /. period_us in
        let intensity = floor +. ((1.0 -. floor) *. 0.5 *. (1.0 -. cos phase)) in
        if Wafl_util.Rng.float s.rng 1.0 < intensity then acc else go t acc
      in
      go now 0.0
