type t = {
  rate : float; (* tokens per virtual µs *)
  burst : float;
  mutable tokens : float;
  mutable last : float; (* virtual time of the last refill *)
}

type decision = Admit | Delay of float | Shed

let create ~rate_per_s ~burst =
  if rate_per_s <= 0.0 then invalid_arg "Token_bucket.create: rate must be positive";
  if burst < 1.0 then invalid_arg "Token_bucket.create: burst must be at least one op";
  { rate = rate_per_s /. 1_000_000.0; burst; tokens = burst; last = 0.0 }

let refill t ~now =
  if now > t.last then begin
    t.tokens <- Float.min t.burst (t.tokens +. ((now -. t.last) *. t.rate));
    t.last <- now
  end

(* GCRA-style reservation: tokens may go negative, each unit of debt
   standing for one op already admitted but scheduled in the future.  The
   debt magnitude is therefore the queue depth, which [max_debt] bounds:
   a reservation that would exceed it is shed without touching state, so
   the decision sequence is a pure function of the arrival sequence. *)
let reserve t ~now ~max_debt =
  refill t ~now;
  if t.tokens -. 1.0 < -.max_debt then Shed
  else begin
    t.tokens <- t.tokens -. 1.0;
    if t.tokens >= 0.0 then Admit else Delay (-.t.tokens /. t.rate)
  end

let tokens t = t.tokens
let state t = (t.tokens, t.last)
