(* Span/event tracer in virtual time.

   A [t] is bound to at most one engine and either records or does not.
   The shared [disabled] value and [metrics_only] tracers record nothing:
   every operation is a single branch, and the instrumented code path is
   bit-identical to an uninstrumented build.  A tracer made by [create]
   records spans, instants, flows and samples of its engine's metrics
   registry into a bounded ring sink ({!Sink}), exported as Chrome
   trace-event JSON (loadable in Perfetto / chrome://tracing).  The
   registry itself belongs to the engine ({!Engine.metrics}), so
   components publish into it whether or not the run is recorded.

   All timestamps are the engine's virtual clock, and recording performs
   no allocation of virtual time and no scheduling, so a recorded run
   still produces results bit-identical to an unrecorded one; because
   every input of the recording is deterministic, two runs with the same
   seed export byte-identical traces.

   A recording tracer also owns the virtual-CPU profile: an engine hook
   attributes every [Engine.consume] charge to the charging fiber's
   current span stack, yielding a top-N table of where simulated CPU
   actually went. *)

module Engine = Wafl_sim.Engine
module Int_table = Wafl_util.Int_table

type frame = { f_cat : string; f_name : string; f_ts : float }
type prof_cell = { mutable p_total : float; mutable p_count : int }

type recording = {
  eng : Engine.t;
  sink : Sink.t;
  stacks : (int, frame list ref) Hashtbl.t; (* span stack per fiber id *)
  names : string Int_table.t; (* last-seen accounting label per fiber id *)
  profile : (string, prof_cell) Hashtbl.t;
  mutable profile_order : string list; (* first-appearance, newest first *)
  sample_interval : float; (* 0.0 disables the metrics timeseries *)
  mutable next_sample : float;
  (* Causal mode (see Causal / DESIGN.md §4.10): explicit request-context
     propagation across asynchronous handoffs, recorded as flow events. *)
  causal : bool;
  ctxs : (int, int) Hashtbl.t; (* fiber id -> active causal context; absent = none *)
  mutable next_ctx : int;
  mutable next_flow : int;
}

(* [bound]: the engine whose registry [metrics] returns; [state]: [Some]
   exactly when the tracer records. *)
type t = { bound : Engine.t option; state : recording option }

let disabled = { bound = None; state = None }
let metrics_only eng = { bound = Some eng; state = None }
let enabled t = t.state <> None
let engine t = t.bound

let metrics t =
  match t.bound with
  | Some eng -> Engine.metrics eng
  | None -> invalid_arg "Trace.metrics: the disabled tracer has no engine"

(* --- metric sampling ----------------------------------------------------- *)

let sample_events s ~now =
  let ev (name, v) =
    {
      Sink.ph = 'C';
      cat = "metrics";
      name;
      ts = now;
      dur = v;
      tid = 0;
      flow = 0;
      args = [];
      num_args = [];
    }
  in
  let m = Engine.metrics s.eng in
  List.map ev (Metrics.counters m @ Metrics.gauges m)

(* Piggybacks on trace-recording and engine-hook call sites rather than a
   dedicated fiber: a sampler fiber would occupy cores and perturb FIFO
   ordering, breaking the off-vs-on bit-identity guarantee. *)
let maybe_sample s ~now =
  if s.sample_interval > 0.0 && now >= s.next_sample then begin
    List.iter (Sink.record s.sink) (sample_events s ~now);
    s.next_sample <- now +. s.sample_interval
  end

(* --- span stacks and the CPU profile ------------------------------------- *)

let stack_of s fid =
  match Hashtbl.find_opt s.stacks fid with
  | Some st -> st
  | None ->
      let st = ref [] in
      Hashtbl.add s.stacks fid st;
      st

let profile_charge s ~fid ~label ~amount =
  let key =
    match Hashtbl.find_opt s.stacks fid with
    | Some { contents = frames } when frames <> [] ->
        String.concat "/" (List.rev_map (fun f -> f.f_name) frames)
    | _ -> "fiber:" ^ label
  in
  match Hashtbl.find_opt s.profile key with
  | Some cell ->
      cell.p_total <- cell.p_total +. amount;
      cell.p_count <- cell.p_count + 1
  | None ->
      Hashtbl.add s.profile key { p_total = amount; p_count = 1 };
      s.profile_order <- key :: s.profile_order

(* --- causal context propagation (the low-level half of Causal) ----------- *)

let ctx_of s fid = match Hashtbl.find_opt s.ctxs fid with Some c -> c | None -> 0
let set_ctx s fid c = if c = 0 then Hashtbl.remove s.ctxs fid else Hashtbl.replace s.ctxs fid c

(* One half of a causal edge.  's' marks the handoff source, 'f' the
   destination; the shared [flow] id pairs them (Perfetto draws the
   arrow, the analyzer walks it). *)
let record_flow s ~ph ~name ~tid ~flow ~now =
  Sink.record s.sink
    { ph; cat = "flow"; name; ts = now; dur = 0.0; tid; flow; args = []; num_args = [] }

type handoff = { h_ctx : int; h_flow : int }

let no_handoff = { h_ctx = 0; h_flow = 0 }

let capture t ~kind =
  match t.state with
  | Some s when s.causal ->
      let fid = Engine.current_fid s.eng in
      let flow = s.next_flow in
      s.next_flow <- flow + 1;
      record_flow s ~ph:'s' ~name:kind ~tid:fid ~flow ~now:(Engine.now s.eng);
      { h_ctx = ctx_of s fid; h_flow = flow }
  | _ -> no_handoff

let restore t ~kind h =
  if h != no_handoff then
    match t.state with
    | Some s when s.causal ->
        let fid = Engine.current_fid s.eng in
        record_flow s ~ph:'f' ~name:kind ~tid:fid ~flow:h.h_flow ~now:(Engine.now s.eng);
        set_ctx s fid h.h_ctx
    | _ -> ()

let with_root t f =
  match t.state with
  | Some s when s.causal ->
      let fid = Engine.current_fid s.eng in
      let prev = ctx_of s fid in
      let c = s.next_ctx in
      s.next_ctx <- c + 1;
      set_ctx s fid c;
      Fun.protect ~finally:(fun () -> set_ctx s fid prev) f
  | _ -> f ()

(* Pooled worker fibers call this between messages: the previous
   message's causal context must not leak into the next, unrelated
   message (see DESIGN.md §4.10). *)
let fiber_reset t =
  match t.state with
  | Some s when s.causal -> Hashtbl.remove s.ctxs (Engine.current_fid s.eng)
  | _ -> ()

(* In causal mode every recorded span carries its fiber's active context
   as a numeric arg, which is how the analyzer groups spans per request. *)
let span_num_args s ~fid num_args =
  if s.causal then
    match ctx_of s fid with 0 -> num_args | c -> ("ctx", float_of_int c) :: num_args
  else num_args

let causal t = match t.state with Some s -> s.causal | None -> false

let create ?ring_capacity ?(sample_interval = 10_000.0) ?(causal = false) eng =
  (* Causal mode records two flow events per handoff on top of the spans,
     so its default ring is deep enough for the smoke figures to export
     with zero drops. *)
  let ring_capacity =
    match ring_capacity with Some c -> c | None -> if causal then 1 lsl 22 else 262_144
  in
  let s =
    {
      eng;
      sink = Sink.create ~capacity:ring_capacity;
      stacks = Hashtbl.create 64;
      names = Int_table.create ();
      profile = Hashtbl.create 64;
      profile_order = [];
      sample_interval;
      next_sample = Engine.now eng +. sample_interval;
      causal;
      ctxs = Hashtbl.create 64;
      next_ctx = 1;
      next_flow = 1;
    }
  in
  Metrics.pull_counter (Engine.metrics eng) "trace.drops" (fun () ->
      float_of_int (Sink.dropped s.sink));
  Engine.set_obs_hooks eng
    {
      Engine.on_consume =
        (fun ~fid ~label ~amount ~now ->
          profile_charge s ~fid ~label ~amount;
          maybe_sample s ~now);
      on_switch =
        (fun ~fid ~label ~now ->
          Int_table.replace s.names fid label;
          maybe_sample s ~now);
      on_wake =
        (if causal then fun ~waker ~wakee ~now ->
           (* A blocked fiber resumes its own context; the edge is what
              the critical-path walk follows from wakee back to waker. *)
           let flow = s.next_flow in
           s.next_flow <- flow + 1;
           record_flow s ~ph:'s' ~name:"wake" ~tid:waker ~flow ~now;
           record_flow s ~ph:'f' ~name:"wake" ~tid:wakee ~flow ~now
         else fun ~waker:_ ~wakee:_ ~now:_ -> ());
      on_spawn =
        (if causal then fun ~parent ~child ~now ->
           let flow = s.next_flow in
           s.next_flow <- flow + 1;
           record_flow s ~ph:'s' ~name:"spawn" ~tid:parent ~flow ~now;
           record_flow s ~ph:'f' ~name:"spawn" ~tid:child ~flow ~now;
           set_ctx s child (ctx_of s parent)
         else fun ~parent:_ ~child:_ ~now:_ -> ());
    };
  { bound = Some eng; state = Some s }

(* --- recording ----------------------------------------------------------- *)

let with_span t ~cat ~name ?(args = []) ?(num_args = []) f =
  match t.state with
  | None -> f ()
  | Some s ->
      let fid = Engine.current_fid s.eng in
      let ts = Engine.now s.eng in
      let stack = stack_of s fid in
      stack := { f_cat = cat; f_name = name; f_ts = ts } :: !stack;
      let finish () =
        (match !stack with [] -> () | _ :: rest -> stack := rest);
        let now = Engine.now s.eng in
        Sink.record s.sink
          {
            ph = 'X';
            cat;
            name;
            ts;
            dur = now -. ts;
            tid = fid;
            flow = 0;
            args;
            num_args = span_num_args s ~fid num_args;
          };
        maybe_sample s ~now
      in
      (match f () with
      | v ->
          finish ();
          v
      | exception exn ->
          finish ();
          raise exn)

let instant t ~cat ~name ?(args = []) () =
  match t.state with
  | None -> ()
  | Some s ->
      let now = Engine.now s.eng in
      Sink.record s.sink
        {
          ph = 'i';
          cat;
          name;
          ts = now;
          dur = 0.0;
          tid = Engine.current_fid s.eng;
          flow = 0;
          args;
          num_args = [];
        };
      maybe_sample s ~now

(* Non-lexical interval measured by the caller (e.g. RAID service time
   spanning sleeps): recorded at completion with an explicit start. *)
let complete t ~cat ~name ~ts ~dur ?(args = []) ?(num_args = []) () =
  match t.state with
  | None -> ()
  | Some s ->
      let fid = Engine.current_fid s.eng in
      Sink.record s.sink
        {
          ph = 'X';
          cat;
          name;
          ts;
          dur;
          tid = fid;
          flow = 0;
          args;
          num_args = span_num_args s ~fid num_args;
        };
      maybe_sample s ~now:(Engine.now s.eng)

(* What an export holds: the ring's events, then a closing sample of
   every metric, counted as if the ring had recorded it.  When that
   overflows the ring, the oldest [recorded - kept] events are left out
   and counted as dropped; the ring itself is never touched. *)
let exported s =
  let closing =
    if s.sample_interval > 0.0 then sample_events s ~now:(Engine.now s.eng) else []
  in
  let recorded = Sink.length s.sink + List.length closing in
  (closing, recorded, min recorded (Sink.capacity s.sink))

let event_count t =
  match t.state with
  | Some s ->
      let _, _, kept = exported s in
      kept
  | None -> 0

let dropped t =
  match t.state with
  | Some s ->
      let _, recorded, kept = exported s in
      Sink.dropped s.sink + recorded - kept
  | None -> 0

(* --- Chrome trace-event export ------------------------------------------- *)

let emit_event buf (ev : Sink.ev) =
  Buffer.add_string buf "{\"name\":";
  Json.str_into buf ev.name;
  Buffer.add_string buf ",\"cat\":";
  Json.str_into buf ev.cat;
  Buffer.add_string buf ",\"ph\":\"";
  Buffer.add_char buf ev.ph;
  Buffer.add_string buf "\",\"ts\":";
  Buffer.add_string buf (Json.num_str ev.ts);
  if ev.ph = 'X' then begin
    Buffer.add_string buf ",\"dur\":";
    Buffer.add_string buf (Json.num_str ev.dur)
  end;
  if ev.ph = 'i' then Buffer.add_string buf ",\"s\":\"g\"";
  if ev.ph = 's' || ev.ph = 'f' then begin
    Buffer.add_string buf ",\"id\":";
    Buffer.add_string buf (string_of_int ev.flow);
    (* Bind the flow finish to the enclosing slice so Perfetto draws the
       arrow into the consuming span, not just at the track. *)
    if ev.ph = 'f' then Buffer.add_string buf ",\"bp\":\"e\""
  end;
  Buffer.add_string buf ",\"pid\":0,\"tid\":";
  Buffer.add_string buf (string_of_int ev.tid);
  let has_args = ev.ph = 'C' || ev.args <> [] || ev.num_args <> [] in
  if has_args then begin
    Buffer.add_string buf ",\"args\":{";
    let first = ref true in
    let sep () =
      if !first then first := false else Buffer.add_char buf ','
    in
    if ev.ph = 'C' then begin
      sep ();
      Buffer.add_string buf "\"value\":";
      Buffer.add_string buf (Json.num_str ev.dur)
    end;
    List.iter
      (fun (k, v) ->
        sep ();
        Json.str_into buf k;
        Buffer.add_char buf ':';
        Buffer.add_string buf (Json.num_str v))
      ev.num_args;
    List.iter
      (fun (k, v) ->
        sep ();
        Json.str_into buf k;
        Buffer.add_char buf ':';
        Json.str_into buf v)
      ev.args;
    Buffer.add_char buf '}'
  end;
  Buffer.add_char buf '}'

let export t buf =
  match t.state with
  | None -> Buffer.add_string buf "{\"traceEvents\":[],\"displayTimeUnit\":\"ms\"}"
  | Some s ->
      (* The closing sample shows the last window of the timeseries. *)
      let closing, recorded, kept = exported s in
      let iter f =
        let i = ref 0 in
        let visit ev =
          if !i >= recorded - kept then f ev;
          incr i
        in
        Sink.iter s.sink visit;
        List.iter visit closing
      in
      Buffer.add_string buf "{\"traceEvents\":[";
      let first = ref true in
      let sep () = if !first then first := false else Buffer.add_char buf ',' in
      (* Thread-name metadata first, in fiber-id order (the names table
         enumerates ascending by construction), so Perfetto shows
         accounting labels instead of bare tids.  Only fibers that appear
         in a retained event get a record — long runs see one short-lived
         message fiber per client op, and naming them all would dwarf the
         bounded event ring. *)
      let live = Hashtbl.create 256 in
      iter (fun ev -> Hashtbl.replace live ev.tid ());
      List.iter
        (fun (fid, label) ->
          if Hashtbl.mem live fid then begin
            sep ();
            Buffer.add_string buf
              (Printf.sprintf
                 "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":%d,\"args\":{\"name\":"
                 fid);
            Json.str_into buf (Printf.sprintf "%s/%d" label fid);
            Buffer.add_string buf "}}"
          end)
        (Int_table.bindings s.names);
      iter (fun ev ->
          sep ();
          emit_event buf ev);
      Buffer.add_string buf "],\"displayTimeUnit\":\"ms\",\"otherData\":{";
      Buffer.add_string buf
        (Printf.sprintf
           "\"clock\":\"virtual-us\",\"events\":%d,\"dropped\":%d,\"causal\":%b,\"sample_interval_us\":%s}}"
           kept
           (Sink.dropped s.sink + recorded - kept)
           s.causal (Json.num_str s.sample_interval))

let export_string t =
  let buf = Buffer.create 65536 in
  export t buf;
  Buffer.contents buf

(* --- virtual-CPU profile ------------------------------------------------- *)

let profile_rows t =
  match t.state with
  | None -> []
  | Some s ->
      List.rev s.profile_order
      |> List.map (fun key ->
             let cell = Hashtbl.find s.profile key in
             (key, cell.p_total, cell.p_count))
      |> List.sort (fun (ka, ta, _) (kb, tb, _) ->
             if ta <> tb then compare tb ta else String.compare ka kb)

let profile_table ?(top = 20) t =
  let rows = profile_rows t in
  let total = List.fold_left (fun acc (_, v, _) -> acc +. v) 0.0 rows in
  let tbl =
    Wafl_util.Table.create ~headers:[ "span stack (virtual-CPU profile)"; "virt us"; "charges"; "share" ]
  in
  let shown = ref 0 in
  List.iter
    (fun (key, v, n) ->
      if !shown < top then begin
        incr shown;
        Wafl_util.Table.add_row tbl
          [
            key;
            Printf.sprintf "%.1f" v;
            string_of_int n;
            Printf.sprintf "%.1f%%" (if total > 0.0 then 100.0 *. v /. total else 0.0);
          ]
      end)
    rows;
  if List.length rows > top then
    Wafl_util.Table.add_row tbl
      [ Printf.sprintf "... %d more" (List.length rows - top); ""; ""; "" ];
  Wafl_util.Table.render tbl
