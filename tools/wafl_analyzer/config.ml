(* Static configuration of the whole-program analyzer: which units are
   below the model (exempt substrate), which stdlib/util modules are
   passive containers whose mutations are attributed to the caller, what
   counts as a probe declaration, a blocking primitive, or a fiber
   spawner.  Kept in one place so the analysis rules are auditable. *)

(* Units whose internal state is the simulation substrate itself — the
   engine, the race detector, the sync primitives and the observability
   sinks implement the probe/edge machinery, so they sit below the
   abstraction the analyzer checks.  Counters is the relaxed monotonic
   counter registry: the dynamic sanitizer orders its bumps through the
   probe_atomic declarations at the enclosing touchpoints, and a static
   per-bump requirement would demand a probe at every counter increment
   in the tree. *)
let exempt_units =
  [ "Engine"; "Race"; "Sync"; "Cost"; (* lib/sim: the substrate *)
    "Partition"; (* lib/sim: the partitioned-engine coordinator — its
                    outbox/inbox/horizon state is the window-barrier
                    machinery itself, mutated only between barriers or by
                    the owning partition's fibers *)
    "Trace"; "Sink"; "Metrics"; "Causal"; "Json"; (* lib/obs: host-side, never schedules *)
    "Isolation"; (* the affinity checker itself *)
    "Counters"; (* relaxed counters, see above *)
    "Pool" (* the worker-domain pool: its team barrier is built from
              host Mutex/Condition/Atomic, below the model *) ]

(* Passive containers: mutable data structures with no identity of their
   own.  An access inside them is attributed to the *caller's* argument
   (e.g. [Histogram.add rec_.whist x] is a write to the recorder's
   [whist] field), and their own bodies are not findings.  Per module:
   (name, writes, reads); a call to a function not listed is ignored
   (pure or shape-only). *)
let containers =
  [
    ( "Hashtbl",
      [ "add"; "replace"; "remove"; "clear"; "reset"; "filter_map_inplace" ],
      [ "find"; "find_opt"; "find_all"; "mem"; "length"; "iter"; "fold" ] );
    ( "Array",
      [ "set"; "unsafe_set"; "fill"; "blit"; "sort"; "fast_sort" ],
      [ "get"; "unsafe_get" ] );
    ("Stack", [ "push"; "pop"; "clear" ], [ "top"; "length" ]);
    ("Buffer", [ "add_string"; "add_char"; "clear"; "reset" ], [ "contents"; "length" ]);
    ("Bytes", [ "set"; "unsafe_set"; "fill"; "blit" ], [ "get"; "unsafe_get" ]);
    (* lib/util containers *)
    ( "Slab",
      [ "set32"; "set64"; "unsafe_set32"; "unsafe_set64"; "fill"; "blit" ],
      [ "get32"; "get64"; "unsafe_get32"; "unsafe_get64"; "length" ] );
    ("Fifo", [ "push"; "pop" ], [ "peek"; "length"; "is_empty" ]);
    ("Histogram", [ "add"; "merge"; "clear" ], [ "percentile"; "count"; "mean"; "max" ]);
    ( "Intvec",
      [ "push"; "set"; "clear"; "extract"; "blit"; "sort" ],
      [ "get"; "length"; "bindings" ] );
    ("Dense_set", [ "add"; "clear" ], [ "mem"; "cardinal"; "elements"; "elements_desc" ]);
    ( "Int_table",
      [ "replace"; "clear" ],
      [ "mem"; "find_opt"; "find"; "length"; "bindings" ] );
    ("Word_table", [ "replace"; "remove" ], [ "mem"; "find"; "length" ]);
    ("Table", [ "add_row"; "clear" ], []);
    (* A seeded PRNG advances internal state on every draw. *)
    ("Rng", [ "int"; "float"; "bool"; "exponential"; "split"; "shuffle" ], []);
  ]

(* Container units own no families of their own: their internal field
   mutations are the caller's accesses (attributed via [containers]
   above), so bodies of these lib/util modules never produce coverage
   findings. *)
let container_units = List.map (fun (m, _, _) -> m) containers
let is_container_unit u = List.mem u container_units

let probe_fns = [ "probe"; "probe_atomic"; "probe_locked" ]
let is_probe ~unit_ ~fn = unit_ = "Engine" && List.mem fn probe_fns

(* Fiber / message entry points: the function argument becomes a
   scheduler root.  (unit, function, nth positional argument counting
   only unlabeled arguments — the body closure.) *)
let spawners = [ ("Engine", "spawn"); ("Scheduler", "post"); ("Scheduler", "post_wait") ]

(* Worker-domain fan-out points: closures handed to these run
   concurrently on OCaml 5 domains (real parallelism, unlike fibers).
   The collector marks every function value in their argument lists as a
   domain root for the domain-safety pass. *)
let domain_spawners =
  [ ("Pool", "run"); ("Pool", "map"); ("Pool", "team_run"); ("Exp", "par_map") ]

(* Record fields (unit of the record type, field) whose one value is
   built on the host before a fan-out and then mutated by every pool
   worker: the experiment context's run table and request log.  The
   domain-safety pass treats writes to them like writes to module-level
   state, so each needs a held mutex.  Other fields are per-run state
   owned by one domain and stay exempt. *)
let shared_fields = [ ("Exp", "runs"); ("Exp", "asked") ]

(* Blocking primitives for the blocking-while-holding-lock pass.
   [Mutex.lock] is deliberately absent: acquiring a second lock is
   the subject of the lock-order pass, not a blocking finding. *)
let blocking =
  [
    ("Engine", "sleep");
    ("Engine", "park");
    ("Engine", "join");
    ("Waitq", "wait");
    ("Condition", "wait");
    ("Channel", "send");
    ("Channel", "recv");
    ("Scheduler", "post_wait");
    ("Scheduler", "drain");
    ("Aggregate", "wait_for_log_space");
  ]

let is_blocking ~unit_ ~fn = List.mem (unit_, fn) blocking

(* Lock primitives: the host Stdlib Mutex and Condition (the model takes
   no simulated lock).  Matched on a call path's last two parts,
   ["Mutex"; op] etc., however the module was reached. *)
let is_lock = function "Mutex", "lock" -> true | _ -> false
let is_unlock = function "Mutex", "unlock" -> true | _ -> false
let is_protect = function "Mutex", "protect" -> true | _ -> false
let is_condition_wait = function "Condition", "wait" -> true | _ -> false
let is_register_owner ~unit_ ~fn = unit_ = "Isolation" && fn = "register_owner"
