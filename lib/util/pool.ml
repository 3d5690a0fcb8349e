(* Worker-domain pool.  See the interface for the contract; the
   implementation is a shared atomic task index: each domain claims the
   next unclaimed task, writes its result into a slot keyed by the
   task's input position, and the caller reads the slots back in input
   order after every domain joins.  Completion order is irrelevant, so
   the merge is deterministic by construction. *)

let default_domains () =
  match Sys.getenv_opt "WAFL_DOMAINS" with
  | None | Some "" -> Domain.recommended_domain_count ()
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n when n >= 1 -> n
      | _ -> invalid_arg (Printf.sprintf "WAFL_DOMAINS=%S: expected a positive integer" s))

(* A task either produced a value or raised; [Pending] only survives a
   task that never ran, which cannot happen once every domain joins. *)
type 'a slot = Pending | Value of 'a | Raised of exn

let run ~domains tasks =
  match tasks with
  | [] -> []
  | [ t ] -> [ t () ]
  | _ when domains <= 1 -> List.map (fun t -> t ()) tasks
  | _ ->
      let tasks = Array.of_list tasks in
      let n = Array.length tasks in
      let slots = Array.make n Pending in
      let next = Atomic.make 0 in
      let worker () =
        let continue = ref true in
        while !continue do
          let i = Atomic.fetch_and_add next 1 in
          if i >= n then continue := false
          else
            slots.(i) <- (match tasks.(i) () with v -> Value v | exception e -> Raised e)
        done
      in
      (* The calling domain is one of the workers, so [domains] bounds the
         total concurrency, not the extra threads. *)
      let spawned = List.init (min (domains - 1) (n - 1)) (fun _ -> Domain.spawn worker) in
      worker ();
      List.iter Domain.join spawned;
      (* First failure in input order wins, whatever order tasks ran in. *)
      Array.iter (function Raised e -> raise e | _ -> ()) slots;
      Array.to_list
        (Array.map (function Value v -> v | Pending | Raised _ -> assert false) slots)

let map ~domains f xs = run ~domains (List.map (fun x () -> f x) xs)

(* --- persistent teams ---------------------------------------------------

   A generation barrier: the coordinator publishes a batch under the
   mutex and bumps [gen]; workers wake on the condition variable, claim
   tasks from the shared atomic index, and report completion back
   through [finished].  Publishing before the broadcast and counting
   completions under the same mutex gives the happens-before edges both
   directions need, so the task array and error slots are never read
   concurrently with a write. *)

type team_state = {
  mu : Mutex.t;
  cv : Condition.t; (* both directions: new generation, and batch done *)
  mutable gen : int;
  mutable tasks : (unit -> unit) array;
  next_idx : int Atomic.t;
  mutable errors : exn option array;
  mutable finished : int; (* workers done with the current generation *)
  mutable shutdown : bool;
}

type team = {
  st : team_state;
  workers : unit Domain.t list;
  n : int; (* total concurrency: workers + the coordinator *)
  mutable stopped : bool;
}

let team_drain st =
  let tasks = st.tasks and errors = st.errors in
  let ntasks = Array.length tasks in
  let continue = ref true in
  while !continue do
    let i = Atomic.fetch_and_add st.next_idx 1 in
    if i >= ntasks then continue := false
    else match tasks.(i) () with () -> () | exception e -> errors.(i) <- Some e
  done

let team ~domains =
  let n = max 1 domains in
  let st =
    {
      mu = Mutex.create ();
      cv = Condition.create ();
      gen = 0;
      tasks = [||];
      next_idx = Atomic.make 0;
      errors = [||];
      finished = 0;
      shutdown = false;
    }
  in
  let worker () =
    let seen = ref 0 in
    let continue = ref true in
    while !continue do
      Mutex.lock st.mu;
      while st.gen = !seen && not st.shutdown do
        Condition.wait st.cv st.mu
      done;
      if st.shutdown then continue := false
      else begin
        seen := st.gen;
        Mutex.unlock st.mu;
        team_drain st;
        Mutex.lock st.mu;
        st.finished <- st.finished + 1;
        Condition.broadcast st.cv
      end;
      Mutex.unlock st.mu
    done
  in
  { st; workers = List.init (n - 1) (fun _ -> Domain.spawn worker); n; stopped = false }

let team_run tm tasks =
  match tasks with
  | [] -> ()
  | _ when tm.n = 1 -> List.iter (fun t -> t ()) tasks
  | _ ->
      let st = tm.st in
      let tasks = Array.of_list tasks in
      let errors = Array.make (Array.length tasks) None in
      Mutex.lock st.mu;
      st.tasks <- tasks;
      st.errors <- errors;
      Atomic.set st.next_idx 0;
      st.finished <- 0;
      st.gen <- st.gen + 1;
      Condition.broadcast st.cv;
      Mutex.unlock st.mu;
      team_drain st;
      Mutex.lock st.mu;
      while st.finished < tm.n - 1 do
        Condition.wait st.cv st.mu
      done;
      st.tasks <- [||];
      st.errors <- [||];
      Mutex.unlock st.mu;
      Array.iter (function Some e -> raise e | None -> ()) errors

let team_stop tm =
  if not tm.stopped then begin
    tm.stopped <- true;
    let st = tm.st in
    Mutex.lock st.mu;
    st.shutdown <- true;
    Condition.broadcast st.cv;
    Mutex.unlock st.mu;
    List.iter Domain.join tm.workers
  end
