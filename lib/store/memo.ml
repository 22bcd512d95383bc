type stats = { lookups : int; hits : int; misses : int }

type kernel = Seam_free | Touches_seams

type 'v cell = Computing | Done of 'v

(* a deterministic tally, mirrored into an [Obs.Metrics] counter when
   the table was created with [?metrics] *)
type tally = { mutable n : int; metric : Obs.Metrics.counter option }

type 'v t = {
  kernel : kernel;
  lock : Mutex.t;
  cond : Condition.t;
  table : (string, 'v cell) Hashtbl.t;
  lookups : tally;
  hits : tally;
  misses : tally;
}

let bump c =
  c.n <- c.n + 1;
  Option.iter Obs.Metrics.incr c.metric

let reset t =
  Mutex.protect t.lock (fun () ->
      Hashtbl.reset t.table;
      List.iter (fun c -> c.n <- 0) [ t.lookups; t.hits; t.misses ])

(* every table ever created, for [reset_all] *)
let registry_lock = Mutex.create ()
let registry : (unit -> unit) list ref = ref []

let create ?metrics ~kernel () =
  let tally name =
    { n = 0;
      metric =
        Option.map (fun prefix -> Obs.Metrics.counter (prefix ^ "." ^ name)) metrics }
  in
  let t =
    { kernel; lock = Mutex.create (); cond = Condition.create ();
      table = Hashtbl.create 64; lookups = tally "lookups"; hits = tally "hits";
      misses = tally "misses" }
  in
  Mutex.protect registry_lock (fun () ->
      registry := (fun () -> reset t) :: !registry);
  t

let reset_all () =
  List.iter (fun r -> r ()) (Mutex.protect registry_lock (fun () -> !registry))

let stats t =
  Mutex.protect t.lock (fun () ->
      { lookups = t.lookups.n; hits = t.hits.n; misses = t.misses.n })

let length t =
  Mutex.protect t.lock (fun () ->
      Hashtbl.fold (fun _ c n -> match c with Done _ -> n + 1 | Computing -> n) t.table 0)

(* The first caller of a key publishes [Computing] and evaluates
   outside the lock; concurrent callers of the same key wait on the
   condvar instead of recomputing.  That keeps the counters
   deterministic under any scheduling: [misses] = keys computed,
   [hits] = lookups - misses.  A raise removes the marker, so a waiter
   retries the key itself. *)
let find t key compute =
  if t.kernel = Touches_seams && Fault.Hooks.current () <> None then compute ()
  else begin
    Mutex.lock t.lock;
    bump t.lookups;
    let rec acquire () =
      match Hashtbl.find_opt t.table key with
      | Some (Done v) ->
          bump t.hits;
          Mutex.unlock t.lock;
          v
      | Some Computing ->
          Condition.wait t.cond t.lock;
          acquire ()
      | None -> (
          bump t.misses;
          Hashtbl.replace t.table key Computing;
          Mutex.unlock t.lock;
          let settle cell =
            Mutex.lock t.lock;
            (match cell with
             | Some v -> Hashtbl.replace t.table key (Done v)
             | None -> Hashtbl.remove t.table key);
            Condition.broadcast t.cond;
            Mutex.unlock t.lock
          in
          match compute () with
          | v ->
              settle (Some v);
              v
          | exception e ->
              settle None;
              raise e)
    in
    acquire ()
  end

let cached t ~tag ~key compute = find t key (fun () -> Handle.cached ~tag ~key compute)
