type mutation = Drop_step of int | Dup_step of int

type io_fault =
  | Io_torn of int
  | Io_flip of int * int
  | Io_error of string
  | Io_crash

type t = {
  plan : Plan.t;
  rng : Vulndb.Prng.t;
  mutable allocs : int;
  mutable recvs : int;
  mutable writes : int;
  mutable schedules : int;
  mutable store_writes : int;
  mutable log : run list;   (* newest first *)
  mutable count : int;   (* events in [log] *)
  mutable last_clamp : (int * Event.t) option;   (* requested, its event *)
}

(* The event log is run-length encoded: consecutive equal events share
   one entry.  A divergent read loop under a clamping plan fires the
   same clamp hundreds of thousands of times. *)
and run = { event : Event.t; mutable repeats : int }

let create plan =
  { plan;
    rng = Vulndb.Prng.create ~seed:plan.Plan.seed;
    allocs = 0;
    recvs = 0;
    writes = 0;
    schedules = 0;
    store_writes = 0;
    log = [];
    count = 0;
    last_clamp = None }

let plan t = t.plan

let events t =
  List.fold_left
    (fun acc r ->
       let rec push acc n = if n = 0 then acc else push (r.event :: acc) (n - 1) in
       push acc r.repeats)
    [] t.log

let event_count t = t.count

let m_injected = Obs.Metrics.counter "fault.injected"

let record_event t (e : Event.t) =
  Obs.Metrics.incr m_injected;
  if Obs.Trace.enabled () then
    Obs.Span.instant ~cat:"fault"
      ~args:[ ("seam", e.Event.seam); ("detail", e.Event.detail) ]
      "fault.injected";
  t.count <- t.count + 1;
  match t.log with
  | r :: _ when r.event == e || r.event = e -> r.repeats <- r.repeats + 1
  | _ -> t.log <- { event = e; repeats = 1 } :: t.log

let record t ~seam detail = record_event t (Event.make ~seam detail)

let chance t = function
  | None -> false
  | Some percent -> Vulndb.Prng.below t.rng 100 < percent

let heap_alloc_fails t ~requested =
  t.allocs <- t.allocs + 1;
  match t.plan.Plan.heap_fail_percent with
  | None -> false
  | Some _ as p ->
      let fails = chance t p in
      if fails then
        record t ~seam:"machine.heap"
          (Printf.sprintf "malloc(%d) denied (allocation #%d)" requested t.allocs);
      fails

(* The socket seam both clamps the granted chunk and, past the
   configured call count, resets the connection. *)
let recv_request t ~requested ~consumed =
  let idx = t.recvs in
  t.recvs <- idx + 1;
  (match t.plan.Plan.socket_reset_after with
   | Some k when idx >= k ->
       record t ~seam:"osmodel.socket"
         (Printf.sprintf "connection reset at recv #%d" (idx + 1));
       Condition.fail (Condition.Socket_reset { consumed })
   | Some _ | None -> ());
  match t.plan.Plan.recv_max_chunk with
  | Some chunk when requested > chunk ->
      (* the chunk is the plan's, so the requested size alone decides
         the event: a repeat reuses it and formats nothing *)
      let e =
        match t.last_clamp with
        | Some (r, e) when r = requested -> e
        | Some _ | None ->
            let e =
              Event.make ~seam:"osmodel.socket"
                (Printf.sprintf "recv(%d) clamped to %d bytes" requested chunk)
            in
            t.last_clamp <- Some (requested, e);
            e
      in
      record_event t e;
      chunk
  | Some _ | None -> requested

(* Denial is a pure function of (seed, path), NOT a PRNG draw: the
   access(2)-style check and the later open(2) must agree on the same
   path, exactly as a sticky EACCES would in a real filesystem. *)
let fs_denies t ~path =
  match t.plan.Plan.fs_deny_percent with
  | None -> false
  | Some percent ->
      let h = Hashtbl.hash (t.plan.Plan.seed, "fs", path) in
      let denied = h mod 100 < percent in
      if denied then
        record t ~seam:"osmodel.filesystem" (Printf.sprintf "EACCES on %s" path);
      denied

let mangle t s =
  match t.plan.Plan.bitflip_percent with
  | None -> s
  | Some _ as p ->
      t.writes <- t.writes + 1;
      if String.length s = 0 || not (chance t p) then s
      else begin
        let off = Vulndb.Prng.below t.rng (String.length s) in
        let bit = Vulndb.Prng.below t.rng 8 in
        let b = Bytes.of_string s in
        Bytes.set b off
          (Char.chr (Char.code (Bytes.get b off) lxor (1 lsl bit)));
        record t ~seam:"machine.memory"
          (Printf.sprintf "bit %d of byte %d flipped in a %d-byte write" bit off
             (String.length s));
        Bytes.to_string b
      end

(* At most one fault per store write, first matching knob wins: a
   record is torn OR flipped OR denied OR orphaned, so a degraded read
   maps back to exactly one injected event.  [len] is the full on-disk
   record size (header + payload); a torn write keeps a strict prefix,
   so the checksum can never accidentally survive. *)
let store_write t ~len =
  if not (Plan.io_active t.plan) then None
  else begin
    t.store_writes <- t.store_writes + 1;
    let write = t.store_writes in
    if len > 0 && chance t t.plan.Plan.io_torn_percent then begin
      let keep = Vulndb.Prng.below t.rng len in
      record t ~seam:"store.io"
        (Printf.sprintf "write #%d torn: %d of %d bytes reach disk" write keep
           len);
      Some (Io_torn keep)
    end
    else if len > 0 && chance t t.plan.Plan.io_flip_percent then begin
      let off = Vulndb.Prng.below t.rng len in
      let bit = Vulndb.Prng.below t.rng 8 in
      record t ~seam:"store.io"
        (Printf.sprintf "write #%d corrupted: bit %d of byte %d flipped" write
           bit off);
      Some (Io_flip (off, bit))
    end
    else if chance t t.plan.Plan.io_error_percent then begin
      let errno =
        if Vulndb.Prng.below t.rng 2 = 0 then "ENOSPC" else "EACCES"
      in
      record t ~seam:"store.io"
        (Printf.sprintf "write #%d failed: %s" write errno);
      Some (Io_error errno)
    end
    else if chance t t.plan.Plan.io_crash_percent then begin
      record t ~seam:"store.io"
        (Printf.sprintf "write #%d crashed before rename (orphan tmp)" write);
      Some Io_crash
    end
    else None
  end

let schedule_mutation t ~steps =
  if steps = 0 then None
  else begin
    t.schedules <- t.schedules + 1;
    if chance t t.plan.Plan.sched_drop_percent then begin
      let i = Vulndb.Prng.below t.rng steps in
      record t ~seam:"osmodel.scheduler"
        (Printf.sprintf "step %d of %d dropped (schedule #%d)" i steps t.schedules);
      Some (Drop_step i)
    end
    else if chance t t.plan.Plan.sched_dup_percent then begin
      let i = Vulndb.Prng.below t.rng steps in
      record t ~seam:"osmodel.scheduler"
        (Printf.sprintf "step %d of %d duplicated (schedule #%d)" i steps t.schedules);
      Some (Dup_step i)
    end
    else None
  end
