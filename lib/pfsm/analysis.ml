type pfsm_finding = {
  operation : string;
  pfsm : Primitive.t;
  missing_check : bool;
  hidden_hits : int;
  example : Env.t option;
}

type report = {
  model : Model.t;
  scenarios_run : int;
  traces : (Env.t * Trace.t) list;
  findings : pfsm_finding list;
}

(* ---- digest-keyed trace memo --------------------------------------
   Key = model digest x scenario digest, each the MD5 of the marshal
   image (closures included).  Sound because [Model.run] is pure —
   predicates, actions and effects are arithmetic over the env, with
   no fault-seam calls — so equal inputs always yield the equal trace,
   installed injector or not: the table is [Seam_free].  Hashconsing
   ([Primitive.make] interns every predicate) makes the marshal image's
   sharing a function of structure, so two independently built but
   identical models collide on the same key.  The compute-once table
   itself is [Store.Memo]. *)

type memo_stats = Store.Memo.stats = { lookups : int; hits : int; misses : int }

let memo : Trace.t Store.Memo.t =
  Store.Memo.create ~metrics:"pfsm.memo" ~kernel:Store.Memo.Seam_free ()

let analyze_allocs = Obs.Allocs.scope "pfsm.analyze"

(* Both halves of the key are cached by physical identity in bounded
   [Store.Digest_cache] rings: models and scenario envs are immutable,
   and a model is built once and analyzed against scenarios that are
   themselves built once (serve's per-app table), so a warm lookup
   pays no Marshal or MD5 at all. *)

let model_digests : Model.t Store.Digest_cache.t = Store.Digest_cache.create ()

let env_digests : Env.t Store.Digest_cache.t = Store.Digest_cache.create ()

type digest_cache_stats = Store.Digest_cache.stats = {
  entries : int;
  capacity : int;
  evictions : int;
}

let digest_cache_stats () = Store.Digest_cache.stats model_digests

(* hex spelling: the same key serves the memory tier and the store
   (store keys must be lowercase hex) *)
let memo_key model env =
  Store.Digest_cache.find model_digests model Store.Digest_cache.marshal_hex
  ^ Store.Digest_cache.find env_digests env Store.Digest_cache.marshal_hex

(* Persistent tier: when the CLI has installed an ambient store, an
   in-memory miss consults it before computing and a computed trace is
   written back.  Both directions degrade silently to compute — a
   corrupt or stale record reads as a miss (evicted and counted by the
   store), a failed write leaves the run on the in-memory tier. *)
let store_tag = "pfsm-trace"

let memo_stats () = Store.Memo.stats memo

let memo_reset () = Store.Memo.reset memo

let run_memo model ~env =
  Store.Memo.cached memo ~tag:store_tag ~key:(memo_key model env) (fun () ->
      Model.run model ~env)

let analyze ?(par = false) ?memo model ~scenarios =
  (* when the CLI installed a persistent store, memoize by default so
     every analysis routes through it; memoization never changes the
     report, only where traces come from *)
  let memo =
    match memo with Some m -> m | None -> Store.Handle.get () <> None
  in
  Obs.Span.with_span ~cat:"pfsm"
    ~args:[ ("scenarios", string_of_int (List.length scenarios)) ]
    "pfsm.analyze"
  @@ fun () ->
  Obs.Allocs.measure analyze_allocs @@ fun () ->
  let run env =
    if memo then run_memo model ~env else Model.run model ~env
  in
  let trace_of env = (env, run env) in
  let traces =
    if par then Par.map_list trace_of scenarios
    else List.map trace_of scenarios
  in
  let finding_of (op_name, pfsm) =
    let hits =
      List.filter_map
        (fun (env, trace) ->
           let hit s =
             s.Trace.operation = op_name
             && s.Trace.pfsm.Primitive.name = pfsm.Primitive.name
             && s.Trace.verdict.Primitive.hidden
           in
           if List.exists hit trace.Trace.steps then Some env else None)
        traces
    in
    { operation = op_name;
      pfsm;
      missing_check = Primitive.missing_check pfsm;
      hidden_hits = List.length hits;
      example = (match hits with [] -> None | env :: _ -> Some env) }
  in
  { model;
    scenarios_run = List.length scenarios;
    traces;
    findings = List.map finding_of (Model.all_pfsms model) }

let exploited report =
  List.filter (fun (_, trace) -> Trace.exploited trace) report.traces

let vulnerable_pfsms report = List.filter (fun f -> f.hidden_hits > 0) report.findings

module String_set = Set.Make (String)

let vulnerable_operations report =
  (* one set fold instead of re-sorting the whole operation list; the
     rendering contract (ascending, unique) is unchanged *)
  List.fold_left
    (fun acc f -> String_set.add f.operation acc)
    String_set.empty (vulnerable_pfsms report)
  |> String_set.elements

(* The distinct spec/impl predicates of a model, packed over intern
   ids.  [Primitive.make] interned every predicate, so [Predset.add]
   is a table lookup plus a bit set — no structural compares. *)
let model_predset model =
  List.fold_left
    (fun acc (_, p) ->
      Predset.add p.Primitive.spec (Predset.add p.Primitive.impl acc))
    Predset.empty (Model.all_pfsms model)

let taxonomy_matrix model =
  let pfsms = Model.all_pfsms model in
  let bucket kind =
    (kind,
     List.filter (fun (_, p) -> Taxonomy.equal p.Primitive.kind kind) pfsms)
  in
  List.map bucket Taxonomy.all

let security_checks report =
  List.map (fun f -> (f.operation, f.pfsm)) (vulnerable_pfsms report)
