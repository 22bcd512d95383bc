let synthetic_id_base = 100_000

let legacy_total = Category.total_reports

(* Flaw mechanism targets per category at the legacy total.  Family
   total: 700 + 150 + 60 + 50 + 250 + 100 = 1310 of 5925 = 22.1%, the
   paper's "22% of all vulnerabilities". *)
let flaw_quota = function
  | Category.Boundary_condition_error ->
      [ (Report.Stack_buffer_overflow, 700); (Report.Heap_overflow, 150);
        (Report.Integer_overflow, 60) ]
  | Category.Input_validation_error ->
      [ (Report.Format_string, 250); (Report.Path_traversal, 300) ]
  | Category.Failure_to_handle_exceptional_conditions ->
      [ (Report.Integer_overflow, 50) ]
  | Category.Race_condition_error -> [ (Report.File_race, 100) ]
  | Category.Access_validation_error
  | Category.Atomicity_error
  | Category.Configuration_error
  | Category.Design_error
  | Category.Environment_error
  | Category.Origin_validation_error
  | Category.Serialization_error
  | Category.Unknown -> []

let software_pool =
  [| "AcmeHTTPd"; "OpenLPD"; "MegaFTPd"; "QuickIMAPd"; "NetTelnetd"; "FastDNSd";
     "ProxyCacheD"; "MailRelayd"; "WebCartPro"; "StatCGI"; "AuthGate"; "NewsSpool";
     "PrintSrv"; "IRCore"; "TimeSyncd"; "DirIndexer"; "FormMailer"; "ChatServ";
     "LogRotated"; "BackupMgr" |]

let flaw_phrase = function
  | Report.Stack_buffer_overflow -> "Buffer Overflow Vulnerability"
  | Report.Heap_overflow -> "Heap Corruption Vulnerability"
  | Report.Integer_overflow -> "Signed Integer Overflow Vulnerability"
  | Report.Format_string -> "Format String Vulnerability"
  | Report.File_race -> "Temporary File Race Condition Vulnerability"
  | Report.Path_traversal -> "Directory Traversal Vulnerability"
  | Report.Other_flaw -> "Vulnerability"

let category_phrase c =
  match c with
  | Category.Access_validation_error -> "Access Validation"
  | Category.Atomicity_error -> "Partial Update"
  | Category.Boundary_condition_error -> "Boundary Condition"
  | Category.Configuration_error -> "Default Configuration"
  | Category.Design_error -> "Design"
  | Category.Environment_error -> "Environment Interaction"
  | Category.Failure_to_handle_exceptional_conditions -> "Exception Handling"
  | Category.Input_validation_error -> "Input Validation"
  | Category.Origin_validation_error -> "Origin Validation"
  | Category.Race_condition_error -> "Race Condition"
  | Category.Serialization_error -> "Serialization"
  | Category.Unknown -> "Unspecified"

(* ------------------------------------------------------------------ *)
(* The validated corpus plan. *)

type error =
  | Invalid_total of int
  | Invalid_chunk of int
  | Duplicate_curated_id of int
  | Id_overflow of { base : int; count : int }

let error_to_string = function
  | Invalid_total t ->
      Printf.sprintf "invalid corpus total %d: must be at least 1" t
  | Invalid_chunk c ->
      Printf.sprintf "invalid chunk size %d: must be at least 1" c
  | Duplicate_curated_id id ->
      Printf.sprintf "duplicate curated report id %d" id
  | Id_overflow { base; count } ->
      Printf.sprintf
        "synthetic id block of %d ids starting at %d overflows the id space"
        count base

type segment = {
  seg_category : Category.t;
  seg_flaw : Report.flaw;
  seg_first : int;  (* first synthetic position of this segment *)
  seg_count : int;
}

type plan = {
  target : int;
  curated : Report.t array;  (* ascending id *)
  synthetic : int;           (* synthetic positions in total *)
  segments : segment array;  (* contiguous, covering [0, synthetic) *)
  skips : int array;         (* curated ids >= synthetic_id_base, ascending *)
  digest : string;
}

(* Largest-remainder apportionment of [total] over the Figure-1
   category counts: exact at the legacy total, proportional (within
   one report) anywhere else, deterministic tie-break by category
   order. *)
let scaled_targets total =
  let cats = Array.of_list Category.all in
  let n = Array.length cats in
  let targets = Array.make n 0 and rems = Array.make n 0 in
  Array.iteri
    (fun i c ->
      let share = Category.paper_count c * total in
      targets.(i) <- share / legacy_total;
      rems.(i) <- share mod legacy_total)
    cats;
  let leftover = total - Array.fold_left ( + ) 0 targets in
  let order = Array.init n Fun.id in
  Array.sort
    (fun a b ->
      match compare rems.(b) rems.(a) with 0 -> compare a b | c -> c)
    order;
  for k = 0 to leftover - 1 do
    let i = order.(k) in
    targets.(i) <- targets.(i) + 1
  done;
  (cats, targets)

let digest_of ~target ~curated ~segments ~skips =
  let b = Buffer.create 1024 in
  Buffer.add_string b (Printf.sprintf "dfsm-synth-plan/1|%d|%d" target synthetic_id_base);
  Array.iter
    (fun (r : Report.t) ->
      Buffer.add_char b '|';
      Buffer.add_string b (Csv.of_report r))
    curated;
  Array.iter
    (fun s ->
      Buffer.add_string b
        (Printf.sprintf "|%s/%s@%d+%d"
           (Category.to_string s.seg_category)
           (Report.flaw_to_string s.seg_flaw)
           s.seg_first s.seg_count))
    segments;
  Array.iter (fun id -> Buffer.add_string b (Printf.sprintf "|skip%d" id)) skips;
  Digest.to_hex (Digest.string (Buffer.contents b))

let plan ?(curated = Seed_data.reports) ~total () =
  (* [scaled_targets] multiplies paper counts by [total]; reject
     totals that could overflow that product (typed, up front). *)
  if total < 1 then Error (Invalid_total total)
  else if total > max_int / legacy_total then
    Error (Id_overflow { base = synthetic_id_base; count = total })
  else begin
    let curated =
      Array.of_list
        (List.sort (fun (a : Report.t) (b : Report.t) -> compare a.Report.id b.Report.id)
           curated)
    in
    let dup = ref None in
    Array.iteri
      (fun i (r : Report.t) ->
        if !dup = None && i > 0 && curated.(i - 1).Report.id = r.Report.id then
          dup := Some r.Report.id)
      curated;
    match !dup with
    | Some id -> Error (Duplicate_curated_id id)
    | None ->
        let curated_in category flaw_opt =
          Array.fold_left
            (fun acc (r : Report.t) ->
              if
                Category.equal r.Report.category category
                && (match flaw_opt with None -> true | Some f -> r.Report.flaw = f)
              then acc + 1
              else acc)
            0 curated
        in
        let cats, targets = scaled_targets total in
        let segments = ref [] and pos = ref 0 in
        let push category flaw count =
          if count > 0 then begin
            segments :=
              { seg_category = category; seg_flaw = flaw; seg_first = !pos;
                seg_count = count }
              :: !segments;
            pos := !pos + count
          end
        in
        Array.iteri
          (fun i category ->
            let per_flaw =
              List.map
                (fun (flaw, quota) ->
                  let scaled = quota * total / legacy_total in
                  (flaw, max 0 (scaled - curated_in category (Some flaw))))
                (flaw_quota category)
            in
            let emitted = List.fold_left (fun acc (_, n) -> acc + n) 0 per_flaw in
            let other =
              max 0 (targets.(i) - (curated_in category None + emitted))
            in
            List.iter (fun (flaw, n) -> push category flaw n) per_flaw;
            push category Report.Other_flaw other)
          cats;
        let synthetic = !pos in
        let segments = Array.of_list (List.rev !segments) in
        let skips =
          Array.of_list
            (List.filter
               (fun id -> id >= synthetic_id_base)
               (Array.to_list (Array.map (fun (r : Report.t) -> r.Report.id) curated)))
        in
        if
          synthetic > 0
          && synthetic > max_int - synthetic_id_base - Array.length skips
        then Error (Id_overflow { base = synthetic_id_base; count = synthetic })
        else
          Ok
            { target = total; curated; synthetic; segments; skips;
              digest = digest_of ~target:total ~curated ~segments ~skips }
  end

let plan_size p = Array.length p.curated + p.synthetic

let plan_synthetic p = p.synthetic

let plan_digest p = p.digest

let chunk_count p ~chunk = (plan_size p + chunk - 1) / chunk

(* Synthetic ids count up from the base, stepping over curated ids
   that live inside the block (ascending cascade: every skipped id
   shifts the rest of the block up by one). *)
let id_at p pos =
  let id = ref (synthetic_id_base + pos) in
  Array.iter (fun s -> if s <= !id then incr id) p.skips;
  !id

let seg_at p sp =
  let lo = ref 0 and hi = ref (Array.length p.segments - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    let s = p.segments.(mid) in
    if sp < s.seg_first then hi := mid - 1
    else if sp >= s.seg_first + s.seg_count then lo := mid + 1
    else begin
      lo := mid;
      hi := mid
    end
  done;
  p.segments.(!lo)

(* ------------------------------------------------------------------ *)
(* Report synthesis.  Every drawn string comes from a small finite set
   (dates: 5 years x 12 months x 28 days; software: 20 pool names x 5
   major x 10 minor versions; titles: one per software name within a
   segment), so each is built without Printf and, inside one chunk,
   interned: the first report to draw a value builds it and every
   later report of the chunk shares it.  Sharing also lets Marshal
   write each string once per chunk record.  The tables belong to one
   [chunk_reports] call, so Par workers share nothing mutable. *)

let versions = 5 * 10

let digit n = Char.unsafe_chr (Char.code '0' + n)

(* [k] = (pool * 5 + major) * 10 + minor *)
let build_software k =
  let name = software_pool.(k / versions) in
  let n = String.length name in
  let b = Bytes.create (n + 4) in
  Bytes.blit_string name 0 b 0 n;
  Bytes.set b n ' ';
  Bytes.set b (n + 1) (digit (k / 10 mod 5));
  Bytes.set b (n + 2) '.';
  Bytes.set b (n + 3) (digit (k mod 10));
  Bytes.unsafe_to_string b

(* [k] = ((year - 1998) * 12 + month - 1) * 28 + day - 1; YYYY-MM-DD *)
let build_date k =
  let year = 1998 + (k / (12 * 28)) and month = 1 + (k / 28 mod 12)
  and day = 1 + (k mod 28) in
  let b = Bytes.create 10 in
  Bytes.set b 0 (digit (year / 1000));
  Bytes.set b 1 (digit (year / 100 mod 10));
  Bytes.set b 2 (digit (year / 10 mod 10));
  Bytes.set b 3 (digit (year mod 10));
  Bytes.set b 4 '-';
  Bytes.set b 5 (digit (month / 10));
  Bytes.set b 6 (digit (month mod 10));
  Bytes.set b 7 '-';
  Bytes.set b 8 (digit (day / 10));
  Bytes.set b 9 (digit (day mod 10));
  Bytes.unsafe_to_string b

let build_title software seg =
  String.concat " "
    [ software; category_phrase seg.seg_category; flaw_phrase seg.seg_flaw ]

(* One chunk's interner; [""] marks a value not built yet. *)
type tables = {
  dates : string array;
  software : string array;
  titles : string array;  (* by software index, for [titles_for] *)
  mutable titles_for : segment option;
}

let fresh_tables () =
  let names = Array.length software_pool * versions in
  { dates = Array.make (5 * 12 * 28) ""; software = Array.make names "";
    titles = Array.make names ""; titles_for = None }

let interned tbl k build =
  let s = tbl.(k) in
  if String.length s > 0 then s
  else begin
    let s = build k in
    tbl.(k) <- s;
    s
  end

let software_of tables k =
  match tables with
  | None -> build_software k
  | Some t -> interned t.software k build_software

let date_of tables k =
  match tables with
  | None -> build_date k
  | Some t -> interned t.dates k build_date

let title_of tables seg k software =
  match tables with
  | None -> build_title software seg
  | Some t ->
      (match t.titles_for with
       | Some s when s == seg -> ()
       | _ ->
           Array.fill t.titles 0 (Array.length t.titles) "";
           t.titles_for <- Some seg);
      interned t.titles k (fun _ -> build_title software seg)

let synth_report tables rng ~id ~seg =
  (* The retired generator drew inside [Printf.sprintf] arguments,
     which OCaml evaluates right to left; the reports depend on that
     order, so it is spelled out here. *)
  let minor = Prng.in_range rng ~low:0 ~high:9 in
  let major = Prng.in_range rng ~low:0 ~high:4 in
  let pick = Prng.below rng (Array.length software_pool) in
  let range =
    match Prng.below rng 4 with
    | 0 -> Report.Local
    | 1 -> Report.Both
    | _ -> Report.Remote
  in
  let day = Prng.in_range rng ~low:1 ~high:28 in
  let month = Prng.in_range rng ~low:1 ~high:12 in
  let year = Prng.in_range rng ~low:1998 ~high:2002 in
  let k = (((pick * 5) + major) * 10) + minor in
  let software = software_of tables k in
  let date = (((((year - 1998) * 12) + month - 1) * 28) + day) - 1 in
  Report.make ~id ~title:(title_of tables seg k software)
    ~date:(date_of tables date)
    ~category:seg.seg_category ~software ~range ~flaw:seg.seg_flaw
    ~synthetic:true ()

let report_in tables p ~seed ~pos =
  let nc = Array.length p.curated in
  if pos < nc then p.curated.(pos)
  else begin
    let sp = pos - nc in
    let rng = Prng.create ~seed:(Par.Seed.child ~seed ~index:sp) in
    synth_report tables rng ~id:(id_at p sp) ~seg:(seg_at p sp)
  end

let report_at p ~seed ~pos = report_in None p ~seed ~pos

let chunk_reports p ~seed ~chunk ~index =
  let size = plan_size p in
  let lo = index * chunk in
  let hi = min size (lo + chunk) in
  let tables = Some (fresh_tables ()) in
  let rec go i acc =
    if i < lo then acc else go (i - 1) (report_in tables p ~seed ~pos:i :: acc)
  in
  go (hi - 1) []

(* ------------------------------------------------------------------ *)
(* Streaming generation.  Every report is a pure function of
   [(plan, seed, position)], so chunks fan out over the domain pool
   and the merge is trivially deterministic: the sink sees chunk 0,
   chunk 1, ... with identical contents at any [-j] and any chunk
   size.  Only one wave of chunks is resident at a time. *)

let generate_stream ?curated ~seed ~total ~chunk f =
  if chunk < 1 then Error (Invalid_chunk chunk)
  else
    match plan ?curated ~total () with
    | Error e -> Error e
    | Ok p ->
        let n = chunk_count p ~chunk in
        let wave = max 1 (2 * Par.jobs ()) in
        let next = ref 0 in
        while !next < n do
          let count = min wave (n - !next) in
          let first = !next in
          let lists =
            Par.map ~label:"synth-stream"
              (fun i -> chunk_reports p ~seed ~chunk ~index:i)
              (Array.init count (fun k -> first + k))
          in
          Array.iteri (fun k l -> f ~index:(first + k) l) lists;
          next := first + count
        done;
        Ok (plan_size p)

let generate ~seed =
  let db = Database.empty () in
  match
    generate_stream ~seed ~total:legacy_total ~chunk:512 (fun ~index:_ rs ->
        List.iter (Database.add db) rs)
  with
  | Ok _ -> db
  | Error e -> invalid_arg ("Synth.generate: " ^ error_to_string e)
