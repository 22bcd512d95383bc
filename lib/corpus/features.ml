module Report = Vulndb.Report

let version = "corpus-features/1"

(* model-derived slots, then metadata slots *)
let names =
  [| "operations"; "objects"; "activities"; "gates"; "object_type_checks";
     "content_attribute_checks"; "reference_consistency_checks";
     "missing_checks"; "range_remote"; "range_local"; "range_both";
     "title_length"; "title_words"; "year" |]

let dim = Array.length names

let model_dim = 8

let model_of_flaw = function
  | Report.Stack_buffer_overflow -> Some (Apps.Buffer_overflow_pattern.model ())
  | Report.Heap_overflow -> Some (Apps.Nullhttpd.model (Apps.Nullhttpd.setup ()))
  | Report.Integer_overflow -> Some (Apps.Int_overflow_pattern.model ())
  | Report.Format_string -> Some (Apps.Format_string_pattern.model ())
  | Report.File_race -> Some (Apps.Xterm.model ())
  | Report.Path_traversal -> Some (Apps.Iis.model (Apps.Iis.setup ()))
  | Report.Other_flaw -> None

let all_flaws =
  [| Report.Stack_buffer_overflow; Report.Heap_overflow;
     Report.Integer_overflow; Report.Format_string; Report.File_race;
     Report.Path_traversal; Report.Other_flaw |]

let flaw_index = function
  | Report.Stack_buffer_overflow -> 0
  | Report.Heap_overflow -> 1
  | Report.Integer_overflow -> 2
  | Report.Format_string -> 3
  | Report.File_race -> 4
  | Report.Path_traversal -> 5
  | Report.Other_flaw -> 6

let kind_count kinds k =
  match List.assoc_opt k kinds with Some n -> float_of_int n | None -> 0.

let build_flaw_table () =
  Array.map
    (fun flaw ->
      match model_of_flaw flaw with
      | None -> Array.make model_dim 0.
      | Some m ->
          let t = Pfsm.Metrics.of_model m in
          [| float_of_int t.Pfsm.Metrics.operations;
             float_of_int (List.length t.Pfsm.Metrics.objects);
             float_of_int t.Pfsm.Metrics.elementary_activities;
             float_of_int (max 0 (t.Pfsm.Metrics.operations - 1));
             kind_count t.Pfsm.Metrics.kinds Pfsm.Taxonomy.Object_type_check;
             kind_count t.Pfsm.Metrics.kinds Pfsm.Taxonomy.Content_attribute_check;
             kind_count t.Pfsm.Metrics.kinds Pfsm.Taxonomy.Reference_consistency_check;
             float_of_int t.Pfsm.Metrics.missing_checks |])
    all_flaws

(* Built on first use: most processes that link this library never
   classify, and the models (with the 384 KB simulated process image
   one of them sets up) would cost each one ~0.3 ms of start-up.  The first
   use can come from several Par workers at once, and model
   construction forces shared lazies, so one domain builds under a
   lock while the others wait; the no-op plan keeps an ambient
   injector's seams out of the build. *)
let flaw_table =
  let lock = Mutex.create () and built = Atomic.make None in
  fun () ->
    match Atomic.get built with
    | Some t -> t
    | None ->
        Mutex.protect lock (fun () ->
            match Atomic.get built with
            | Some t -> t
            | None ->
                let t = Fault.Hooks.with_plan Fault.Catalog.none build_flaw_table in
                Atomic.set built (Some t);
                t)

let is_digit c = c >= '0' && c <= '9'

let digit_at s i = Char.code s.[i] - Char.code '0'

(* The year offset of a YYYY-MM-DD date.  Four leading decimal digits
   are read directly; anything else ("0x1F", "+200", "1_00", ...)
   keeps [int_of_string_opt]'s reading of the first four bytes. *)
let year_of d =
  if String.length d < 4 then 0
  else if is_digit d.[0] && is_digit d.[1] && is_digit d.[2] && is_digit d.[3] then
    (1000 * digit_at d 0) + (100 * digit_at d 1) + (10 * digit_at d 2)
    + digit_at d 3 - 1998
  else
    match int_of_string_opt (String.sub d 0 4) with
    | Some y -> y - 1998
    | None -> 0

let word_count s =
  let words = ref 0 in
  for i = 0 to String.length s - 1 do
    if s.[i] <> ' ' && (i = 0 || s.[i - 1] = ' ') then incr words
  done;
  !words

let fill v (r : Report.t) =
  Array.blit (flaw_table ()).(flaw_index r.Report.flaw) 0 v 0 model_dim;
  v.(model_dim) <- (match r.Report.range with Report.Remote -> 1. | _ -> 0.);
  v.(model_dim + 1) <- (match r.Report.range with Report.Local -> 1. | _ -> 0.);
  v.(model_dim + 2) <- (match r.Report.range with Report.Both -> 1. | _ -> 0.);
  v.(model_dim + 3) <- float_of_int (String.length r.Report.title);
  v.(model_dim + 4) <- float_of_int (word_count r.Report.title);
  v.(model_dim + 5) <- float_of_int (year_of r.Report.date)

let of_report r =
  let v = Array.make dim 0. in
  fill v r;
  v
