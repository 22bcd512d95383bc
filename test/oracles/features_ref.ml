(* The feature extraction that [Corpus.Features.fill] replaced: a
   fresh vector per report, the year read through [String.sub] and
   [int_of_string_opt], the words counted by a closure over
   [String.iter].  Kept as the specification [fill] is checked
   against, including on dates and titles no generator produces. *)

module Report = Vulndb.Report
module Metrics = Pfsm.Metrics

let model_dim = 8

let all_flaws =
  [| Report.Stack_buffer_overflow; Report.Heap_overflow;
     Report.Integer_overflow; Report.Format_string; Report.File_race;
     Report.Path_traversal; Report.Other_flaw |]

let flaw_index flaw =
  let rec find i = if all_flaws.(i) = flaw then i else find (i + 1) in
  find 0

let kind_count kinds k =
  match List.assoc_opt k kinds with Some n -> float_of_int n | None -> 0.

let flaw_table =
  lazy
    (Array.map
       (fun flaw ->
         match Corpus.Features.model_of_flaw flaw with
         | None -> Array.make model_dim 0.
         | Some m ->
             let t = Metrics.of_model m in
             [| float_of_int t.Metrics.operations;
                float_of_int (List.length t.Metrics.objects);
                float_of_int t.Metrics.elementary_activities;
                float_of_int (max 0 (t.Metrics.operations - 1));
                kind_count t.Metrics.kinds Pfsm.Taxonomy.Object_type_check;
                kind_count t.Metrics.kinds Pfsm.Taxonomy.Content_attribute_check;
                kind_count t.Metrics.kinds Pfsm.Taxonomy.Reference_consistency_check;
                float_of_int t.Metrics.missing_checks |])
       all_flaws)

let year_of (r : Report.t) =
  if String.length r.Report.date >= 4 then
    match int_of_string_opt (String.sub r.Report.date 0 4) with
    | Some y -> y - 1998
    | None -> 0
  else 0

let word_count s =
  let words = ref 0 and in_word = ref false in
  String.iter
    (fun c ->
      if c = ' ' then in_word := false
      else if not !in_word then begin
        in_word := true;
        incr words
      end)
    s;
  !words

let of_report (r : Report.t) =
  let v = Array.make Corpus.Features.dim 0. in
  Array.blit (Lazy.force flaw_table).(flaw_index r.Report.flaw) 0 v 0 model_dim;
  (match r.Report.range with
   | Report.Remote -> v.(model_dim) <- 1.
   | Report.Local -> v.(model_dim + 1) <- 1.
   | Report.Both -> v.(model_dim + 2) <- 1.);
  v.(model_dim + 3) <- float_of_int (String.length r.Report.title);
  v.(model_dim + 4) <- float_of_int (word_count r.Report.title);
  v.(model_dim + 5) <- float_of_int (year_of r);
  v
