(* Tests for the vulnerability database: categories, reports, the
   store, curated seed data, the synthetic generator and Figure-1
   statistics. *)

module C = Vulndb.Category
module R = Vulndb.Report
module D = Vulndb.Database

(* ---- prng -------------------------------------------------------- *)

let test_prng_deterministic () =
  let a = Vulndb.Prng.create ~seed:7 and b = Vulndb.Prng.create ~seed:7 in
  for _ = 1 to 100 do
    Alcotest.(check int) "same stream" (Vulndb.Prng.next a) (Vulndb.Prng.next b)
  done

let test_prng_bounds () =
  let rng = Vulndb.Prng.create ~seed:11 in
  for _ = 1 to 1000 do
    let v = Vulndb.Prng.below rng 10 in
    if v < 0 || v >= 10 then Alcotest.fail "out of bounds";
    let r = Vulndb.Prng.in_range rng ~low:(-5) ~high:5 in
    if r < -5 || r > 5 then Alcotest.fail "range violated"
  done

let test_prng_shuffle_permutes () =
  let rng = Vulndb.Prng.create ~seed:3 in
  let arr = Array.init 50 (fun i -> i) in
  Vulndb.Prng.shuffle rng arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "same elements" (Array.init 50 (fun i -> i)) sorted

(* ---- category ---------------------------------------------------- *)

let test_category_counts_sum () =
  let total = List.fold_left (fun acc c -> acc + C.paper_count c) 0 C.all in
  Alcotest.(check int) "5925 reports" C.total_reports total

let test_category_percent_consistent () =
  List.iter
    (fun c ->
       let pct =
         100.0 *. float_of_int (C.paper_count c) /. float_of_int C.total_reports
       in
       Alcotest.(check int) (C.to_string c) (C.paper_percent c)
         (int_of_float (Float.round pct)))
    C.all

let test_category_top_five () =
  (* The paper: input validation 23, boundary 21, design 18,
     exceptional 11, access validation 10. *)
  Alcotest.(check int) "input" 23 (C.paper_percent C.Input_validation_error);
  Alcotest.(check int) "boundary" 21 (C.paper_percent C.Boundary_condition_error);
  Alcotest.(check int) "design" 18 (C.paper_percent C.Design_error);
  Alcotest.(check int) "exceptional" 11
    (C.paper_percent C.Failure_to_handle_exceptional_conditions);
  Alcotest.(check int) "access" 10 (C.paper_percent C.Access_validation_error)

let test_category_string_roundtrip () =
  List.iter
    (fun c ->
       match C.of_string (C.to_string c) with
       | Some c' -> Alcotest.(check bool) (C.to_string c) true (C.equal c c')
       | None -> Alcotest.fail (C.to_string c))
    C.all;
  Alcotest.(check bool) "unknown string" true (C.of_string "Bogus" = None)

let test_category_twelve_classes () =
  Alcotest.(check int) "12 classes" 12 (List.length C.all)

(* ---- report ------------------------------------------------------ *)

let test_report_family () =
  Alcotest.(check bool) "stack" true (R.studied_family R.Stack_buffer_overflow);
  Alcotest.(check bool) "heap" true (R.studied_family R.Heap_overflow);
  Alcotest.(check bool) "integer" true (R.studied_family R.Integer_overflow);
  Alcotest.(check bool) "format" true (R.studied_family R.Format_string);
  Alcotest.(check bool) "race" true (R.studied_family R.File_race);
  Alcotest.(check bool) "traversal out" false (R.studied_family R.Path_traversal);
  Alcotest.(check bool) "other out" false (R.studied_family R.Other_flaw)

(* ---- database ---------------------------------------------------- *)

let sample_report id =
  R.make ~id ~title:"t" ~date:"2002-01-01" ~category:C.Design_error ~software:"s" ()

let test_database_add_find () =
  let db = D.empty () in
  D.add db (sample_report 1);
  D.add db (sample_report 2);
  Alcotest.(check int) "size" 2 (D.size db);
  Alcotest.(check bool) "find" true (D.find db 1 <> None);
  Alcotest.(check bool) "missing" true (D.find db 3 = None)

let test_database_duplicate () =
  let db = D.empty () in
  D.add db (sample_report 1);
  match D.add db (sample_report 1) with
  | _ -> Alcotest.fail "duplicate accepted"
  | exception Invalid_argument _ -> ()

let test_database_sorted_reports () =
  let db = D.of_reports [ sample_report 5; sample_report 2; sample_report 9 ] in
  Alcotest.(check (list int)) "ascending" [ 2; 5; 9 ]
    (List.map (fun (r : R.t) -> r.R.id) (D.reports db))

(* ---- seed data --------------------------------------------------- *)

let test_seed_contains_paper_ids () =
  let db = Vulndb.Seed_data.database () in
  List.iter
    (fun id ->
       Alcotest.(check bool) (string_of_int id) true (D.find db id <> None))
    [ 3163; 5493; 3958; 5960; 5774; 6255; 1480; 2708; 1387; 2210; 2264 ]

let test_seed_table1 () =
  let ids = List.map (fun (r : R.t) -> r.R.id) Vulndb.Seed_data.table1 in
  Alcotest.(check (list int)) "paper order" [ 3163; 5493; 3958 ] ids;
  (* All three are the same mechanism yet three different categories. *)
  let cats =
    List.sort_uniq compare
      (List.map (fun (r : R.t) -> C.to_string r.R.category) Vulndb.Seed_data.table1)
  in
  Alcotest.(check int) "three distinct categories" 3 (List.length cats);
  List.iter
    (fun (r : R.t) ->
       Alcotest.(check bool) "integer overflow" true (r.R.flaw = R.Integer_overflow);
       Alcotest.(check bool) "has activity" true (r.R.elementary_activity <> None))
    Vulndb.Seed_data.table1

let test_seed_all_curated () =
  List.iter
    (fun (r : R.t) ->
       Alcotest.(check bool) r.R.title false r.R.synthetic)
    Vulndb.Seed_data.reports

(* ---- synth ------------------------------------------------------- *)

let db = lazy (Vulndb.Synth.generate ~seed:20021130)

let test_synth_total () =
  Alcotest.(check int) "5925 reports" C.total_reports (D.size (Lazy.force db))

let test_synth_category_counts_exact () =
  let db = Lazy.force db in
  List.iter
    (fun c ->
       Alcotest.(check int) (C.to_string c) (C.paper_count c)
         (List.length (D.by_category db c)))
    C.all

let test_synth_matches_paper_percentages () =
  Alcotest.(check bool) "Figure 1 reproduced" true
    (Vulndb.Stats.matches_paper (Lazy.force db))

let test_synth_family_share () =
  let share = Vulndb.Stats.family_share (Lazy.force db) in
  Alcotest.(check bool)
    (Printf.sprintf "family share %.1f%% within 22 +/- 1" share)
    true
    (share > 21.0 && share < 23.0)

let test_synth_deterministic () =
  let a = Vulndb.Synth.generate ~seed:1 and b = Vulndb.Synth.generate ~seed:1 in
  let titles d = List.map (fun (r : R.t) -> r.R.title) (D.reports d) in
  Alcotest.(check bool) "same titles" true (titles a = titles b)

let test_synth_includes_curated () =
  let db = Lazy.force db in
  Alcotest.(check int) "curated present"
    (List.length Vulndb.Seed_data.reports)
    (List.length (D.curated db));
  Alcotest.(check bool) "#6255 in the full database" true (D.find db 6255 <> None)

let test_synth_ids_disjoint () =
  let db = Lazy.force db in
  List.iter
    (fun (r : R.t) ->
       if r.R.synthetic then
         Alcotest.(check bool) "synthetic id space" true
           (r.R.id >= Vulndb.Synth.synthetic_id_base))
    (D.reports db)

(* Digests of generated corpora, captured from the Printf generator
   before interning replaced it: a change to any drawn field, or to
   the order of the draws, changes them. *)
let hex s = Digest.to_hex (Digest.string s)

let test_synth_legacy_digest () =
  Alcotest.(check string) "csv of the seed-20021130 database"
    "cbfb5598e09cea3433b4c6c9567880a2"
    (hex (Vulndb.Csv.of_database (Lazy.force db)))

let test_synth_million_chunk_digests () =
  match Vulndb.Synth.plan ~total:1_000_000 () with
  | Error e -> Alcotest.fail (Vulndb.Synth.error_to_string e)
  | Ok p ->
      Alcotest.(check int) "chunks" 245 (Vulndb.Synth.chunk_count p ~chunk:4096);
      List.iter
        (fun (index, size, digest) ->
          let rs = Vulndb.Synth.chunk_reports p ~seed:1 ~chunk:4096 ~index in
          Alcotest.(check int) (Printf.sprintf "chunk %d size" index) size
            (List.length rs);
          Alcotest.(check string)
            (Printf.sprintf "chunk %d csv" index)
            digest
            (hex (String.concat "" (List.map (fun r -> Vulndb.Csv.of_report r ^ "\n") rs))))
        [ (0, 4096, "c436118039b089546cdb7ef216b9ecaa");
          (122, 4096, "ba2bcd483139c4f052ce83019af11031");
          (244, 576, "45ad1ec43920b263dc7684582a0cee77") ]

(* ---- stats ------------------------------------------------------- *)

let test_stats_breakdown_sorted () =
  let rows = Vulndb.Stats.breakdown (Lazy.force db) in
  Alcotest.(check int) "12 rows" 12 (List.length rows);
  let counts = List.map (fun r -> r.Vulndb.Stats.count) rows in
  Alcotest.(check (list int)) "descending" (List.sort (fun a b -> compare b a) counts)
    counts;
  (match rows with
   | top :: _ ->
       Alcotest.(check bool) "input validation leads" true
         (C.equal top.Vulndb.Stats.category C.Input_validation_error)
   | [] -> Alcotest.fail "no rows")

let test_stats_flaw_breakdown () =
  let flaws = Vulndb.Stats.flaw_breakdown (Lazy.force db) in
  let get f = try List.assoc f flaws with Not_found -> 0 in
  Alcotest.(check bool) "stack overflows dominate the family" true
    (get R.Stack_buffer_overflow > get R.Heap_overflow);
  Alcotest.(check bool) "other is the long tail" true
    (get R.Other_flaw > get R.Stack_buffer_overflow)

let prop_synth_any_seed_matches_figure1 =
  let open QCheck in
  Test.make ~name:"synth: Figure 1 holds for any seed" ~count:10 (int_range 0 10000)
    (fun seed ->
       let db = Vulndb.Synth.generate ~seed in
       D.size db = C.total_reports && Vulndb.Stats.matches_paper db)

let () =
  Alcotest.run "vulndb"
    [ ("prng",
       [ Alcotest.test_case "deterministic" `Quick test_prng_deterministic;
         Alcotest.test_case "bounds" `Quick test_prng_bounds;
         Alcotest.test_case "shuffle permutes" `Quick test_prng_shuffle_permutes ]);
      ("category",
       [ Alcotest.test_case "counts sum to 5925" `Quick test_category_counts_sum;
         Alcotest.test_case "percent consistent" `Quick
           test_category_percent_consistent;
         Alcotest.test_case "top five" `Quick test_category_top_five;
         Alcotest.test_case "string roundtrip" `Quick test_category_string_roundtrip;
         Alcotest.test_case "twelve classes" `Quick test_category_twelve_classes ]);
      ("report", [ Alcotest.test_case "studied family" `Quick test_report_family ]);
      ("database",
       [ Alcotest.test_case "add/find" `Quick test_database_add_find;
         Alcotest.test_case "duplicate" `Quick test_database_duplicate;
         Alcotest.test_case "sorted" `Quick test_database_sorted_reports ]);
      ("seed data",
       [ Alcotest.test_case "paper ids present" `Quick test_seed_contains_paper_ids;
         Alcotest.test_case "table 1" `Quick test_seed_table1;
         Alcotest.test_case "all curated" `Quick test_seed_all_curated ]);
      ("synth",
       [ Alcotest.test_case "total" `Quick test_synth_total;
         Alcotest.test_case "exact category counts" `Quick
           test_synth_category_counts_exact;
         Alcotest.test_case "matches paper" `Quick test_synth_matches_paper_percentages;
         Alcotest.test_case "family ~22%" `Quick test_synth_family_share;
         Alcotest.test_case "deterministic" `Quick test_synth_deterministic;
         Alcotest.test_case "includes curated" `Quick test_synth_includes_curated;
         Alcotest.test_case "id spaces disjoint" `Quick test_synth_ids_disjoint;
         QCheck_alcotest.to_alcotest prop_synth_any_seed_matches_figure1;
         Alcotest.test_case "legacy csv digest pinned" `Quick test_synth_legacy_digest;
         Alcotest.test_case "million-plan chunk digests pinned" `Quick
           test_synth_million_chunk_digests ]);
      ("stats",
       [ Alcotest.test_case "breakdown sorted" `Quick test_stats_breakdown_sorted;
         Alcotest.test_case "flaw breakdown" `Quick test_stats_flaw_breakdown ]) ]
