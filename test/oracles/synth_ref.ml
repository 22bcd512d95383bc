(* The Printf report generator that [Vulndb.Synth] replaced: three
   [Printf.sprintf] calls per report build the software name, the
   title and the date, each a fresh string.  It is kept here, outside
   the library, as the executable specification the interning
   generator is checked against.  Its draw order is whatever OCaml's
   right-to-left evaluation of the sprintf arguments makes it; the
   library spells that order out, and this oracle is how a test tells
   the two apart. *)

module Synth = Vulndb.Synth
module Report = Vulndb.Report
module Category = Vulndb.Category
module Prng = Vulndb.Prng

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

let category_phrase = function
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

let date_of rng =
  Printf.sprintf "%04d-%02d-%02d"
    (Prng.in_range rng ~low:1998 ~high:2002)
    (Prng.in_range rng ~low:1 ~high:12)
    (Prng.in_range rng ~low:1 ~high:28)

let synth_report rng ~id ~category ~flaw =
  let software =
    Printf.sprintf "%s %d.%d" (Prng.pick rng software_pool)
      (Prng.in_range rng ~low:0 ~high:4)
      (Prng.in_range rng ~low:0 ~high:9)
  in
  let title =
    Printf.sprintf "%s %s %s" software (category_phrase category) (flaw_phrase flaw)
  in
  let range =
    match Prng.below rng 4 with
    | 0 -> Report.Local
    | 1 -> Report.Both
    | _ -> Report.Remote
  in
  Report.make ~id ~title ~date:(date_of rng) ~category ~software ~range ~flaw
    ~synthetic:true ()

(* The report at corpus position [pos].  The layout (curated rows,
   synthetic ids, each position's category and flaw) is the plan's;
   every drawn field is this oracle's own. *)
let report_at p ~seed ~pos =
  let laid_out = Synth.report_at p ~seed ~pos in
  let curated = Synth.plan_size p - Synth.plan_synthetic p in
  if pos < curated then laid_out
  else begin
    let sp = pos - curated in
    let rng = Prng.create ~seed:(Par.Seed.child ~seed ~index:sp) in
    synth_report rng ~id:(Synth.id_at p sp) ~category:laid_out.Report.category
      ~flaw:laid_out.Report.flaw
  end
