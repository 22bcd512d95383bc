(* Tests for the mini-C subsystem: AST rendering, the interpreter on
   the simulated machine, guard extraction, and the end-to-end
   "automatic tool" loop (extract -> verify -> predict execution). *)

module A = Minic.Ast
module I = Minic.Interp
module X = Minic.Extract
module C = Minic.Corpus
module P = Pfsm.Predicate

let contains ~needle h =
  let nh = String.length h and nn = String.length needle in
  let rec at i = i + nn <= nh && (String.sub h i nn = needle || at (i + 1)) in
  nn > 0 && at 0

(* ---- pretty printing ---------------------------------------------- *)

let test_pp_renders_cish_source () =
  let src = A.func_to_string C.tTflag_vulnerable in
  List.iter
    (fun needle ->
       Alcotest.(check bool) ("mentions " ^ needle) true (contains ~needle src))
    [ "int tTflag(const char *str_x, const char *str_i)";
      "int x = atoi(str_x);"; "if (x > 100)"; "tTvect[x] = i;"; "return 0;" ]

(* ---- interpreter: expressions & control flow ---------------------- *)

let run_expr e =
  let f = { A.name = "t"; params = []; body = [ A.Return e ] } in
  match I.run f ~args:[] with
  | I.Returned n -> n
  | other -> Alcotest.fail (Format.asprintf "%a" I.pp_outcome other)

let test_interp_arithmetic () =
  Alcotest.(check int) "3*4+2" 14
    (run_expr A.(Bin (Add, Bin (Mul, Int_lit 3, Int_lit 4), Int_lit 2)));
  Alcotest.(check int) "sub" (-7) (run_expr A.(Bin (Sub, Int_lit 3, Int_lit 10)));
  Alcotest.(check int) "wraps like C" (-0x80000000)
    (run_expr A.(Bin (Add, Int_lit 0x7fffffff, Int_lit 1)))

let test_interp_comparisons_and_bools () =
  Alcotest.(check int) "lt" 1 (run_expr A.(Bin (Lt, Int_lit 2, Int_lit 3)));
  Alcotest.(check int) "ge" 0 (run_expr A.(Bin (Ge, Int_lit 2, Int_lit 3)));
  Alcotest.(check int) "and" 0 (run_expr A.(Bin (And, Int_lit 1, Int_lit 0)));
  Alcotest.(check int) "or" 1 (run_expr A.(Bin (Or, Int_lit 0, Int_lit 5)));
  Alcotest.(check int) "not" 1 (run_expr A.(Not (Int_lit 0)))

let test_interp_short_circuit () =
  (* the right operand is a type error if evaluated; the dedicated
     And/Or arms must skip it when the left side decides *)
  let bad = A.Strlen (A.Int_lit 1) in
  Alcotest.(check int) "0 && bad short-circuits" 0
    (run_expr A.(Bin (And, Int_lit 0, bad)));
  Alcotest.(check int) "7 || bad short-circuits" 1
    (run_expr A.(Bin (Or, Int_lit 7, bad)));
  let strict =
    { A.name = "t"; params = [];
      body = [ A.Return (A.Bin (A.And, A.Int_lit 1, bad)) ] }
  in
  match I.run strict ~args:[] with
  | I.Rejected _ -> ()
  | o -> Alcotest.fail (Format.asprintf "%a" I.pp_outcome o)

let test_interp_atoi_strlen () =
  let f =
    { A.name = "t"; params = [ A.Str_param "s" ];
      body = [ A.Return (A.Bin (A.Add, A.Atoi (A.Var "s"), A.Strlen (A.Var "s"))) ] }
  in
  match I.run f ~args:[ I.Vstr "42" ] with
  | I.Returned 44 -> ()
  | other -> Alcotest.fail (Format.asprintf "%a" I.pp_outcome other)

let test_interp_if_else_assign () =
  let f =
    { A.name = "t"; params = [ A.Int_param "n" ];
      body =
        [ A.Decl_int ("r", A.Int_lit 0);
          A.If
            (A.Bin (A.Gt, A.Var "n", A.Int_lit 10),
             [ A.Assign ("r", A.Int_lit 1) ],
             [ A.Assign ("r", A.Int_lit 2) ]);
          A.Return (A.Var "r") ] }
  in
  (match I.run f ~args:[ I.Vint 11 ] with
   | I.Returned 1 -> ()
   | o -> Alcotest.fail (Format.asprintf "%a" I.pp_outcome o));
  match I.run f ~args:[ I.Vint 3 ] with
  | I.Returned 2 -> ()
  | o -> Alcotest.fail (Format.asprintf "%a" I.pp_outcome o)

let test_interp_while_loop () =
  (* sum 1..n *)
  let f =
    { A.name = "t"; params = [ A.Int_param "n" ];
      body =
        [ A.Decl_int ("acc", A.Int_lit 0);
          A.Decl_int ("i", A.Int_lit 1);
          A.While
            (A.Bin (A.Le, A.Var "i", A.Var "n"),
             [ A.Assign ("acc", A.Bin (A.Add, A.Var "acc", A.Var "i"));
               A.Assign ("i", A.Bin (A.Add, A.Var "i", A.Int_lit 1)) ]);
          A.Return (A.Var "acc") ] }
  in
  match I.run f ~args:[ I.Vint 10 ] with
  | I.Returned 55 -> ()
  | o -> Alcotest.fail (Format.asprintf "%a" I.pp_outcome o)

let test_interp_divergence_guard () =
  let f =
    { A.name = "t"; params = [];
      body = [ A.While (A.Int_lit 1, [ A.Decl_int ("x", A.Int_lit 0) ]);
               A.Return (A.Int_lit 0) ] }
  in
  Alcotest.(check bool) "diverged" true (I.run f ~args:[] = I.Diverged)

let test_interp_reject () =
  match C.run_tTflag C.tTflag_vulnerable ~str_x:"101" ~str_i:"1" with
  | I.Rejected _ -> ()
  | o -> Alcotest.fail (Format.asprintf "%a" I.pp_outcome o)

let test_interp_buffer_roundtrip () =
  (* A buffer read back in expression position yields its C string. *)
  let f =
    { A.name = "t"; params = [ A.Str_param "s" ];
      body =
        [ A.Decl_buf ("buf", 64);
          A.Strcpy ("buf", A.Var "s");
          A.Return (A.Strlen (A.Var "buf")) ] }
  in
  match I.run f ~args:[ I.Vstr "hello" ] with
  | I.Returned 5 -> ()
  | o -> Alcotest.fail (Format.asprintf "%a" I.pp_outcome o)

let test_interp_strncpy_bounded () =
  let f =
    { A.name = "t"; params = [ A.Str_param "s" ];
      body =
        [ A.Decl_buf ("buf", 8);
          A.Strncpy ("buf", A.Var "s", A.Int_lit 4);
          A.Return (A.Int_lit 0) ] }
  in
  match I.run f ~args:[ I.Vstr (String.make 100 'z') ] with
  | I.Returned 0 -> ()
  | o -> Alcotest.fail (Format.asprintf "%a" I.pp_outcome o)

(* ---- interpreter: the vulnerabilities ----------------------------- *)

let test_tTflag_wrap_exploit () =
  match C.run_tTflag C.tTflag_vulnerable ~str_x:"4294966272" ~str_i:"7" with
  | I.Memory_violation (I.Array_oob { array = "tTvect"; index = -1024 }) -> ()
  | o -> Alcotest.fail (Format.asprintf "%a" I.pp_outcome o)

let test_tTflag_fixed_rejects_wrap () =
  match C.run_tTflag C.tTflag_fixed ~str_x:"4294966272" ~str_i:"7" with
  | I.Rejected _ -> ()
  | o -> Alcotest.fail (Format.asprintf "%a" I.pp_outcome o)

let test_tTflag_benign () =
  (match C.run_tTflag C.tTflag_vulnerable ~str_x:"100" ~str_i:"9" with
   | I.Returned 0 -> ()
   | o -> Alcotest.fail (Format.asprintf "%a" I.pp_outcome o));
  match C.run_tTflag C.tTflag_fixed ~str_x:"0" ~str_i:"9" with
  | I.Returned 0 -> ()
  | o -> Alcotest.fail (Format.asprintf "%a" I.pp_outcome o)

let test_log_overflow () =
  match C.run_log C.log_vulnerable ~request:(String.make 300 'A') with
  | I.Memory_violation (I.Buffer_overflow { wrote = 301; capacity = 200; _ }) -> ()
  | o -> Alcotest.fail (Format.asprintf "%a" I.pp_outcome o)

let test_log_fixed_boundaries () =
  (match C.run_log C.log_fixed ~request:(String.make 199 'a') with
   | I.Returned 0 -> ()
   | o -> Alcotest.fail (Format.asprintf "%a" I.pp_outcome o));
  match C.run_log C.log_fixed ~request:(String.make 200 'a') with
  | I.Rejected _ -> ()
  | o -> Alcotest.fail (Format.asprintf "%a" I.pp_outcome o)

let test_log_off_by_one_still_overflows () =
  (* The wrong fix admits exactly the 200-byte request, whose
     terminator lands one past the buffer. *)
  match C.run_log C.log_off_by_one ~request:(String.make 200 'a') with
  | I.Memory_violation (I.Buffer_overflow { wrote = 201; capacity = 200; _ }) -> ()
  | o -> Alcotest.fail (Format.asprintf "%a" I.pp_outcome o)

(* ---- extraction ---------------------------------------------------- *)

let impl f ov =
  match X.impl_predicate f ~object_var:ov with
  | Some p -> P.to_string p
  | None -> "<none>"

let test_extract_guards () =
  Alcotest.(check string) "vulnerable tTflag" "!(self > 100)"
    (impl C.tTflag_vulnerable "x");
  Alcotest.(check string) "fixed tTflag" "!((self < 0 || self > 100))"
    (impl C.tTflag_fixed "x");
  Alcotest.(check string) "vulnerable Log" "true" (impl C.log_vulnerable "request");
  Alcotest.(check string) "fixed Log" "!(length(self) > 199)" (impl C.log_fixed "request");
  Alcotest.(check string) "off-by-one Log" "!(length(self) > 200)"
    (impl C.log_off_by_one "request")

let test_extract_sites () =
  let sites = X.dangerous_sites C.tTflag_vulnerable in
  Alcotest.(check int) "one site" 1 (List.length sites);
  (match sites with
   | [ { X.danger = X.Store_to "tTvect"; _ } ] -> ()
   | _ -> Alcotest.fail "wrong site");
  match X.dangerous_sites C.log_vulnerable with
  | [ { X.danger = X.Copy_to "buf"; _ } ] -> ()
  | _ -> Alcotest.fail "wrong Log site"

let test_extract_untranslatable () =
  (* A guard over a foreign variable cannot be rendered over Self. *)
  let f =
    { A.name = "t"; params = [ A.Int_param "a"; A.Int_param "b" ];
      body =
        [ A.If (A.Bin (A.Gt, A.Var "b", A.Int_lit 0), [ A.Reject "nope" ], []);
          A.Array_store ("arr", A.Var "a", A.Int_lit 1);
          A.Return (A.Int_lit 0) ] }
  in
  Alcotest.(check bool) "None" true (X.impl_predicate f ~object_var:"a" = None)

let test_extract_nested_guards () =
  let f =
    { A.name = "t"; params = [ A.Int_param "x" ];
      body =
        [ A.If (A.Bin (A.Lt, A.Var "x", A.Int_lit 0), [ A.Reject "neg" ], []);
          A.If
            (A.Bin (A.Le, A.Var "x", A.Int_lit 100),
             [ A.Array_store ("arr", A.Var "x", A.Int_lit 1) ],
             []);
          A.Return (A.Int_lit 0) ] }
  in
  (* Reaching the store needs !(x < 0) from the reject idiom and
     x <= 100 from the enclosing branch. *)
  match X.impl_predicate f ~object_var:"x" with
  | Some p ->
      let holds v = P.holds ~env:Pfsm.Env.empty ~self:(Pfsm.Value.Int v) p in
      Alcotest.(check bool) "50 in" true (holds 50);
      Alcotest.(check bool) "-1 out" false (holds (-1));
      Alcotest.(check bool) "101 out" false (holds 101)
  | None -> Alcotest.fail "not extracted"

let test_extract_clobbered_guard () =
  (* Check-then-clobber: the guard no longer speaks about the value
     that reaches the store, so extraction must drop it rather than
     report a protection that is not there. *)
  let store = A.Array_store ("tTvect", A.Var "x", A.Int_lit 1) in
  let guard = A.If (A.Bin (A.Gt, A.Var "x", A.Int_lit 100), [ A.Reject "range" ], []) in
  let clobbered =
    { A.name = "t"; params = [ A.Str_param "s" ];
      body =
        [ A.Decl_int ("x", A.Atoi (A.Var "s"));
          guard;
          A.Assign ("x", A.Bin (A.Add, A.Var "x", A.Int_lit 50));
          store;
          A.Return (A.Int_lit 0) ] }
  in
  Alcotest.(check string) "guard dropped" "true" (impl clobbered "x");
  let intact =
    { clobbered with
      A.body = [ A.Decl_int ("x", A.Atoi (A.Var "s")); guard; store;
                 A.Return (A.Int_lit 0) ] }
  in
  Alcotest.(check string) "guard kept without the clobber" "!(self > 100)"
    (impl intact "x")

let test_extract_loop_clobbered_guard () =
  (* An assignment anywhere in a loop body invalidates a pre-loop
     guard for every site inside the loop. *)
  let f =
    { A.name = "t"; params = [ A.Int_param "x" ];
      body =
        [ A.If (A.Bin (A.Gt, A.Var "x", A.Int_lit 10), [ A.Reject "range" ], []);
          A.While
            ( A.Bin (A.Lt, A.Var "x", A.Int_lit 100),
              [ A.Array_store ("arr", A.Var "x", A.Int_lit 1);
                A.Assign ("x", A.Bin (A.Add, A.Var "x", A.Int_lit 1)) ] );
          A.Return (A.Int_lit 0) ] }
  in
  match X.dangerous_sites f with
  | [ site ] ->
      (* Only the loop condition survives; the x > 10 reject does not. *)
      let p = Option.get (X.impl_predicate_at ~object_var:"x" site) in
      let holds v = P.holds ~env:Pfsm.Env.empty ~self:(Pfsm.Value.Int v) p in
      Alcotest.(check bool) "50 reaches the store" true (holds 50);
      Alcotest.(check bool) "100 does not" false (holds 100)
  | sites -> Alcotest.fail (Printf.sprintf "%d sites" (List.length sites))

let test_weakest_predicate_disjunction () =
  (* Two stores guarded differently: the function-level weakest
     predicate is the disjunction of the per-site conditions. *)
  let f =
    { A.name = "t"; params = [ A.Int_param "x" ];
      body =
        [ A.If (A.Bin (A.Lt, A.Var "x", A.Int_lit 0), [ A.Reject "neg" ], []);
          A.If
            ( A.Bin (A.Lt, A.Var "x", A.Int_lit 10),
              [ A.Array_store ("small", A.Var "x", A.Int_lit 1) ],
              [ A.If (A.Bin (A.Gt, A.Var "x", A.Int_lit 100), [ A.Reject "big" ], []);
                A.Array_store ("large", A.Var "x", A.Int_lit 2) ] );
          A.Return (A.Int_lit 0) ] }
  in
  let sites = X.dangerous_sites f in
  Alcotest.(check int) "two sites" 2 (List.length sites);
  List.iter
    (fun s -> Alcotest.(check bool) "relevant" true (X.site_relevant ~object_var:"x" s))
    sites;
  match X.weakest_predicate f ~object_var:"x" with
  | Some p ->
      let holds v = P.holds ~env:Pfsm.Env.empty ~self:(Pfsm.Value.Int v) p in
      Alcotest.(check bool) "5 via small" true (holds 5);
      Alcotest.(check bool) "50 via large" true (holds 50);
      Alcotest.(check bool) "-1 nowhere" false (holds (-1));
      Alcotest.(check bool) "101 nowhere" false (holds 101)
  | None -> Alcotest.fail "no weakest predicate"

(* ---- the automatic tool, end to end -------------------------------- *)

let test_auto_verify_refutes_vulnerable () =
  let pfsm =
    X.pfsm_of ~name:"auto" ~kind:Pfsm.Taxonomy.Content_attribute_check
      ~activity:"tTvect[x] = i" ~spec:C.tTflag_spec ~object_var:C.tTflag_object
      C.tTflag_vulnerable
  in
  (match Pfsm.Verify.verify pfsm (Pfsm.Verify.Int_range { low = -2048; high = 2048 }) with
   | Pfsm.Verify.Refuted { witness = Pfsm.Value.Int w; _ } ->
       Alcotest.(check bool) "negative witness" true (w < 0)
   | o -> Alcotest.fail (Format.asprintf "%a" Pfsm.Verify.pp_result o));
  let fixed =
    X.pfsm_of ~name:"auto" ~kind:Pfsm.Taxonomy.Content_attribute_check
      ~activity:"tTvect[x] = i" ~spec:C.tTflag_spec ~object_var:C.tTflag_object
      C.tTflag_fixed
  in
  match Pfsm.Verify.verify fixed (Pfsm.Verify.Int_range { low = -2048; high = 2048 }) with
  | Pfsm.Verify.Verified _ -> ()
  | o -> Alcotest.fail (Format.asprintf "%a" Pfsm.Verify.pp_result o)

let test_auto_verify_catches_off_by_one () =
  let pfsm =
    X.pfsm_of ~name:"auto" ~kind:Pfsm.Taxonomy.Content_attribute_check
      ~activity:"strcpy(buf, request)" ~spec:C.log_spec ~object_var:C.log_object
      C.log_off_by_one
  in
  let domain =
    Pfsm.Verify.Strings (List.init 260 (fun n -> String.make n 'a'))
  in
  match Pfsm.Verify.verify pfsm domain with
  | Pfsm.Verify.Refuted { witness = Pfsm.Value.Str w; _ } ->
      Alcotest.(check int) "the 200-byte witness" 200 (String.length w)
  | o -> Alcotest.fail (Format.asprintf "%a" Pfsm.Verify.pp_result o)

(* Differential oracle: for every input, the extracted implementation
   predicate predicts whether the interpreter reaches the dangerous
   operation, and the specification predicts whether doing so is
   safe. *)
let prop_extracted_predicate_predicts_execution =
  QCheck.Test.make
    ~name:"minic: extracted impl + spec predict the interpreter's outcome" ~count:300
    QCheck.(int_range (-3000) 3000)
    (fun x ->
       let impl =
         Option.get (X.impl_predicate C.tTflag_vulnerable ~object_var:"x")
       in
       let self = Pfsm.Value.Int x in
       let impl_accepts = P.holds ~env:Pfsm.Env.empty ~self impl in
       let spec_accepts = P.holds ~env:Pfsm.Env.empty ~self C.tTflag_spec in
       let outcome =
         C.run_tTflag C.tTflag_vulnerable ~str_x:(string_of_int x) ~str_i:"1"
       in
       match outcome with
       | I.Rejected _ -> not impl_accepts
       | I.Returned _ -> impl_accepts && spec_accepts
       | I.Memory_violation _ -> impl_accepts && not spec_accepts
       | I.Diverged -> false)

let prop_log_predicates_predict =
  QCheck.Test.make ~name:"minic: Log variants predicted over request lengths" ~count:100
    QCheck.(pair (oneofl [ `Vuln; `Fixed; `Off_by_one ]) (int_range 0 400))
    (fun (variant, len) ->
       let f =
         match variant with
         | `Vuln -> C.log_vulnerable
         | `Fixed -> C.log_fixed
         | `Off_by_one -> C.log_off_by_one
       in
       let impl = Option.get (X.impl_predicate f ~object_var:"request") in
       let request = String.make len 'q' in
       let self = Pfsm.Value.Str request in
       let impl_accepts = P.holds ~env:Pfsm.Env.empty ~self impl in
       let spec_accepts = P.holds ~env:Pfsm.Env.empty ~self C.log_spec in
       match C.run_log f ~request with
       | I.Rejected _ -> not impl_accepts
       | I.Returned _ -> impl_accepts && spec_accepts
       | I.Memory_violation _ -> impl_accepts && not spec_accepts
       | I.Diverged -> false)

(* Seeded random ASTs survive a print -> parse -> print roundtrip.
   The generator (Staticcheck.Progen) only avoids the shapes the
   concrete syntax cannot distinguish (a bare [return -1] reads back
   as a reject). *)
let prop_progen_roundtrips =
  QCheck.Test.make ~name:"minic: random ASTs roundtrip through the parser"
    ~count:500
    QCheck.(int_bound 1_000_000)
    (fun seed -> Minic.Parser.roundtrips (Staticcheck.Progen.func ~seed))

(* ---- ReadPOSTData in source form ----------------------------------- *)

let test_read_post_data_6255 () =
  match
    C.run_read_post_data C.read_post_data_buggy ~content_len:0
      ~body:(String.make 2048 'z')
  with
  | I.Memory_violation (I.Buffer_overflow { buffer = "PostData"; wrote = 2048; capacity = 1024 }) ->
      ()
  | o -> Alcotest.fail (Format.asprintf "%a" I.pp_outcome o)

let test_read_post_data_5774 () =
  (* Negative contentLen: the buffer is carved at 224 bytes while the
     first recv writes 1024. *)
  match
    C.run_read_post_data C.read_post_data_buggy ~content_len:(-800)
      ~body:(String.make 1024 'z')
  with
  | I.Memory_violation (I.Buffer_overflow { capacity = 224; _ }) -> ()
  | o -> Alcotest.fail (Format.asprintf "%a" I.pp_outcome o)

let test_read_post_data_fixed_safe () =
  (match
     C.run_read_post_data C.read_post_data_fixed ~content_len:0
       ~body:(String.make 2048 'z')
   with
   | I.Returned 1024 -> ()
   | o -> Alcotest.fail (Format.asprintf "%a" I.pp_outcome o));
  match
    C.run_read_post_data C.read_post_data_fixed ~content_len:2000
      ~body:(String.make 2000 'z')
  with
  | I.Returned 2000 -> ()
  | o -> Alcotest.fail (Format.asprintf "%a" I.pp_outcome o)

let test_read_post_data_dos_hang () =
  (* The shipped loop spins forever when the peer sends less than it
     declared (rc = 0 but x < contentLen) -- the DoS flavour. *)
  match
    C.run_read_post_data C.read_post_data_buggy ~content_len:500
      ~body:(String.make 100 'z')
  with
  | I.Diverged -> ()
  | o -> Alcotest.fail (Format.asprintf "%a" I.pp_outcome o)

let test_read_post_data_static_blindspot () =
  (* Path-condition extraction cannot tell || from &&: both recv
     sites are unguarded on the first iteration.  The dynamic
     differential above is what separates them -- the documented
     reason the paper's method is data-driven. *)
  List.iter
    (fun f ->
       Alcotest.(check string) f.A.name "true"
         (impl f "contentLen"))
    [ C.read_post_data_buggy; C.read_post_data_fixed ]

(* ---- parser --------------------------------------------------------- *)

let test_parser_roundtrips_whole_corpus () =
  List.iter
    (fun (label, f) ->
       Alcotest.(check bool) label true (Minic.Parser.roundtrips f))
    C.all

let test_parser_parses_handwritten_source () =
  let src =
    "int check(const char *s) {\n\
    \  int x = atoi(s);\n\
    \  if (x < 0 || x > 100) { return -1; /* reject: bad */ }\n\
    \  table[x] = 1;\n\
    \  return 0;\n\
     }"
  in
  match Minic.Parser.func src with
  | Ok f ->
      Alcotest.(check string) "name" "check" f.A.name;
      Alcotest.(check string) "impl extracted" "!((self < 0 || self > 100))"
        (impl f "x")
  | Error e -> Alcotest.fail (Printf.sprintf "line %d: %s" e.Minic.Parser.line e.Minic.Parser.message)

let test_parser_do_while_and_recv () =
  let src =
    "int f(int n) {\n\
    \  char buf[n + 16];\n\
    \  int x = 0;\n\
    \  int rc = 0;\n\
    \  do {\n\
    \    rc = recv(sock, buf + x, 8);\n\
    \    x = x + rc;\n\
    \  } while (rc == 8 && x < n);\n\
    \  return x;\n\
     }"
  in
  match Minic.Parser.func src with
  | Ok f -> (
      match Minic.Interp.run ~socket:(String.make 20 'q') f ~args:[ I.Vint 100 ] with
      | I.Returned 20 -> ()
      | o -> Alcotest.fail (Format.asprintf "%a" I.pp_outcome o))
  | Error e ->
      Alcotest.fail (Printf.sprintf "line %d: %s" e.Minic.Parser.line e.Minic.Parser.message)

let test_parser_program_multiple_funcs () =
  let src = "int a() { return 1; }\nint b(int x) { return x; }" in
  match Minic.Parser.program src with
  | Ok [ fa; fb ] ->
      Alcotest.(check string) "a" "a" fa.A.name;
      Alcotest.(check string) "b" "b" fb.A.name
  | Ok l -> Alcotest.fail (Printf.sprintf "%d funcs" (List.length l))
  | Error e -> Alcotest.fail e.Minic.Parser.message

let test_parser_error_reports_line () =
  match Minic.Parser.func "int f() {\n  int x = ;\n}" with
  | Ok _ -> Alcotest.fail "parsed garbage"
  | Error e -> Alcotest.(check int) "line 2" 2 e.Minic.Parser.line

(* ---- the compiled executor against its tree-walking oracle -------- *)

(* [Oracles.Interp_ref] is the tree-walking interpreter the slot
   compiler replaced.  Both must agree on the outcome (or the exception
   that escapes) and on the fault events the run fires, event for
   event: the seams see the same calls in the same order. *)

module Ref = Oracles.Interp_ref
module G = Staticcheck.Progen

let observe ?plan exec =
  let attempt () =
    match exec () with o -> Ok o | exception e -> Error (Printexc.to_string e)
  in
  match plan with
  | None -> (attempt (), [])
  | Some plan -> Fault.Hooks.run plan attempt

let render (result, events) =
  Printf.sprintf "%s, %d fault events"
    (match result with
     | Ok o -> Format.asprintf "%a" I.pp_outcome o
     | Error e -> "raised " ^ e)
    (List.length events)

let agree ?plan ?(arrays = []) ?(socket = "") f ~args =
  let compiled = observe ?plan (fun () -> I.run ~arrays ~socket f ~args) in
  let oracle = observe ?plan (fun () -> Ref.run ~arrays ~socket f ~args) in
  if compiled = oracle then Ok ()
  else
    Error
      (Printf.sprintf "%s%s: compiled %s, oracle %s" f.A.name
         (match plan with Some p -> " under " ^ p.Fault.Plan.name | None -> "")
         (render compiled) (render oracle))

let check_agree ?plan ?arrays ?socket f ~args =
  match agree ?plan ?arrays ?socket f ~args with
  | Ok () -> ()
  | Error msg -> Alcotest.fail msg

(* Every replay input the linter would try on the corpus, with no
   plan and under each catalog plan. *)
let test_executor_matches_oracle_on_candidates () =
  let config = Staticcheck.Linter.corpus_config in
  List.iter
    (fun (_, f) ->
       let raws = (Staticcheck.Absint.analyze ~config f).Staticcheck.Absint.raws in
       List.iter
         (fun raw ->
            List.iter
              (fun (args, socket) ->
                 List.iter
                   (fun plan ->
                      check_agree ?plan ~arrays:config.Staticcheck.Absint.arrays
                        ~socket f ~args)
                   (None :: List.map Option.some Fault.Catalog.all))
              (Staticcheck.Concretize.candidates f raw))
         raws)
    C.all

(* Arguments for a generated function: mostly well-typed, sometimes
   short or mistyped, so the argument check is compared too. *)
let gen_args r (params : A.param list) =
  let module R = Vulndb.Prng in
  let ints = [| -1; 0; 1; 7; 64; 255; 300; 1024; 4096 |] in
  let strs = [| ""; "abc"; "12"; "-1"; "4294967295"; "hello world"; String.make 300 'a' |] in
  let args =
    List.map
      (function
        | A.Int_param _ -> I.Vint (R.pick r ints)
        | A.Str_param _ -> I.Vstr (R.pick r strs))
      params
  in
  match R.below r 12, args with
  | 0, _ :: rest -> rest
  | 1, (I.Vint _ :: rest) -> I.Vstr "7" :: rest
  | _ -> args

let prop_executor_matches_oracle_progen =
  QCheck.Test.make ~name:"minic: compiled executor = oracle on progen" ~count:300
    QCheck.(pair (int_bound 1_000_000) (int_bound (List.length Fault.Catalog.all)))
    (fun (seed, p) ->
       let plan = List.nth_opt Fault.Catalog.all p in
       let r = Vulndb.Prng.create ~seed in
       let socket = Vulndb.Prng.pick r [| ""; "GET /"; String.make 2000 'z' |] in
       let f = G.func ~seed in
       let v = G.vuln ~seed in
       let lint_inputs =
         List.concat_map (Staticcheck.Concretize.candidates v.G.f)
           (Staticcheck.Absint.analyze
              ~config:{ Staticcheck.Absint.default_config with
                        Staticcheck.Absint.arrays = v.G.arrays }
              v.G.f).Staticcheck.Absint.raws
       in
       let check = function
         | Ok () -> true
         | Error msg -> QCheck.Test.fail_report msg
       in
       check
         (agree ?plan ~arrays:[ ("tab", 8); ("slots", 300) ] ~socket f
            ~args:(gen_args r f.A.params))
       && check (agree ?plan ~arrays:v.G.arrays v.G.f ~args:(gen_args r v.G.f.A.params))
       && List.for_all
            (fun (args, socket) -> check (agree ?plan ~arrays:v.G.arrays ~socket v.G.f ~args))
            lint_inputs)

(* The corners a slot compiler could get wrong, each pinned to its
   expected outcome and compared with the oracle. *)
let test_executor_hand_cases () =
  let open A in
  let f ?(params = []) body = { name = "hand"; params; body } in
  let count_to k =
    [ Decl_int ("i", Int_lit 0);
      While (Bin (Lt, Var "i", Int_lit k), [ Assign ("i", Bin (Add, Var "i", Int_lit 1)) ]);
      Return (Var "i") ]
  in
  let do_count_to k =
    [ Decl_int ("i", Int_lit 0);
      Do_while ([ Assign ("i", Bin (Add, Var "i", Int_lit 1)) ], Bin (Lt, Var "i", Int_lit k));
      Return (Var "i") ]
  in
  let dyn = [ Int_param "n"; Str_param "s" ] in
  let dyn_body =
    [ Decl_buf_dyn ("b", Bin (Add, Var "n", Int_lit 1));
      Strcpy ("b", Var "s");
      Return (Strlen (Var "b")) ]
  in
  let overflow buffer wrote capacity =
    I.Memory_violation (I.Buffer_overflow { buffer; wrote; capacity })
  in
  let cases =
    [ ("unbound left operand beats a mistyped right",
       f [ Return (Bin (Add, Var "u", Str_lit "s")) ], [],
       I.Rejected "unbound variable u");
      ("mistyped left operand beats an unbound right",
       f [ Return (Bin (Lt, Str_lit "s", Var "u")) ], [],
       I.Rejected "type error: expected int");
      ("both unbound: the left one is reported",
       f [ Return (Bin (Mul, Var "u1", Var "u2")) ], [],
       I.Rejected "unbound variable u1");
      ("string variable in a comparison",
       f [ Decl_int ("s", Str_lit "x"); Return (Bin (Ne, Var "s", Var "u")) ], [],
       I.Rejected "type error: expected int");
      ("int where a string is expected",
       f [ Return (Strlen (Bin (Add, Int_lit 1, Int_lit 2))) ], [],
       I.Rejected "type error: expected string");
      ("dynamic buffer sized from a parameter", f ~params:dyn dyn_body,
       [ I.Vint 4; I.Vstr "abcd" ], I.Returned 4);
      ("dynamic buffer from a parameter overflows", f ~params:dyn dyn_body,
       [ I.Vint 4; I.Vstr "abcde" ], overflow "b" 6 5);
      ("a string-sized buffer has capacity 0",
       f ~params:[ Str_param "s" ] [ Decl_buf_dyn ("b", Var "s"); Strcpy ("b", Str_lit "") ],
       [ I.Vstr "abc" ], overflow "b" 1 0);
      ("a local-sized buffer has capacity 0",
       f [ Decl_int ("k", Int_lit 9); Decl_buf_dyn ("b", Var "k"); Strcpy ("b", Str_lit "") ],
       [], overflow "b" 1 0);
      ("a dynamic size sees the parameter, not the buffer of that name",
       f ~params:[ Int_param "n" ]
         [ Decl_buf ("n", 4); Decl_buf_dyn ("b", Var "n"); Strcpy ("b", Str_lit "abc");
           Return (Strlen (Var "b")) ],
       [ I.Vint 10 ], I.Returned 3);
      ("an assignment to a buffer name is shadowed by the buffer",
       f [ Decl_buf ("buf", 8); Strcpy ("buf", Str_lit "hi"); Assign ("buf", Int_lit 5);
           Return (Strlen (Var "buf")) ],
       [], I.Returned 2);
      ("a missing buffer is reported before recv's operands",
       f [ Recv_into ("rc", "nobuf", Var "u", Int_lit 1) ], [],
       I.Rejected "no such buffer nobuf");
      ("strcpy's operand is evaluated before its buffer is looked up",
       f [ Strcpy ("nobuf", Var "u") ], [], I.Rejected "unbound variable u");
      ("a missing array is reported before the store's operands",
       f [ Array_store ("tab", Var "u", Int_lit 1) ], [], I.Rejected "no such array tab");
      ("a while loop of exactly loop_bound iterations returns",
       f (count_to I.loop_bound), [], I.Returned I.loop_bound);
      ("one more iteration diverges", f (count_to (I.loop_bound + 1)), [], I.Diverged);
      ("a do-while of exactly loop_bound iterations returns",
       f (do_count_to I.loop_bound), [], I.Returned I.loop_bound);
      ("one more do-while iteration diverges",
       f (do_count_to (I.loop_bound + 1)), [], I.Diverged) ]
  in
  List.iter
    (fun (name, fn, args, expected) ->
       let pp = Format.asprintf "%a" I.pp_outcome in
       Alcotest.(check string) name (pp expected) (pp (I.run fn ~args));
       Alcotest.(check string) (name ^ " (oracle)") (pp expected) (pp (Ref.run fn ~args));
       check_agree ~plan:Fault.Catalog.short_recv fn ~args)
    cases;
  (* the first violation wins: the overflow, not the later reject *)
  check_agree (f [ Decl_buf ("b", 2); Strcpy ("b", Str_lit "abc"); Reject "late" ]) ~args:[];
  match
    I.run
      { name = "hand"; params = [ Int_param "n" ];
        body = [ Return (Var "n") ] }
      ~args:[ I.Vstr "x" ]
  with
  | _ -> Alcotest.fail "mistyped argument accepted"
  | exception Invalid_argument msg ->
      Alcotest.(check string) "argument check" "Interp.run: wrong number or types of arguments" msg

let () =
  Alcotest.run "minic"
    [ ("ast", [ Alcotest.test_case "pretty printing" `Quick test_pp_renders_cish_source ]);
      ("interpreter",
       [ Alcotest.test_case "arithmetic" `Quick test_interp_arithmetic;
         Alcotest.test_case "comparisons/bools" `Quick test_interp_comparisons_and_bools;
         Alcotest.test_case "short-circuit && / ||" `Quick test_interp_short_circuit;
         Alcotest.test_case "atoi/strlen" `Quick test_interp_atoi_strlen;
         Alcotest.test_case "if/else" `Quick test_interp_if_else_assign;
         Alcotest.test_case "while" `Quick test_interp_while_loop;
         Alcotest.test_case "divergence guard" `Quick test_interp_divergence_guard;
         Alcotest.test_case "reject" `Quick test_interp_reject;
         Alcotest.test_case "buffer roundtrip" `Quick test_interp_buffer_roundtrip;
         Alcotest.test_case "strncpy bounded" `Quick test_interp_strncpy_bounded ]);
      ("exec vs oracle",
       [ Alcotest.test_case "hand cases" `Quick test_executor_hand_cases;
         Alcotest.test_case "lint candidates under every plan" `Quick
           test_executor_matches_oracle_on_candidates;
         QCheck_alcotest.to_alcotest prop_executor_matches_oracle_progen ]);
      ("vulnerabilities",
       [ Alcotest.test_case "tTflag wrap exploit" `Quick test_tTflag_wrap_exploit;
         Alcotest.test_case "tTflag fixed rejects" `Quick test_tTflag_fixed_rejects_wrap;
         Alcotest.test_case "tTflag benign" `Quick test_tTflag_benign;
         Alcotest.test_case "Log overflow" `Quick test_log_overflow;
         Alcotest.test_case "Log fixed boundaries" `Quick test_log_fixed_boundaries;
         Alcotest.test_case "off-by-one still overflows" `Quick
           test_log_off_by_one_still_overflows ]);
      ("extraction",
       [ Alcotest.test_case "guards" `Quick test_extract_guards;
         Alcotest.test_case "sites" `Quick test_extract_sites;
         Alcotest.test_case "untranslatable" `Quick test_extract_untranslatable;
         Alcotest.test_case "nested guards" `Quick test_extract_nested_guards;
         Alcotest.test_case "clobbered guard dropped" `Quick
           test_extract_clobbered_guard;
         Alcotest.test_case "loop clobber" `Quick test_extract_loop_clobbered_guard;
         Alcotest.test_case "weakest predicate" `Quick
           test_weakest_predicate_disjunction ]);
      ("ReadPOSTData",
       [ Alcotest.test_case "#6255 from source" `Quick test_read_post_data_6255;
         Alcotest.test_case "#5774 from source" `Quick test_read_post_data_5774;
         Alcotest.test_case "&& fix safe" `Quick test_read_post_data_fixed_safe;
         Alcotest.test_case "DoS hang" `Quick test_read_post_data_dos_hang;
         Alcotest.test_case "static blind spot" `Quick
           test_read_post_data_static_blindspot ]);
      ("parser",
       [ Alcotest.test_case "corpus roundtrips" `Quick
           test_parser_roundtrips_whole_corpus;
         Alcotest.test_case "handwritten source" `Quick
           test_parser_parses_handwritten_source;
         Alcotest.test_case "do-while and recv" `Quick test_parser_do_while_and_recv;
         Alcotest.test_case "multiple functions" `Quick
           test_parser_program_multiple_funcs;
         Alcotest.test_case "error line" `Quick test_parser_error_reports_line;
         QCheck_alcotest.to_alcotest prop_progen_roundtrips ]);
      ("automatic tool",
       [ Alcotest.test_case "verify refutes/verifies" `Quick
           test_auto_verify_refutes_vulnerable;
         Alcotest.test_case "catches the off-by-one" `Quick
           test_auto_verify_catches_off_by_one;
         QCheck_alcotest.to_alcotest prop_extracted_predicate_predicts_execution;
         QCheck_alcotest.to_alcotest prop_log_predicates_predict ]) ]
