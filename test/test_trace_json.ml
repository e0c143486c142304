(** Tests for the JSON trace export (paper Section III-C) and offline
    trace comparison. *)

module C = Debugtuner.Config
module T = Debugtuner.Toolchain

let make_trace cfg =
  let p = Programs.find "zlib" in
  let ast = Suite_types.ast p in
  let bin = T.compile ast ~config:cfg ~roots:(Suite_types.roots p) in
  Debugger.trace bin ~entry:"fuzz_deflate" ~inputs:[ [ 1; 2; 3; 1; 2; 3 ] ]

let trace_equal (a : Debugger.trace) (b : Debugger.trace) =
  List.sort compare a.Debugger.steppable = List.sort compare b.Debugger.steppable
  && a.Debugger.hit_order = b.Debugger.hit_order
  && Hashtbl.length a.Debugger.stepped = Hashtbl.length b.Debugger.stepped
  && Hashtbl.fold
       (fun line vars acc ->
         acc
         &&
         match Hashtbl.find_opt b.Debugger.stepped line with
         | Some vb -> Debugger.Var_set.equal vars vb
         | None -> false)
       a.Debugger.stepped true

let test_roundtrip () =
  let t = make_trace (C.make C.Gcc C.O2) in
  let t' = Trace_json.of_string (Trace_json.to_string t) in
  Alcotest.(check bool) "roundtrip preserves the trace" true (trace_equal t t')

let test_canonical_output () =
  let t = make_trace (C.make C.Gcc C.O2) in
  Alcotest.(check string) "serialization is canonical"
    (Trace_json.to_string t)
    (Trace_json.to_string (Trace_json.of_string (Trace_json.to_string t)))

let test_escape () =
  Alcotest.(check string) "quotes escaped" "a\\\"b" (Util.Json.escape "a\"b");
  Alcotest.(check string) "backslash escaped" "a\\\\b" (Util.Json.escape "a\\b")

let test_parse_errors () =
  List.iter
    (fun s ->
      match Trace_json.of_string s with
      | exception Trace_json.Parse_error _ -> ()
      | _ -> Alcotest.fail ("should reject: " ^ s))
    [ "{"; "[1,2"; "{\"wrong\": 1}"; "{\"steppable\": [1,]}" ]

let test_any_key_order () =
  let t = make_trace (C.make C.Gcc C.O2) in
  let reordered =
    match Util.Json.parse (Trace_json.to_string t) with
    | Util.Json.Obj fields -> Util.Json.to_string (Util.Json.Obj (List.rev fields))
    | _ -> Alcotest.fail "not an object"
  in
  Alcotest.(check bool) "reordered keys read back" true
    (trace_equal t (Trace_json.of_string reordered))

let test_compare_traces () =
  let o0 = make_trace (C.make C.Gcc C.O0) in
  let o3 = make_trace (C.make C.Gcc C.O3) in
  let d = Trace_json.compare_traces o0 o3 in
  (* Optimization can only lose relative to O0 here. *)
  Alcotest.(check (list int)) "nothing gained over O0" [] d.Trace_json.lines_gained;
  Alcotest.(check bool) "something lost at O3" true
    (d.Trace_json.lines_lost <> [] || d.Trace_json.vars_lost <> []);
  let self = Trace_json.compare_traces o0 o0 in
  Alcotest.(check bool) "self-diff empty" true
    (self.Trace_json.lines_lost = []
    && self.Trace_json.lines_gained = []
    && self.Trace_json.vars_lost = [])

(* The document [debugtuner trace -p zlib -l O2 -o F] writes, pinned
   byte for byte, and read back to the same bytes. *)
let test_artifact_pinned () =
  let resp =
    Api.execute (Api.create_ctx ())
      (Api.Request.Compile
         {
           c_subject = Api.Request.Named "zlib";
           c_config = C.make C.Gcc C.O2;
           c_profile = None;
           c_sanitize = false;
           c_view = Api.Request.Trace { t_entry = None; t_input = [] };
         })
  in
  let doc = Option.get resp.Api.Response.artifact in
  Alcotest.(check string) "document digest" "d5550fc17befc241cece924f4aa647a4"
    (Digest.to_hex (Digest.string doc));
  Alcotest.(check string) "reads back to the same bytes" doc
    (Trace_json.to_string (Trace_json.of_string doc))

let qcheck_roundtrip_random_programs =
  QCheck.Test.make ~name:"json roundtrip on random traces" ~count:15
    QCheck.(int_range 1 20_000)
    (fun seed ->
      let src = Synth.generate ~seed in
      let ast = Minic.Typecheck.parse_and_check src in
      let bin = T.compile ast ~config:(C.make C.Clang C.O2) ~roots:[ "main" ] in
      let t = Debugger.trace bin ~entry:"main" ~inputs:[ [] ] in
      trace_equal t (Trace_json.of_string (Trace_json.to_string t)))

let tests =
  [
    Alcotest.test_case "roundtrip" `Quick test_roundtrip;
    Alcotest.test_case "canonical output" `Quick test_canonical_output;
    Alcotest.test_case "string escaping" `Quick test_escape;
    Alcotest.test_case "parse errors" `Quick test_parse_errors;
    Alcotest.test_case "any key order" `Quick test_any_key_order;
    Alcotest.test_case "compare traces" `Quick test_compare_traces;
    Alcotest.test_case "zlib-O2 document pinned" `Quick test_artifact_pinned;
    QCheck_alcotest.to_alcotest qcheck_roundtrip_random_programs;
  ]
