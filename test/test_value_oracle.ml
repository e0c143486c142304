(** Tests for the dynamic value-soundness oracle: at O0 the debugger's
    view of every variable must equal the reference interpreter's, for
    every suite program, every SPEC analog and random synthetic
    programs. At optimized levels small first-hit skews from code
    motion are expected (the companion-work "wrong values"
    phenomenon) but must stay rare. *)

module C = Debugtuner.Config
module T = Debugtuner.Toolchain
module VO = Debugtuner.Value_oracle

let check_program (p : Suite_types.sprogram) cfg =
  let ast = Suite_types.ast p in
  let bin = T.compile ast ~config:cfg ~roots:(Suite_types.roots p) in
  List.map
    (fun h ->
      let input =
        match h.Suite_types.h_seeds with s :: _ -> s | [] -> []
      in
      (h.Suite_types.h_entry, VO.check ast bin ~entry:h.Suite_types.h_entry ~input))
    p.Suite_types.p_harnesses

let test_o0_suite_clean () =
  List.iter
    (fun (p : Suite_types.sprogram) ->
      List.iter
        (fun (entry, (r : VO.report)) ->
          Alcotest.(check string)
            (Printf.sprintf "%s/%s O0 truth" p.Suite_types.p_name entry)
            ""
            (String.concat "; "
               (List.map VO.mismatch_to_string r.VO.rp_mismatches));
          Alcotest.(check bool)
            (Printf.sprintf "%s/%s compares something" p.Suite_types.p_name
               entry)
            true
            (r.VO.rp_values > 0))
        (check_program p (C.make C.Gcc C.O0)))
    Programs.all

let test_o0_spec_clean () =
  List.iter
    (fun (p : Suite_types.sprogram) ->
      List.iter
        (fun (entry, (r : VO.report)) ->
          Alcotest.(check int)
            (Printf.sprintf "%s/%s O0 truth" p.Suite_types.p_name entry)
            0
            (List.length r.VO.rp_mismatches))
        (check_program p (C.make C.Gcc C.O0)))
    Spec.all

let qcheck_o0_random_clean =
  QCheck.Test.make ~name:"random programs are truthful at O0" ~count:20
    QCheck.(int_range 1 60_000)
    (fun seed ->
      let src = Synth.generate ~seed in
      let ast = Minic.Typecheck.parse_and_check src in
      let bin = T.compile ast ~config:(C.make C.Gcc C.O0) ~roots:[ "main" ] in
      let r = VO.check ast bin ~entry:"main" ~input:[] in
      r.VO.rp_mismatches = [])

let test_og_skew_is_rare () =
  (* Optimization introduces first-hit skew, but it must stay a small
     fraction of the compared values (the paper's companion work reports
     the same order of magnitude for production compilers). *)
  List.iter
    (fun (p : Suite_types.sprogram) ->
      List.iter
        (fun (entry, (r : VO.report)) ->
          if r.VO.rp_values >= 20 then
            Alcotest.(check bool)
              (Printf.sprintf "%s/%s Og skew rare (%d/%d)"
                 p.Suite_types.p_name entry
                 (List.length r.VO.rp_mismatches)
                 r.VO.rp_values)
              true
              (10 * List.length r.VO.rp_mismatches <= r.VO.rp_values))
        (check_program p (C.make C.Gcc C.Og)))
    Programs.all

let test_report_format () =
  let p = Programs.find "zlib" in
  let ast = Suite_types.ast p in
  let bin =
    T.compile ast ~config:(C.make C.Gcc C.O0) ~roots:(Suite_types.roots p)
  in
  let r = VO.check ast bin ~entry:"fuzz_deflate" ~input:[ 1; 2; 3 ] in
  let s = VO.report_to_string r in
  Alcotest.(check bool) "mentions counts" true
    (String.length s > 20 && String.sub s 0 12 = "value oracle");
  Alcotest.(check string) "oval rendering" "{1, 2}"
    (VO.oval_to_string (VO.Varr [ 1; 2 ]));
  Alcotest.(check string) "int rendering" "-7" (VO.oval_to_string (VO.Vint (-7)))

let tests =
  [
    Alcotest.test_case "O0 truth on the test suite" `Quick test_o0_suite_clean;
    Alcotest.test_case "O0 truth on the SPEC analogs" `Quick
      test_o0_spec_clean;
    QCheck_alcotest.to_alcotest qcheck_o0_random_clean;
    Alcotest.test_case "Og skew is rare" `Quick test_og_skew_is_rare;
    Alcotest.test_case "report format" `Quick test_report_format;
  ]
