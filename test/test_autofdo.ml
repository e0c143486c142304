(** Tests for the AutoFDO substrate: sample collection, line mapping,
    profile-guided recompilation and the end-to-end causal chain. *)

module C = Debugtuner.Config
module T = Debugtuner.Toolchain
module A = Debugtuner.Autofdo

let bench = lazy (Spec.find "505.mcf")

let test_collect_maps_samples () =
  let p = Lazy.force bench in
  let ast = Suite_types.ast p in
  let bin = T.compile ast ~config:(C.make C.Clang C.O2) ~roots:[ "main" ] in
  let coll =
    A.collect (Vm.load bin) ~entry:"main" ~workloads:[ [] ] ~period:211 ~seed:1
  in
  Alcotest.(check bool) "samples taken" true (coll.A.samples_taken > 50);
  Alcotest.(check bool) "most samples mapped" true
    (coll.A.samples_lost * 2 < coll.A.samples_taken);
  Alcotest.(check bool) "profile has hot lines" true
    (Hashtbl.length coll.A.profile.T.line_counts > 3)

let test_hot_loop_is_hottest () =
  (* mcf's relax_all arc loop is its hottest code: the top line count
     must belong to it (lines 30-45 of the source hold the loop). *)
  let p = Lazy.force bench in
  let ast = Suite_types.ast p in
  let bin = T.compile ast ~config:(C.make C.Gcc C.O0) ~roots:[ "main" ] in
  let coll =
    A.collect (Vm.load bin) ~entry:"main" ~workloads:[ [] ] ~period:101 ~seed:2
  in
  let hottest =
    Hashtbl.fold
      (fun line count (bl, bc) -> if count > bc then (line, count) else (bl, bc))
      coll.A.profile.T.line_counts (0, 0)
  in
  Alcotest.(check bool)
    (Printf.sprintf "hottest line %d inside relax_all" (fst hottest))
    true
    (fst hottest >= 28 && fst hottest <= 50)

let test_profile_guided_build_valid () =
  let p = Lazy.force bench in
  let ast = Suite_types.ast p in
  let cfg = C.make C.Clang C.O2 in
  let o =
    A.run_autofdo ast ~roots:[ "main" ] ~entry:"main" ~workloads:[ [] ]
      ~profiling_config:cfg ~final_config:cfg ()
  in
  Alcotest.(check bool) "final cost positive" true (o.A.final_cost > 0);
  (* The profile-guided binary still computes the same result. *)
  let plain = T.compile ast ~config:cfg ~roots:[ "main" ] in
  let r_plain = Vm.run plain ~entry:"main" ~input:[] Vm.default_opts in
  let bin2 = T.compile ast ~config:cfg ~roots:[ "main" ] in
  ignore bin2;
  let coll =
    A.collect (Vm.load plain) ~entry:"main" ~workloads:[ [] ] ~period:211 ~seed:7
  in
  let fdo =
    T.compile
      ~options:(T.Options.make ~profile:coll.A.profile ())
      ast ~config:cfg ~roots:[ "main" ]
  in
  let r_fdo = Vm.run fdo ~entry:"main" ~input:[] Vm.default_opts in
  Alcotest.(check (list int)) "semantics preserved under profile" r_plain.Vm.output
    r_fdo.Vm.output

let test_debug_friendlier_profile_binary_keeps_more_lines () =
  (* The RQ3 premise: O2-dy profiling binaries expose more steppable
     lines than plain O2. *)
  let p = Lazy.force bench in
  let ast = Suite_types.ast p in
  let base = T.compile ast ~config:(C.make C.Clang C.O2) ~roots:[ "main" ] in
  let dy =
    T.compile ast
      ~config:
        (C.make
           ~disabled:[ "SimplifyCFG"; "Machine code sinking"; "JumpThreading" ]
           C.Clang C.O2)
      ~roots:[ "main" ]
  in
  let lines (b : Emit.binary) =
    List.length (Dwarfish.steppable_lines b.Emit.debug)
  in
  Alcotest.(check bool) "dy keeps at least as many lines" true
    (lines dy >= lines base)

let test_profile_text_roundtrip () =
  let p = Lazy.force bench in
  let ast = Suite_types.ast p in
  let bin = T.compile ast ~config:(C.make C.Clang C.O2) ~roots:[ "main" ] in
  let coll =
    A.collect (Vm.load bin) ~entry:"main" ~workloads:[ [] ] ~period:211 ~seed:1
  in
  let prof = coll.A.profile in
  let text = A.profile_to_string prof in
  let prof' = A.profile_of_string text in
  Alcotest.(check int) "total preserved" prof.T.total_samples
    prof'.T.total_samples;
  Alcotest.(check string) "canonical text" text (A.profile_to_string prof');
  (* The parsed profile must drive compilation identically. *)
  let dig profile =
    (T.compile
       ~options:(T.Options.make ~profile ())
       ast ~config:(C.make C.Clang C.O2) ~roots:[ "main" ])
      .Emit.text_digest
  in
  Alcotest.(check string) "same optimized binary" (dig prof) (dig prof')

let test_profile_text_rejects () =
  List.iter
    (fun text ->
      match A.profile_of_string text with
      | exception A.Profile_error _ -> ()
      | _ -> Alcotest.fail ("should reject: " ^ String.escaped text))
    [
      "";
      "wrong header\ntotal: 0\n";
      "autofdo-profile v1\n" (* missing total *);
      "autofdo-profile v1\ntotal: 5\n3: 4\n" (* sum mismatch *);
      "autofdo-profile v1\ntotal: 4\n3: 2\n3: 2\n" (* duplicate line *);
      "autofdo-profile v1\ntotal: 2\nx: 2\n" (* bad line number *);
      "autofdo-profile v1\ntotal: 2\n-3: 2\n" (* negative line *);
    ]

let tests =
  [
    Alcotest.test_case "collect maps samples" `Quick test_collect_maps_samples;
    Alcotest.test_case "hot loop is hottest" `Quick test_hot_loop_is_hottest;
    Alcotest.test_case "profile-guided build valid" `Quick
      test_profile_guided_build_valid;
    Alcotest.test_case "dy profiling binary keeps lines" `Quick
      test_debug_friendlier_profile_binary_keeps_more_lines;
    Alcotest.test_case "profile text roundtrip" `Quick
      test_profile_text_roundtrip;
    Alcotest.test_case "profile text rejects malformed" `Quick
      test_profile_text_rejects;
  ]
