(** Differential correctness over the ranking sweep's compile space:
    single-pass-disabled configurations must produce binaries that agree
    with O0 on every harness seed — this is exactly the space the
    DebugTuner sweep (Tables V/VI) explores. *)

module C = Debugtuner.Config
module T = Debugtuner.Toolchain

let check_program_config (p : Suite_types.sprogram) (cfg : C.t) =
  let ast = Suite_types.ast p in
  let roots = Suite_types.roots p in
  let o0 = T.compile ast ~config:(C.make C.Gcc C.O0) ~roots in
  let bin = T.compile ast ~config:cfg ~roots in
  List.iter
    (fun (h : Suite_types.harness) ->
      let inputs =
        if h.Suite_types.h_seeds = [] then [ [] ] else h.Suite_types.h_seeds
      in
      List.iter
        (fun input ->
          let r0 = Vm.run o0 ~entry:h.Suite_types.h_entry ~input Vm.default_opts in
          let r1 = Vm.run bin ~entry:h.Suite_types.h_entry ~input Vm.default_opts in
          Alcotest.(check (list int))
            (Printf.sprintf "%s %s %s" p.Suite_types.p_name (C.name cfg)
               h.Suite_types.h_name)
            r0.Vm.output r1.Vm.output)
        inputs)
    p.Suite_types.p_harnesses

(* A representative slice: four structurally different programs at the
   two most aggressive levels, sweeping every toggleable pass. *)
let swept_programs = [ "bzip2"; "libpcap"; "wasm3"; "libdwarf" ]

let sweep_case pname comp =
  Alcotest.test_case
    (Printf.sprintf "%s %s sweep" pname (C.compiler_name comp))
    `Slow
    (fun () ->
      let p = Programs.find pname in
      let level = C.O2 in
      List.iter
        (fun pass ->
          check_program_config p (C.make ~disabled:[ pass ] comp level))
        (T.pass_names (C.make comp level)))

(* Multi-pass dy-style combinations on one program. *)
let test_dy_combinations () =
  let p = Programs.find "libpng" in
  List.iter
    (fun (comp, level) ->
      let names = T.pass_names (C.make comp level) in
      let prefixes = [ 3; 5; 9; List.length names ] in
      List.iter
        (fun k ->
          let disabled = List.filteri (fun i _ -> i < k) names in
          check_program_config p (C.make ~disabled comp level))
        prefixes)
    [ (C.Gcc, C.O3); (C.Clang, C.O3); (C.Gcc, C.Og) ]

(* Profile-guided builds must preserve semantics too. *)
let test_profile_guided_configs () =
  let p = Spec.find "525.x264" in
  let ast = Suite_types.ast p in
  let roots = Suite_types.roots p in
  let cfg = C.make C.Clang C.O2 in
  let bin = T.compile ast ~config:cfg ~roots in
  let coll =
    Debugtuner.Autofdo.collect (Vm.load bin) ~entry:"main" ~workloads:[ [] ]
      ~period:211 ~seed:3
  in
  let fdo =
    T.compile
      ~options:(T.Options.make ~profile:coll.Debugtuner.Autofdo.profile ())
      ast ~config:cfg ~roots
  in
  let r0 = Vm.run bin ~entry:"main" ~input:[] Vm.default_opts in
  let r1 = Vm.run fdo ~entry:"main" ~input:[] Vm.default_opts in
  Alcotest.(check (list int)) "profile-guided output identical" r0.Vm.output
    r1.Vm.output

let tests =
  List.concat_map
    (fun pname -> [ sweep_case pname C.Gcc; sweep_case pname C.Clang ])
    swept_programs
  @ [
      Alcotest.test_case "dy combinations" `Slow test_dy_combinations;
      Alcotest.test_case "profile-guided semantics" `Quick
        test_profile_guided_configs;
    ]
