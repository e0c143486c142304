(** Differential test of the inter-pass cleanup and of SSA construction
    against the reference copies in [Reference_passes].

    The IR phase is replayed through [Toolchain.pipeline] the way
    [Toolchain] runs it. At every point where it runs [Mem2reg] or
    [Cleanup], the program is copied twice with [Ir.Snapshot]; the
    reference runs on one copy and the library on the other, and every
    function must come out structurally equal: blocks, phis with their
    argument order, instructions, terminators, predecessor lists,
    layout and the [next_*] counters. The replay then goes on from the
    library's copy. [test_golden] sees only finished binaries; this
    test sees every intermediate IR state. *)

module C = Debugtuner.Config
module E = Debugtuner.Experiments
module T = Debugtuner.Toolchain
module R = Reference_passes
module Rng_key = Debugtuner.Search_rng

let fork (p : Ir.program) =
  let sn = Ir.Snapshot.capture p in
  (Ir.Snapshot.restore sn, Ir.Snapshot.restore sn)

let sorted_fns (p : Ir.program) =
  List.sort
    (fun (a : Ir.fn) b -> String.compare a.Ir.f_name b.Ir.f_name)
    (Hashtbl.fold (fun _ fn acc -> fn :: acc) p.Ir.funcs [])

(* Run [reference] and [library] on two copies of [p]; fail unless they
   agree on every function. Returns the library's copy. *)
let differential ~what ~reference ~library (p : Ir.program) =
  let ref_p, lib_p = fork p in
  reference ref_p;
  library lib_p;
  List.iter2
    (fun (r : Ir.fn) (l : Ir.fn) ->
      if r <> l then
        Alcotest.failf
          "%s: %s differs from the reference\n-- reference --\n%s\n-- library --\n%s"
          what r.Ir.f_name (Ir.fn_to_string r) (Ir.fn_to_string l))
    (sorted_fns ref_p) (sorted_fns lib_p);
  lib_p

(* The IR phase of [ast] at [config], checking mem2reg right after
   lowering and the cleanup after mem2reg and after every executed IR
   pass. *)
let replay ~name (ast : Minic.Ast.program) ~roots (config : C.t) =
  let where step = Printf.sprintf "%s at %s, %s" name (C.name config) step in
  let prog = Lower.lower_program ast in
  let promote run (p : Ir.program) =
    Hashtbl.iter (fun _ fn -> run fn) p.Ir.funcs
  in
  let prog =
    differential ~what:(where "mem2reg")
      ~reference:(promote (fun fn -> R.Mem2reg.run fn))
      ~library:(promote (fun fn -> Mem2reg.run fn))
      prog
  in
  let cleanup ~after prog =
    differential
      ~what:(where ("cleanup after " ^ after))
      ~reference:R.Cleanup.run_program ~library:Cleanup.run_program prog
  in
  let env =
    ref
      {
        T.prog = cleanup ~after:"mem2reg" prog;
        roots;
        pure = (fun _ -> false);
        profile = None;
        enabled = C.enabled config;
      }
  in
  List.iter
    (function
      | T.Ir_pass (pass, f) when C.enabled config pass ->
          f !env;
          env := { !env with T.prog = cleanup ~after:pass !env.T.prog }
      | T.Ir_pass _ | T.Backend_flag _ -> ())
    (T.pipeline config)

(* The 13 suite programs and an 8-program seed-1 corpus, at the 7
   standard configurations. *)
let programs =
  Programs.all
  @ List.map
      (fun (e : Corpus.entry) -> e.Corpus.e_program)
      (Corpus.generate ~seed:1 ~n:8)

let test_standard_configs () =
  List.iter
    (fun (p : Suite_types.sprogram) ->
      let ast = Suite_types.ast p and roots = Suite_types.roots p in
      List.iter
        (replay ~name:p.Suite_types.p_name ast ~roots)
        E.all_standard_configs)
    programs

(* Disable-sets drawn the way the search draws them: each toggleable
   pass of gcc-O2 or clang-O2 is off with probability 1/2, from a fixed
   seed, on a suite or corpus program picked by the same generator. *)
let test_random_disable_sets () =
  let root = Rng_key.derive (Rng_key.of_seed 1013) "reference-passes" in
  let programs = Array.of_list programs in
  for i = 0 to 19 do
    let rng = Rng_key.gen (Rng_key.derive_int root i) in
    let compiler = if Util.Rng.bool rng then C.Gcc else C.Clang in
    let base = C.make compiler C.O2 in
    let disabled =
      List.filter (fun _ -> Util.Rng.bool rng) (T.pass_names base)
    in
    let p = Util.Rng.choose rng programs in
    replay ~name:p.Suite_types.p_name (Suite_types.ast p)
      ~roots:(Suite_types.roots p)
      (C.make ~disabled compiler C.O2)
  done

let tests =
  [
    Alcotest.test_case "cleanup and mem2reg match the reference" `Quick
      test_standard_configs;
    Alcotest.test_case "same on random disable-sets" `Quick
      test_random_disable_sets;
  ]
