(** Differential tests of the inter-pass cleanup, SSA construction,
    CSE, jump threading, tail merging and the snapshot digest against
    the reference copies in [Reference_passes].

    The IR phase is replayed through [Toolchain.pipeline] the way
    [Toolchain] runs it. At every point where it runs [Mem2reg] or
    [Cleanup], and at every pipeline entry that runs CSE or jump
    threading, the program is copied twice with [Ir.Snapshot]; the
    reference runs on one copy and the library on the other, and every
    function must come out structurally equal: blocks, phis with their
    argument order, instructions, terminators, predecessor lists,
    layout and the [next_*] counters. The replay then goes on from the
    library's copy. Along the way, two consecutive IR states must have
    equal snapshot digests exactly when their printed digests are
    equal. [test_golden] sees only finished binaries; this test sees
    every intermediate IR state. Tail merging is checked the same way
    on every machine function at every machine pass boundary. *)

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

(* The pipeline entries that run CSE or jump threading, built from the
   reference copies the way [Toolchain.pipeline] builds them from the
   library's. *)
let reference_entry pass : (T.env -> unit) option =
  let global (env : T.env) =
    R.Cse.run_global_program ~pure_calls:env.T.pure env.T.prog
  and thread (env : T.env) = R.Jump_threading.run_program env.T.prog in
  match pass with
  | "tree-fre" | "GVN" -> Some global
  | "tree-dominator-opts" ->
      Some
        (fun env ->
          global env;
          thread env)
  | "expensive-opts" ->
      Some
        (fun env ->
          global env;
          Sink.run_program env.T.prog;
          ignore (Dse.run env.T.prog))
  | "thread-jumps" | "JumpThreading" -> Some thread
  | "EarlyCSE" -> Some (fun env -> R.Cse.run_local_program env.T.prog)
  | _ -> None

(* Consecutive states whose digests were equal, over every replay: the
   digest check must see both outcomes to show anything. *)
let equal_digest_pairs = ref 0

(* The IR phase of [ast] at [config], checking mem2reg right after
   lowering, the cleanup after mem2reg and after every executed IR
   pass, and every entry that runs CSE or jump threading; and the
   snapshot digest against the printed one at every state. *)
let replay ~name (ast : Minic.Ast.program) ~roots (config : C.t) =
  let where step = Printf.sprintf "%s at %s, %s" name (C.name config) step in
  let last = ref None in
  let observe step (p : Ir.program) =
    let d = (Ir.Snapshot.digest_program p, R.Snapshot.digest_program p) in
    (match !last with
    | Some (prev_step, (snap, printed)) ->
        let same_snap = snap = fst d and same_printed = printed = snd d in
        if same_snap <> same_printed then
          Alcotest.failf
            "%s: snapshot digests %s but printed digests %s against %s"
            (where step)
            (if same_snap then "equal" else "differ")
            (if same_printed then "equal" else "differ")
            prev_step;
        if same_snap then incr equal_digest_pairs
    | None -> ());
    last := Some (step, d);
    p
  in
  let prog = observe "lower" (Lower.lower_program ast) in
  let promote run (p : Ir.program) =
    Hashtbl.iter (fun _ fn -> run fn) p.Ir.funcs
  in
  let prog =
    differential ~what:(where "mem2reg")
      ~reference:(promote (fun fn -> R.Mem2reg.run fn))
      ~library:(promote (fun fn -> Mem2reg.run fn))
      prog
    |> observe "mem2reg"
  in
  let cleanup ~after prog =
    differential
      ~what:(where ("cleanup after " ^ after))
      ~reference:R.Cleanup.run_program ~library:Cleanup.run_program prog
    |> observe ("cleanup after " ^ after)
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
          let prog =
            match reference_entry pass with
            | Some reference ->
                let on (run : T.env -> unit) p = run { !env with T.prog = p } in
                differential ~what:(where pass) ~reference:(on reference)
                  ~library:(on f) !env.T.prog
            | None ->
                f !env;
                !env.T.prog
          in
          env := { !env with T.prog = cleanup ~after:pass (observe pass prog) }
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
  equal_digest_pairs := 0;
  List.iter
    (fun (p : Suite_types.sprogram) ->
      let ast = Suite_types.ast p and roots = Suite_types.roots p in
      List.iter
        (replay ~name:p.Suite_types.p_name ast ~roots)
        E.all_standard_configs)
    programs;
  Alcotest.(check bool) "some consecutive states digest alike" true
    (!equal_digest_pairs > 0)

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

(* A copy of a machine function with its own blocks and instruction
   records, so a pass run on it leaves the compilation alone. *)
let copy_mfn (m : Mach.mfn) =
  {
    m with
    Mach.mf_blocks =
      Ir.Label_store.map
        (fun (b : Mach.mblock) ->
          {
            b with
            Mach.mins =
              List.map
                (fun (i : Mach.minstr) -> { i with Mach.mk = i.Mach.mk })
                b.Mach.mins;
          })
        m.Mach.mf_blocks;
  }

(* Every machine function of the suite and a 24-program seed-1 corpus,
   at the 7 standard configurations, after instruction selection and
   after every machine pass: tail merging it with the library and with
   the reference gives structurally equal functions. *)
let test_tail_merge () =
  let programs =
    Programs.all
    @ List.map
        (fun (e : Corpus.entry) -> e.Corpus.e_program)
        (Corpus.generate ~seed:1 ~n:24)
  in
  let merged = ref 0 in
  List.iter
    (fun (p : Suite_types.sprogram) ->
      List.iter
        (fun config ->
          let check pass = function
            | Instrument.Mach_fn m ->
                let r = copy_mfn m and l = copy_mfn m in
                R.Mach_passes.tail_merge_all r;
                Mach_passes.tail_merge_all l;
                if r <> l then
                  Alcotest.failf
                    "%s at %s: tail merge of %s after %s differs from the \
                     reference"
                    p.Suite_types.p_name (C.name config) m.Mach.mf_name pass;
                if l.Mach.mf_layout <> m.Mach.mf_layout then incr merged
            | Instrument.Ir_program _ | Instrument.Binary _ -> ()
          in
          ignore
            (T.compile
               ~instrument:{ Instrument.nop with Instrument.on_pass = check }
               (Suite_types.ast p) ~config ~roots:(Suite_types.roots p)))
        E.all_standard_configs)
    programs;
  Alcotest.(check bool) "some functions merge" true (!merged > 0)

let tests =
  [
    Alcotest.test_case "cleanup and mem2reg match the reference" `Quick
      test_standard_configs;
    Alcotest.test_case "same on random disable-sets" `Quick
      test_random_disable_sets;
    Alcotest.test_case "tail merge matches the reference" `Quick test_tail_merge;
  ]
