(** Differential conformance harness pinning the fast VM core to
    {!Vm.Reference}, the executable specification: every suite and
    fuzz-generated binary must produce byte-identical {!Vm.result}s —
    output, cost, instruction count, coverage edges, breakpoint hits,
    samples and timeout status — across the whole [run_opts] grid
    (coverage on/off, breakpoints, sampling periods including the
    degenerate [Some 1], and budget exhaustion, including exhaustion
    mid-call). The fast core is forced explicitly (not via [Vm.run]'s
    dispatcher), so a [DEBUGTUNER_VM=reference] environment cannot make
    these tests vacuous, and every binary is asserted decodable so the
    fast path provably engages. *)

module C = Debugtuner.Config
module T = Debugtuner.Toolchain

let compile ?(config = C.make C.Gcc C.O0) src roots =
  T.compile_source src ~config ~roots

(* The config spread: unoptimized, heavily optimized, and the clang
   pipeline — shrink-wrapping, spilling, scheduling and block placement
   all change which cost-model paths the binary exercises. *)
let configs =
  [ C.make C.Gcc C.O0; C.make C.Gcc C.O2; C.make C.Clang C.O2 ]

(* Byte-for-byte equality of everything in a [Vm.result], the edge
   counts id by id. *)
let check_same what (ref_r : Vm.result) (fast_r : Vm.result) =
  Alcotest.(check (list int)) (what ^ " output") ref_r.Vm.output fast_r.Vm.output;
  Alcotest.(check int) (what ^ " cost") ref_r.Vm.cost fast_r.Vm.cost;
  Alcotest.(check int) (what ^ " instrs") ref_r.Vm.instrs fast_r.Vm.instrs;
  Alcotest.(check bool) (what ^ " timed_out") ref_r.Vm.timed_out
    fast_r.Vm.timed_out;
  Alcotest.(check (list int)) (what ^ " bp_hits") ref_r.Vm.bp_hits
    fast_r.Vm.bp_hits;
  Alcotest.(check (list int)) (what ^ " samples") ref_r.Vm.samples
    fast_r.Vm.samples;
  Alcotest.(check (array int)) (what ^ " edges") ref_r.Vm.edges fast_r.Vm.edges

(* The fast core, forced: a binary the decoder rejects fails the test. *)
let decode what bin =
  try Vm.Decode.decode bin
  with Vm.Decode.Unsupported ->
    Alcotest.fail (what ^ ": binary rejected by the fast-core decoder")

let run_fast bin ~entry ~args ~input opts =
  Vm.Fast.run (decode entry bin) bin ~entry ~args ~input opts

(* The opts grid. Breakpoint arrays are mutated by the run (first-hit
   clearing), so each core gets its own fresh copy. *)
let opts_grid code_len : (string * (unit -> Vm.run_opts)) list =
  let mk ?(max_instrs = Vm.default_opts.Vm.max_instrs) ?(coverage = false)
      ?(bps = false) ?sample_period () () =
    {
      Vm.max_instrs;
      coverage;
      breakpoints = (if bps then Some (Array.make code_len true) else None);
      sample_period;
      seed = 1;
    }
  in
  [
    ("plain", mk ());
    ("coverage", mk ~coverage:true ());
    ("breakpoints", mk ~bps:true ());
    ("sampling", mk ~sample_period:997 ());
    ("sampling-1", mk ~sample_period:1 ());
    ("all-instr", mk ~coverage:true ~bps:true ~sample_period:97 ());
    ("tiny-budget", mk ~max_instrs:40 ());
    ("tiny-budget-coverage", mk ~max_instrs:40 ~coverage:true ());
    ("tiny-budget-instr", mk ~max_instrs:40 ~coverage:true ~sample_period:13 ());
  ]

let conform ?(args = []) ~what bin ~entry ~input () =
  let p = decode what bin in
  List.iter
    (fun (oname, mk_opts) ->
      let r_ref = Vm.Reference.run bin ~entry ~args ~input (mk_opts ()) in
      let r_fast = Vm.Fast.run p bin ~entry ~args ~input (mk_opts ()) in
      check_same (what ^ " [" ^ oname ^ "]") r_ref r_fast)
    (opts_grid (Array.length bin.Emit.code))

(* ------------------------------------------------------------------ *)
(* Suite programs: every harness seed at every config.                 *)

let suite_subjects = [ "zlib"; "libpng"; "wasm3"; "bzip2"; "liblouis" ]

let test_suite_conformance () =
  List.iter
    (fun name ->
      let p = Programs.find name in
      let ast = Suite_types.ast p in
      let roots = Suite_types.roots p in
      List.iter
        (fun config ->
          let bin = T.compile ast ~config ~roots in
          List.iter
            (fun (h : Suite_types.harness) ->
              let seeds = if h.Suite_types.h_seeds = [] then [ [] ] else h.Suite_types.h_seeds in
              List.iter
                (fun input ->
                  conform
                    ~what:
                      (Printf.sprintf "%s/%s@%s" name h.Suite_types.h_name
                         (C.name config))
                    bin ~entry:h.Suite_types.h_entry ~input ())
                seeds)
            p.Suite_types.p_harnesses)
        configs)
    suite_subjects

(* Every budget from 1 to 400 on the first seed input of every suite
   harness, plain and coverage, at gcc-O0 and gcc-O2: a superinstruction
   re-checks the budget before each later part, and this cuts every
   fused instruction the short runs reach at every part. *)
let test_budget_sweep () =
  List.iter
    (fun (p : Suite_types.sprogram) ->
      let ast = Suite_types.ast p and roots = Suite_types.roots p in
      List.iter
        (fun config ->
          let bin = T.compile ast ~config ~roots in
          let prog = decode p.Suite_types.p_name bin in
          List.iter
            (fun (h : Suite_types.harness) ->
              let entry = h.Suite_types.h_entry in
              let input =
                match h.Suite_types.h_seeds with s :: _ -> s | [] -> []
              in
              List.iter
                (fun coverage ->
                  for max_instrs = 1 to 400 do
                    let opts = { Vm.default_opts with max_instrs; coverage } in
                    check_same
                      (Printf.sprintf "%s/%s@%s budget %d%s" p.Suite_types.p_name
                         h.Suite_types.h_name (C.name config) max_instrs
                         (if coverage then " coverage" else ""))
                      (Vm.Reference.run bin ~entry ~input opts)
                      (Vm.Fast.run prog bin ~entry ~args:[] ~input opts)
                  done)
                [ false; true ])
            p.Suite_types.p_harnesses)
        [ C.make C.Gcc C.O0; C.make C.Gcc C.O2 ])
    Programs.all

(* Every binary operator over every pair of edge operands, read from the
   input so no pass folds them: the fast core evaluates operators
   inline, and this pins that evaluator to [Ir.eval_binop]. *)
let operators_src =
  "int main() {\n\
   while (!eof()) {\n\
   int a = input();\n\
   int b = input();\n\
   output(a + b); output(a - b); output(a * b); output(a / b);\n\
   output(a % b); output(a & b); output(a | b); output(a ^ b);\n\
   output(a << b); output(a >> b); output(a == b); output(a != b);\n\
   output(a < b); output(a <= b); output(a > b); output(a >= b);\n\
   }\n\
   return 0;\n\
   }"

let test_operator_grid () =
  let edge = [ 0; 1; -1; 2; -2; 62; 63; 64; 65; max_int; min_int ] in
  let pairs = List.concat_map (fun a -> List.map (fun b -> (a, b)) edge) edge in
  let input = List.concat_map (fun (a, b) -> [ a; b ]) pairs in
  let expected =
    List.concat_map
      (fun (a, b) ->
        List.map
          (fun op -> Ir.eval_binop op a b)
          Ir.
            [
              Add; Sub; Mul; Div; Rem; And; Or; Xor; Shl; Shr; Ceq; Cne; Clt;
              Cle; Cgt; Cge;
            ])
      pairs
  in
  List.iter
    (fun config ->
      let bin = compile ~config operators_src [ "main" ] in
      let what = "operators@" ^ C.name config in
      conform ~what bin ~entry:"main" ~input ();
      Alcotest.(check (list int))
        (what ^ " output")
        expected
        (run_fast bin ~entry:"main" ~args:[] ~input Vm.default_opts).Vm.output)
    [ C.make C.Gcc C.O0; C.make C.Gcc C.O2 ]

(* ------------------------------------------------------------------ *)
(* Edge ids: the table both cores count through.                       *)

let test_edge_table () =
  (* Strictly ascending, and exactly the static transfers: every jump,
     every branch arm, and every (return, call site + 1) pair of a call
     to the return's function. *)
  List.iter
    (fun (name, config) ->
      let p = Programs.find name in
      let bin =
        T.compile (Suite_types.ast p) ~config ~roots:(Suite_types.roots p)
      in
      let what = name ^ "@" ^ C.name config in
      let table = Vm.edge_table bin in
      Array.iteri
        (fun i e ->
          if i > 0 && compare table.(i - 1) e >= 0 then
            Alcotest.failf "%s: edge %d not above edge %d" what i (i - 1))
        table;
      let code = bin.Emit.code in
      let expected = ref [] and returns = ref 0 in
      let add a dst = expected := (a, dst) :: !expected in
      Array.iteri
        (fun a op ->
          match op with
          | Emit.Ejmp t -> add a t
          | Emit.Ecbr (_, t1, t2) ->
              add a t1;
              add a t2
          | Emit.Eret _ ->
              Array.iteri
                (fun c op' ->
                  match op' with
                  | Emit.Eins (Mach.Mcall (_, f, _))
                    when Hashtbl.find_opt bin.Emit.fn_by_name f
                         = Some bin.Emit.fn_of_addr.(a) ->
                      incr returns;
                      add a (c + 1)
                  | _ -> ())
                code
          | Emit.Eins _ -> ())
        code;
      Alcotest.(check bool) (what ^ " has return edges") true (!returns > 0);
      Alcotest.(check (list (pair int int)))
        (what ^ " edges")
        (List.sort_uniq compare !expected)
        (Array.to_list table))
    [ ("zlib", C.make C.Gcc C.O0); ("libpng", C.make C.Clang C.O2) ]

(* ------------------------------------------------------------------ *)
(* Fuzz-generated binaries: the synthetic generator at many seeds,     *)
(* each config, on the oracle's input vectors.                         *)

let synth_inputs = [ []; [ 3; 1; 4; 1; 5; 9; 2; 6 ] ]

let test_synth_conformance () =
  for seed = 1 to 40 do
    let src = Synth.generate ~seed in
    List.iter
      (fun config ->
        let bin = compile ~config src [ "main" ] in
        List.iter
          (fun input ->
            conform
              ~what:(Printf.sprintf "synth-%d@%s" seed (C.name config))
              bin ~entry:"main" ~input ())
          synth_inputs)
      configs
  done

let test_qcheck_conformance =
  QCheck.Test.make ~count:120 ~name:"random synth binaries conform"
    QCheck.(make Gen.(int_range 100 100_000))
    (fun seed ->
      let src = Synth.generate ~seed in
      let config = C.make (if seed mod 2 = 0 then C.Gcc else C.Clang) C.O2 in
      let bin = compile ~config src [ "main" ] in
      let opts =
        {
          Vm.default_opts with
          Vm.coverage = seed mod 3 = 0;
          sample_period = (if seed mod 5 = 0 then Some 61 else None);
          max_instrs = (if seed mod 7 = 0 then 100 else 1_000_000);
        }
      in
      let r_ref = Vm.Reference.run bin ~entry:"main" ~input:[] opts in
      let r_fast = run_fast bin ~entry:"main" ~args:[] ~input:[] opts in
      r_ref.Vm.output = r_fast.Vm.output
      && r_ref.Vm.cost = r_fast.Vm.cost
      && r_ref.Vm.instrs = r_fast.Vm.instrs
      && r_ref.Vm.timed_out = r_fast.Vm.timed_out
      && r_ref.Vm.samples = r_fast.Vm.samples
      && r_ref.Vm.edges = r_fast.Vm.edges)

(* ------------------------------------------------------------------ *)
(* run_opts edge cases the suite never hits.                           *)

let fib_src =
  "int fib(int n) { if (n < 2) { return n; } return fib(n - 1) + fib(n - \
   2); }\n\
   int main() { output(fib(12)); return 0; }"

let test_budget_mid_call () =
  (* Sweep small budgets over a call-heavy program: several of them
     exhaust inside the call/enter sequence. The partial output, the
     instrs = budget + 1 accounting and the timeout flag must match. *)
  List.iter
    (fun config ->
      let bin = compile ~config fib_src [ "main" ] in
      List.iter
        (fun budget ->
          let mk () = { Vm.default_opts with Vm.max_instrs = budget } in
          let r_ref = Vm.Reference.run bin ~entry:"main" ~input:[] (mk ()) in
          let r_fast = run_fast bin ~entry:"main" ~args:[] ~input:[] (mk ()) in
          Alcotest.(check bool)
            (Printf.sprintf "budget %d timed out" budget)
            true r_ref.Vm.timed_out;
          Alcotest.(check int)
            (Printf.sprintf "budget %d instrs = budget + 1" budget)
            (budget + 1) r_ref.Vm.instrs;
          check_same (Printf.sprintf "budget %d" budget) r_ref r_fast)
        [ 1; 2; 3; 5; 8; 13; 21; 55; 233; 1597 ])
    configs

let test_unreachable_breakpoints () =
  (* Breakpoints planted on every address: the unreachable ones must
     never fire, survive in the array, and both cores must agree on the
     surviving set. *)
  let src =
    "int main() { int x = input(); if (x) { output(1); } else { output(2); \
     } return 0; }"
  in
  List.iter
    (fun config ->
      let bin = compile ~config src [ "main" ] in
      let len = Array.length bin.Emit.code in
      let bp_ref = Array.make len true and bp_fast = Array.make len true in
      let mk bps =
        { Vm.default_opts with Vm.breakpoints = Some bps }
      in
      let r_ref = Vm.Reference.run bin ~entry:"main" ~input:[ 0 ] (mk bp_ref) in
      let r_fast = run_fast bin ~entry:"main" ~args:[] ~input:[ 0 ] (mk bp_fast) in
      check_same "unreachable bps" r_ref r_fast;
      Alcotest.(check (array bool)) "surviving breakpoints" bp_ref bp_fast;
      (* The not-taken arm really was unreachable: some breakpoints
         survive, and none of the hits repeat. *)
      Alcotest.(check bool)
        "some breakpoints never fire" true
        (Array.exists (fun b -> b) bp_ref);
      let sorted = List.sort_uniq compare r_ref.Vm.bp_hits in
      Alcotest.(check int)
        "hits are first-hit unique"
        (List.length sorted)
        (List.length r_ref.Vm.bp_hits))
    configs

let test_sample_every_cycle () =
  (* sample_period = Some 1: the jitter degenerates to Rng.int _ 1 = 0,
     so every instruction boundary past the cost threshold samples. *)
  let bin = compile fib_src [ "main" ] in
  let mk () = { Vm.default_opts with Vm.sample_period = Some 1 } in
  let r_ref = Vm.Reference.run bin ~entry:"main" ~input:[] (mk ()) in
  let r_fast = run_fast bin ~entry:"main" ~args:[] ~input:[] (mk ()) in
  check_same "period-1 sampling" r_ref r_fast;
  Alcotest.(check bool) "dense samples" true
    (List.length r_ref.Vm.samples >= r_ref.Vm.cost / 2)

let test_empty_input () =
  (* input() on an exhausted stream yields 0 without advancing; eof()
     flips to 1 immediately on an empty vector. *)
  let src =
    "int main() { output(eof()); output(input()); output(input()); \
     output(eof()); return 0; }"
  in
  List.iter
    (fun config ->
      let bin = compile ~config src [ "main" ] in
      let r_ref = Vm.Reference.run bin ~entry:"main" ~input:[] Vm.default_opts in
      let r_fast =
        run_fast bin ~entry:"main" ~args:[] ~input:[] Vm.default_opts
      in
      Alcotest.(check (list int)) "empty-input semantics" [ 1; 0; 0; 1 ]
        r_ref.Vm.output;
      check_same "empty input" r_ref r_fast)
    configs

(* ------------------------------------------------------------------ *)
(* enter_function arity handling (the fixed nth_opt path).             *)

let arity_src =
  "int f(int a, int b) { output(a); output(b); return a + b; }\n\
   int main() { return 0; }"

let test_arity_underapplication () =
  List.iter
    (fun config ->
      let bin = compile ~config arity_src [ "f"; "main" ] in
      let r = Vm.run bin ~entry:"f" ~args:[ 7 ] ~input:[] Vm.default_opts in
      Alcotest.(check (list int)) "missing args zero-filled" [ 7; 0 ] r.Vm.output;
      let r_ref =
        Vm.Reference.run bin ~entry:"f" ~args:[ 7 ] ~input:[] Vm.default_opts
      in
      check_same "under-application" r_ref r)
    configs

let test_arity_overapplication () =
  List.iter
    (fun config ->
      let bin = compile ~config arity_src [ "f"; "main" ] in
      let r =
        Vm.run bin ~entry:"f" ~args:[ 7; 8; 9; 10 ] ~input:[] Vm.default_opts
      in
      Alcotest.(check (list int)) "surplus args dropped" [ 7; 8 ] r.Vm.output;
      let r_ref =
        Vm.Reference.run bin ~entry:"f" ~args:[ 7; 8; 9; 10 ] ~input:[]
          Vm.default_opts
      in
      check_same "over-application" r_ref r)
    configs

(* ------------------------------------------------------------------ *)

let tests =
  [
    Alcotest.test_case "suite programs conform across opts grid" `Slow
      test_suite_conformance;
    Alcotest.test_case "synthetic binaries conform across opts grid" `Slow
      test_synth_conformance;
    QCheck_alcotest.to_alcotest test_qcheck_conformance;
    Alcotest.test_case "every budget from 1 to 400 on the suite seeds" `Slow
      test_budget_sweep;
    Alcotest.test_case "every binary operator at the edge operands" `Quick
      test_operator_grid;
    Alcotest.test_case "edge table holds every static transfer" `Quick
      test_edge_table;
    Alcotest.test_case "budget exhaustion mid-call" `Quick test_budget_mid_call;
    Alcotest.test_case "breakpoints on unreachable addresses" `Quick
      test_unreachable_breakpoints;
    Alcotest.test_case "sample_period = 1" `Quick test_sample_every_cycle;
    Alcotest.test_case "empty-input input()/eof()" `Quick test_empty_input;
    Alcotest.test_case "arity under-application zero-fills" `Quick
      test_arity_underapplication;
    Alcotest.test_case "arity over-application drops surplus" `Quick
      test_arity_overapplication;
  ]
