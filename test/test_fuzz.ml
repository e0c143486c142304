(** Tests for the fuzzing substrate: coverage-guided loop, corpus
    minimization and debug-trace pruning. *)

module C = Debugtuner.Config
module T = Debugtuner.Toolchain

let branchy =
  lazy
    (Vm.load @@ T.compile_source
       "int classify(int x) {\n\
        if (x < 0) { return 0; }\n\
        if (x == 42) { return 1; }\n\
        if (x > 1000) { return 2; }\n\
        if (x % 2 == 0) { return 3; }\n\
        return 4;\n\
        }\n\
        int main() {\n\
        while (!eof()) {\n\
        output(classify(input()));\n\
        }\n\
        return 0;\n\
        }"
       ~config:(C.make C.Gcc C.O0)
       ~roots:[ "main" ])

let test_fuzzer_deterministic () =
  let prog = Lazy.force branchy in
  let go () = Fuzzer.fuzz prog ~entry:"main" ~seeds:[ [ 1 ] ] ~budget:150 ~seed:5 in
  let a = go () and b = go () in
  Alcotest.(check int) "same corpus size" (List.length a.Fuzzer.corpus)
    (List.length b.Fuzzer.corpus);
  Alcotest.(check int) "same edges" a.Fuzzer.edges_found b.Fuzzer.edges_found

let test_fuzzer_finds_branches () =
  let prog = Lazy.force branchy in
  let r = Fuzzer.fuzz prog ~entry:"main" ~seeds:[ [ 1 ] ] ~budget:400 ~seed:7 in
  Alcotest.(check bool) "budget respected" true (r.Fuzzer.total_execs <= 401);
  (* The corpus should grow beyond the seed: several classify branches
     are reachable with cheap mutations. *)
  Alcotest.(check bool) "corpus grew" true (List.length r.Fuzzer.corpus >= 3)

let test_fuzzer_mutation_shapes () =
  let rng = Util.Rng.create 11 in
  for _ = 1 to 200 do
    let m = Fuzzer.mutate rng [ 1; 2; 3 ] in
    Alcotest.(check bool) "mutant bounded" true (List.length m <= 10)
  done

let test_cmin_preserves_edges () =
  let prog = Lazy.force branchy in
  let fz = Fuzzer.fuzz prog ~entry:"main" ~seeds:[ [ 1 ] ] ~budget:300 ~seed:3 in
  let corpus = List.map (fun (c : Fuzzer.corpus_entry) -> c.Fuzzer.data) fz.Fuzzer.corpus in
  let st = Cmin.minimize prog ~entry:"main" corpus in
  Alcotest.(check bool) "kept <= original" true
    (List.length st.Cmin.kept <= st.Cmin.original);
  (* Edge coverage of kept equals edge coverage of the full corpus. *)
  let edges inputs =
    let tbl = Hashtbl.create 64 in
    List.iter
      (fun input ->
        let r = Fuzzer.run_input prog ~entry:"main" input in
        List.iter (fun e -> Hashtbl.replace tbl e ()) (Fuzzer.edges_of r))
      inputs;
    Hashtbl.length tbl
  in
  Alcotest.(check int) "coverage preserved" (edges corpus) (edges st.Cmin.kept)

let test_trace_prune_preserves_lines () =
  let prog = Lazy.force branchy in
  let corpus = [ [ 1 ]; [ 2 ]; [ 42 ]; [ -5 ]; [ 2000 ]; [ 1; 2; 42 ] ] in
  let pruned = Trace_prune.prune prog ~entry:"main" corpus in
  let lines inputs =
    let t = Debugger.trace prog ~entry:"main" ~inputs in
    Debugger.stepped_lines t
  in
  Alcotest.(check (list int)) "stepped lines preserved" (lines corpus)
    (lines pruned);
  Alcotest.(check bool) "pruned something" true
    (List.length pruned < List.length corpus)

let test_edges_sorted () =
  (* Regression: edges_of folded a Hashtbl directly, so the edge list —
     and everything keyed off it — depended on the table's layout.
     It must come back sorted, and byte-identically across runs. *)
  let prog = Lazy.force branchy in
  let r = Fuzzer.run_input prog ~entry:"main" [ 1; 2; 42; 2000; -5 ] in
  let e = Fuzzer.edges_of r in
  Alcotest.(check bool) "non-empty" true (e <> []);
  Alcotest.(check bool) "sorted" true (List.sort compare e = e);
  let r2 = Fuzzer.run_input prog ~entry:"main" [ 1; 2; 42; 2000; -5 ] in
  Alcotest.(check bool) "reproducible" true (Fuzzer.edges_of r2 = e)

let test_fuzz_byte_reproducible () =
  (* Stronger than test_fuzzer_deterministic: the corpora must match
     entry for entry, not just in size. *)
  let prog = Lazy.force branchy in
  let go () =
    Fuzzer.fuzz prog ~entry:"main" ~seeds:[ [ 1 ] ] ~budget:200 ~seed:9
  in
  let data r =
    List.map (fun (c : Fuzzer.corpus_entry) -> c.Fuzzer.data) r.Fuzzer.corpus
  in
  Alcotest.(check (list (list int))) "identical corpora" (data (go ()))
    (data (go ()))

let test_shrink_list () =
  (* ddmin over a list: keep only what the predicate needs. *)
  let calls = ref 0 in
  let needs l = incr calls; List.mem 7 l && List.mem 13 l in
  let items = List.init 30 (fun i -> i) in
  let out = Cmin.shrink_list ~still_interesting:needs items in
  Alcotest.(check (list int)) "1-minimal" [ 7; 13 ] out;
  let c1 = !calls in
  calls := 0;
  let out2 = Cmin.shrink_list ~still_interesting:needs items in
  Alcotest.(check (list int)) "deterministic" out out2;
  Alcotest.(check int) "same call count" c1 !calls;
  Alcotest.(check (list int)) "empty ok" []
    (Cmin.shrink_list ~still_interesting:(fun _ -> true) [])

(* The id-indexed fuzz loop and cmin against the hash-keyed copies in
   [Reference_fuzz], on what [Evaluation.prepare] fuzzes: each harness
   of [program] on its gcc-O0 binary at [budget], harness [i] at seed
   42 + 1000 i, and cmin over the harness seeds plus the fuzzed corpus.
   Every raw input's edge profile must also match the reference core's. *)
let check_against_reference ~budget (program : Suite_types.sprogram) =
  let bin =
    T.compile (Suite_types.ast program) ~config:(C.make C.Gcc C.O0)
      ~roots:(Suite_types.roots program)
  in
  let prog = Vm.load bin in
  List.iteri
    (fun i (h : Suite_types.harness) ->
      let what =
        Printf.sprintf "%s/%s" program.Suite_types.p_name h.Suite_types.h_name
      in
      let entry = h.Suite_types.h_entry and seeds = h.Suite_types.h_seeds in
      let seed = 42 + (i * 1000) in
      let lib = Fuzzer.fuzz prog ~entry ~seeds ~budget ~seed in
      let old = Reference_fuzz.fuzz prog ~entry ~seeds ~budget ~seed in
      let entries (r : Fuzzer.result) =
        List.map
          (fun (c : Fuzzer.corpus_entry) -> (c.Fuzzer.data, c.Fuzzer.edge_count))
          r.Fuzzer.corpus
      in
      Alcotest.(check (list (pair (list int) int)))
        (what ^ " corpus") (entries old) (entries lib);
      Alcotest.(check int) (what ^ " edges_found") old.Fuzzer.edges_found
        lib.Fuzzer.edges_found;
      Alcotest.(check int) (what ^ " execs") old.Fuzzer.total_execs
        lib.Fuzzer.total_execs;
      let raw = seeds @ List.map fst (entries lib) in
      Alcotest.(check (list (list int)))
        (what ^ " cmin kept")
        (Reference_fuzz.minimize prog ~entry raw).Cmin.kept
        (Cmin.minimize prog ~entry raw).Cmin.kept;
      List.iter
        (fun input ->
          let opts = { Vm.default_opts with coverage = true; max_instrs = 300_000 } in
          Alcotest.(check (array int))
            (what ^ " edge profile")
            (Vm.Reference.run bin ~entry ~input opts).Vm.edges
            (Fuzzer.run_input prog ~entry input).Vm.edges)
        raw)
    program.Suite_types.p_harnesses

let test_suite_matches_reference () =
  List.iter (check_against_reference ~budget:700) Programs.all

let test_corpus_matches_reference () =
  List.iter
    (fun (e : Corpus.entry) ->
      check_against_reference ~budget:e.Corpus.e_fuzz_budget e.Corpus.e_program)
    (Corpus.generate ~seed:1 ~n:24)

(* A campaign runs each distinct input once. Over the 17 campaigns
   [Evaluation.prepare] makes (budget 700, harness [i] at seed
   42 + 1000 i, on the gcc-O0 binary), the 11,900 candidates hold
   10,274 distinct inputs, and the VM runs exactly those. *)
let test_suite_runs_each_input_once () =
  let loaded =
    List.map
      (fun (p : Suite_types.sprogram) ->
        ( p,
          Vm.load
            (T.compile (Suite_types.ast p) ~config:(C.make C.Gcc C.O0)
               ~roots:(Suite_types.roots p)) ))
      Programs.all
  in
  ignore (Obs.stop ());
  Obs.start ();
  let candidates =
    Fun.protect
      ~finally:(fun () -> ignore (Obs.stop ()))
      (fun () ->
        let n = ref 0 in
        List.iter
          (fun ((p : Suite_types.sprogram), prog) ->
            List.iteri
              (fun i (h : Suite_types.harness) ->
                let r =
                  Fuzzer.fuzz prog ~entry:h.Suite_types.h_entry
                    ~seeds:h.Suite_types.h_seeds ~budget:700
                    ~seed:(42 + (i * 1000))
                in
                n := !n + r.Fuzzer.total_execs)
              p.Suite_types.p_harnesses)
          loaded;
        let runs = List.assoc_opt "vm/runs" (Obs.current_counters ()) in
        (!n, runs))
  in
  Alcotest.(check (pair int (option int)))
    "candidates, vm/runs" (11_900, Some 10_274) candidates

let tests =
  [
    Alcotest.test_case "fuzzer deterministic" `Quick test_fuzzer_deterministic;
    Alcotest.test_case "edges_of sorted + reproducible" `Quick test_edges_sorted;
    Alcotest.test_case "fuzz corpus byte-reproducible" `Quick
      test_fuzz_byte_reproducible;
    Alcotest.test_case "shrink_list ddmin" `Quick test_shrink_list;
    Alcotest.test_case "fuzzer finds branches" `Quick test_fuzzer_finds_branches;
    Alcotest.test_case "mutation shapes" `Quick test_fuzzer_mutation_shapes;
    Alcotest.test_case "cmin preserves edges" `Quick test_cmin_preserves_edges;
    Alcotest.test_case "trace prune preserves lines" `Quick
      test_trace_prune_preserves_lines;
    Alcotest.test_case "suite fuzzing matches the hash-keyed loop" `Quick
      test_suite_matches_reference;
    Alcotest.test_case "corpus fuzzing matches the hash-keyed loop" `Quick
      test_corpus_matches_reference;
    Alcotest.test_case "suite campaigns run each input once" `Quick
      test_suite_runs_each_input_once;
  ]
