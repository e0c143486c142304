(** Per-program debug-information evaluation (the left half of Figure 1):
    corpus construction, trace extraction for the O0 baseline and for any
    configuration, and metric computation.

    Each suite program is "prepared" once — fuzzing-derived corpus,
    minimization, trace pruning, O0 baseline trace — and then arbitrary
    configurations are measured against that baseline. Binaries whose
    .text is identical to the reference level's are not re-traced
    (Section III-A's discard optimization). *)

type harness_corpus = {
  hc_harness : Suite_types.harness;
  hc_inputs : int list list;  (** post-minimization, post-pruning *)
  hc_raw_count : int;  (** corpus size before minimization *)
  hc_edges : int;
}

type prepared = {
  program : Suite_types.sprogram;
  ast : Minic.Ast.program;
  roots : string list;
  defranges : Minic.Defranges.t;
  corpora : harness_corpus list;
  o0_bin : Emit.binary;
  o0_trace : Debugger.trace;
  ast_digest : string;
      (** content address of the compile inputs (AST + roots); a
          component of [content_digest] *)
  content_digest : string;
      (** content address of everything measurement depends on (AST +
          roots + minimized corpora); tier-2 engine cache key
          component *)
}

(* Merge traces of several harness sessions into one program-level
   trace, as one long session would record it: the first binding of a
   line wins, and lines keep session order, each at its first hit. *)
let merge_traces (traces : Debugger.trace list) : Debugger.trace =
  let stepped = Hashtbl.create 128 in
  let steppable = ref [] in
  let hit_order = ref [] in
  List.iter
    (fun (t : Debugger.trace) ->
      List.iter
        (fun line ->
          if not (Hashtbl.mem stepped line) then begin
            Hashtbl.replace stepped line (Debugger.vars_at t line);
            hit_order := line :: !hit_order
          end)
        t.Debugger.hit_order;
      steppable := t.Debugger.steppable @ !steppable)
    traces;
  {
    Debugger.stepped;
    steppable = List.sort_uniq compare !steppable;
    hit_order = List.rev !hit_order;
    per_input_lines = [||];
  }

(* One session per harness, every one on the same load. *)
let trace_with_corpora (corpora : harness_corpus list) (prog : Vm.loaded) =
  merge_traces
    (List.map
       (fun hc ->
         Debugger.trace prog ~entry:hc.hc_harness.Suite_types.h_entry
           ~inputs:hc.hc_inputs)
       corpora)

let trace_config_bin (prepared : prepared) (bin : Emit.binary) =
  trace_with_corpora prepared.corpora (Vm.load bin)

(** [prepare_key program] — content address of what {!prepare} would
    build: the compile inputs plus every parameter the corpus depends
    on. Equal keys imply interchangeable prepared subjects, so the
    expensive preparation can be served from a persistent store. *)
let prepare_key ?(fuzz_budget = 700) ?(seed = 42)
    (program : Suite_types.sprogram) =
  Digest.to_hex
    (Digest.string
       (Marshal.to_string
          ( program.Suite_types.p_source,
            program.Suite_types.p_harnesses,
            fuzz_budget,
            seed )
          []))

(** [prepare ?fuzz_budget program] builds the corpus (fuzz + afl-cmin
    analog + debug-trace pruning) and the O0 baseline, every step on
    one load of the O0 binary. *)
let prepare ?(fuzz_budget = 700) ?(seed = 42) (program : Suite_types.sprogram) :
    prepared =
  let ast = Suite_types.ast program in
  let roots = Suite_types.roots program in
  let defranges = Minic.Defranges.analyze ast in
  let o0_config = Config.make Config.Gcc Config.O0 in
  let o0_bin = Toolchain.compile ast ~config:o0_config ~roots in
  let o0 = Vm.load o0_bin in
  let corpora =
    List.mapi
      (fun i (h : Suite_types.harness) ->
        let entry = h.Suite_types.h_entry in
        let fuzzed =
          Fuzzer.fuzz o0 ~entry ~seeds:h.Suite_types.h_seeds
            ~budget:fuzz_budget ~seed:(seed + (i * 1000))
        in
        let raw =
          h.Suite_types.h_seeds
          @ List.map (fun (c : Fuzzer.corpus_entry) -> c.Fuzzer.data) fuzzed.Fuzzer.corpus
        in
        let minimized = Cmin.minimize o0 ~entry raw in
        let pruned = Trace_prune.prune o0 ~entry minimized.Cmin.kept in
        {
          hc_harness = h;
          hc_inputs = pruned;
          hc_raw_count = List.length raw;
          hc_edges = fuzzed.Fuzzer.edges_found;
        })
      program.Suite_types.p_harnesses
  in
  let o0_trace = trace_with_corpora corpora o0 in
  let digest_of v = Digest.to_hex (Digest.string (Marshal.to_string v [])) in
  let ast_digest = digest_of (ast, roots) in
  let content_digest =
    digest_of
      ( ast_digest,
        List.map
          (fun hc -> (hc.hc_harness.Suite_types.h_entry, hc.hc_inputs))
          corpora )
  in
  {
    program;
    ast;
    roots;
    defranges;
    corpora;
    o0_bin;
    o0_trace;
    ast_digest;
    content_digest;
  }

(** [compile prepared config] — the program under a configuration. *)
let compile (prepared : prepared) (config : Config.t) =
  Toolchain.compile prepared.ast ~config ~roots:prepared.roots

(** [metrics_of_trace prepared bin opt_trace] — the four metric methods
    given an already-collected trace (the engine's metrics primitive). *)
let metrics_of_trace (prepared : prepared) (bin : Emit.binary)
    (opt_trace : Debugger.trace) : Metrics.all_methods =
  Metrics.all
    {
      Metrics.defranges = prepared.defranges;
      unopt_trace = prepared.o0_trace;
      opt_trace;
      unopt_bin = prepared.o0_bin;
      opt_bin = bin;
    }

(* -------------------------------------------------------------- *)
(* Table III statistics                                            *)

type suite_stats = {
  ss_program : string;
  ss_inputs : int;  (** average per harness, post-minimization *)
  ss_reduction_pct : float;
  ss_steppable : int;
  ss_stepped : int;
  ss_debug_coverage_pct : float;
}

let stats (prepared : prepared) : suite_stats =
  let n_harnesses = max 1 (List.length prepared.corpora) in
  let kept =
    List.fold_left (fun a hc -> a + List.length hc.hc_inputs) 0 prepared.corpora
  in
  let raw =
    List.fold_left (fun a hc -> a + hc.hc_raw_count) 0 prepared.corpora
  in
  let steppable = List.length prepared.o0_trace.Debugger.steppable in
  let stepped = List.length (Debugger.stepped_lines prepared.o0_trace) in
  {
    ss_program = prepared.program.Suite_types.p_name;
    ss_inputs = kept / n_harnesses;
    ss_reduction_pct =
      (if raw = 0 then 0.0
       else float_of_int (raw - kept) /. float_of_int raw *. 100.0);
    ss_steppable = steppable;
    ss_stepped = stepped;
    ss_debug_coverage_pct =
      (if steppable = 0 then 0.0
       else float_of_int stepped /. float_of_int steppable *. 100.0);
  }
