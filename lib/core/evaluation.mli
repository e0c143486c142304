(** Per-program debug-information evaluation (the left half of Figure 1):
    corpus construction, trace extraction for the O0 baseline and for any
    configuration, and metric computation.

    Each suite program is "prepared" once — fuzzing-derived corpus,
    minimization, trace pruning, O0 baseline trace — and then arbitrary
    configurations are measured against that baseline. The functions
    here are the engine's uncached primitives (prepare, compile, trace,
    metrics); preparing a subject goes through
    {!Measure_engine.prepare} and measuring a configuration through
    {!Measure_engine.measure}, which cache them content-addressed
    ({!prepare_key} and [content_digest] below are their keys; tier 1
    keys on the program's source, not on [ast_digest]). *)

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

val merge_traces : Debugger.trace list -> Debugger.trace
(** Merge traces of several harness sessions into one program-level
    trace, like one long session: the first binding of a line wins, and
    [hit_order] keeps session order with each line at its first hit. *)

val trace_config_bin : prepared -> Emit.binary -> Debugger.trace
(** Trace a configuration's binary over the prepared corpora (the
    engine's trace primitive): one load, one session per harness. *)

val prepare_key :
  ?fuzz_budget:int -> ?seed:int -> Suite_types.sprogram -> string
(** Content address of what {!prepare} would build (source, harnesses
    and every corpus parameter): equal keys imply interchangeable
    prepared subjects, so preparation can be memoized persistently. *)

val prepare : ?fuzz_budget:int -> ?seed:int -> Suite_types.sprogram -> prepared
(** Build the corpus (fuzz + afl-cmin analog + debug-trace pruning) and
    the O0 baseline. *)

val compile : prepared -> Config.t -> Emit.binary
(** The program under a configuration, uncached, from the AST the
    subject carries (what a tier-1 miss of {!Measure_engine.measure}
    runs). *)

val metrics_of_trace :
  prepared -> Emit.binary -> Debugger.trace -> Metrics.all_methods
(** All four metric methods given an already-collected trace (the
    engine's metrics primitive). *)

type suite_stats = {
  ss_program : string;
  ss_inputs : int;  (** average per harness, post-minimization *)
  ss_reduction_pct : float;
  ss_steppable : int;
  ss_stepped : int;
  ss_debug_coverage_pct : float;
}

val stats : prepared -> suite_stats
(** Table III statistics. *)
