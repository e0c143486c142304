(** The paper's evaluation, one constructor per table/figure. Each
    function renders a {!Util.Tablefmt.t} (printed by [bench/main.exe])
    from shared measurement state. All randomness is seeded and all
    reductions are ordered, so every run prints identical tables — for
    any engine worker count.

    The context owns a private measurement engine: every prepared
    subject (the suite and Table I's synthetic set) and every compile,
    measure and benchmark job of every table — the ablations and
    extensions included — goes through its content-addressed cache, and
    derived results (rankings, trade-off points, speedup rows) are
    memoized on {!Config.fingerprint} keys. The cache state is hidden
    behind this interface; inspect it with
    [Measure_engine.stats_table (engine ctx)]. *)

type ctx

val create :
  ?synth_count:int -> ?workers:int -> ?store:Engine.Disk_store.t -> unit -> ctx
(** Prepare the 13-program suite and the SPEC-analog baselines.
    [synth_count] sizes Table I's synthetic-program set (default 40);
    [workers] sizes the engine's worker pool (default 1 = sequential).
    [store] backs the context's engine — the expensive subject
    preparation included ({!Measure_engine.prepare}) — with a
    persistent on-disk cache, making interrupted runs resumable and
    warm re-runs near-instant while staying byte-identical. *)

val suite : ctx -> Evaluation.prepared list
val engine : ctx -> Measure_engine.t

val ranking : ctx -> Config.t -> Ranking.level_ranking
(** Fingerprint-memoized {!Ranking.rank} over the suite. *)

val point : ctx -> Config.t -> Tuning.config_point
(** Fingerprint-memoized {!Tuning.measure_point}. *)

val all_standard_configs : Config.t list
val dy_values : int list

(** {1 Tables and figures} *)

val table1 : ctx -> Util.Tablefmt.t
val table2 : ctx -> Util.Tablefmt.t
val table3 : ctx -> Util.Tablefmt.t
val table4 : ctx -> Util.Tablefmt.t
val table5 : ctx -> Util.Tablefmt.t
val table6 : ctx -> Util.Tablefmt.t
val table7 : ctx -> Util.Tablefmt.t
val fig2_scatter : ctx -> string
val fig2 : ctx -> Util.Tablefmt.t
val table8 : ctx -> Util.Tablefmt.t * Util.Tablefmt.t
val table9 : ctx -> Util.Tablefmt.t
val table10 : ctx -> Util.Tablefmt.t
val table11 : ctx -> Util.Tablefmt.t
val table12 : ctx -> Util.Tablefmt.t
val table13_14 : ctx -> Util.Tablefmt.t * Util.Tablefmt.t
val fig3_table15 : ctx -> Util.Tablefmt.t * Util.Tablefmt.t
val fig4 : ctx -> Util.Tablefmt.t

(** {1 Extensions beyond the paper} *)

val clang_og_table : ctx -> Util.Tablefmt.t
val per_program_table : ctx -> Util.Tablefmt.t
val dwarf_sizes_table : ctx -> Util.Tablefmt.t
val autofdo_rounds_table : ctx -> Util.Tablefmt.t

(** {1 Sharded corpus experiments (ROADMAP item 5)}

    The enlarged corpus ({!Corpus}) measured at a configuration set.
    Deliberately independent of {!ctx} — a shard worker must not pay
    the 13-app suite preparation — and engineered for byte-identical
    merges: {!corpus_rows} computes a flat row list (shard-sliceable,
    deterministic per row), {!corpus_tables} renders tables from the
    row *set* (rows are re-sorted before any reduction), so folding
    per-shard partials together reproduces the single-process output
    exactly. *)

type corpus_spec = { cs_seed : int; cs_n : int }

type shard_spec = { sh_index : int; sh_count : int }
(** 1-based: shard [sh_index] of [sh_count], [1 <= sh_index <= sh_count]
    (the invariant {!Util.Cliopts.parse_shard} enforces). *)

type corpus_row = {
  cr_index : int;  (** position in the corpus — the merge sort key *)
  cr_program : string;
  cr_family : string;
  cr_config : string;  (** {!Config.name} of the measured config *)
  cr_avail : float;
  cr_cov : float;
  cr_product : float;  (** hybrid-method metrics *)
}

val corpus_digest : corpus_spec -> string
(** Content digest of the generated corpus; every shard and the merge
    step cross-check it, independent of shard count. *)

val shard_slice : shard_spec -> Corpus.entry list -> Corpus.entry list
(** Round-robin slice: shard [i] of [n] owns indices [i-1 mod n]. *)

val corpus_rows :
  engine:Measure_engine.t ->
  ?shard:shard_spec ->
  corpus_spec ->
  Config.t list ->
  corpus_row list
(** Prepare and measure (this shard's slice of) the corpus at every
    configuration, through the engine's caches — with a persistent
    store, shards coordinate by content address and interrupted runs
    resume warm. Bumps the [shard/*] progress counters ([programs],
    [rows], and [resumed_programs]: programs the engine already held
    prepared, in memory or in its store). *)

val corpus_tables :
  corpus_spec -> configs:string list -> corpus_row list -> Util.Tablefmt.t list
(** Final tables from a complete row set ([configs] in presentation
    order, as {!Config.name}s). Pure in the row set: any row order
    yields byte-identical output. *)

val render_corpus_tables :
  corpus_spec -> configs:string list -> corpus_row list -> string

(** {1 Search-based tuning (ROADMAP item 2)} *)

val search_base : Config.t
(** The searched base level (gcc -O2). *)

val search_budget : int
(** The pinned budget the bench scenario and CI gate use. *)

val search_seed : int

val search_dy_seeds : ctx -> Config.t list
(** The greedy dy configurations of {!search_base}, used to seed the
    search (and as the dominance targets). *)

val run_search :
  ?strategy:Tuning.strategy ->
  ?budget:int ->
  ?seed:int ->
  ctx ->
  Tuning.search_result
(** One search over the default suite at {!search_base}, seeded with
    {!search_dy_seeds}. *)

type dominance = {
  dom_greedy : (int * Tuning.config_point) list;  (** y, measured point *)
  dom_covered : int;  (** greedy points weakly dominated by the front *)
  dom_margin : float;  (** {!Tuning.weak_dominance_margin} over all *)
}

val search_dominance : ctx -> Tuning.search_result -> dominance

val search_front_table : ctx -> Util.Tablefmt.t
(** The searched front vs the greedy dy points, as an experiment table;
    bumps [search/greedy_total], [search/greedy_dominated] and
    [search/margin_ppm] for the bench dominance gate. *)
