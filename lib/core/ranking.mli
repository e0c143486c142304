(** Pass-impact ranking (Section III-B): for each pass of a level,
    measure the product metric with the pass disabled on every program,
    rank passes per program by relative increment, and aggregate by
    average rank position. All measurement runs on the measurement
    engine ({!Measure_engine}), so the per-pass sweep is cached and
    deduplicated across rankings, tunings and tables. *)

type pass_effect = {
  pe_pass : string;
  pe_avg_rank : float;
  pe_geo_increment_pct : float;
      (** geometric mean across programs of the relative increment *)
  pe_programs_improved : int;
  pe_programs_neutral : int;
  pe_programs_regressed : int;
}

type level_ranking = {
  lr_config : Config.t;  (** the reference level *)
  lr_effects : pass_effect list;  (** best pass first *)
  lr_baseline_avg : float;
}

val dynamic_product : Metrics.all_methods -> float
(** Alternative metric for the ranking-metric ablation (the default is
    the hybrid product, Section III-D). *)

val rank :
  engine:Measure_engine.t ->
  ?metric:(Metrics.all_methods -> float) ->
  Evaluation.prepared list ->
  Config.t ->
  level_ranking
(** The full cross-program ranking for one level. Programs are measured
    on the engine's worker pool and reduced in suite order — identical
    output for any worker count. *)

val top_passes : ?k:int -> level_ranking -> pass_effect list
(** Top-[k] entries of a ranking (Tables V and VI rows). *)

val stability :
  engine:Measure_engine.t ->
  ?metric:(Metrics.all_methods -> float) ->
  ?k:int ->
  Evaluation.prepared list ->
  level_ranking ->
  float * float
(** Section V-A: average number of the cross-program top-[k] passes
    found in each program's own top-[k] and top-[2k]. *)

val impact_counts : level_ranking -> int * int * int * int
(** (total, positive, neutral, negative) pass counts (Table VII). *)
