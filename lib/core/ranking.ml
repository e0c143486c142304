(** Pass-impact ranking (Section III-B): for each pass of a level,
    measure the product metric with the pass disabled on every program,
    rank passes per program by relative increment, and aggregate by
    average rank position. *)

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

(** The score a ranking optimizes; the paper uses the hybrid product
    (Section III-D: "one or more metrics of choice"). *)
let hybrid_product (m : Metrics.all_methods) = m.Metrics.m_hybrid.Metrics.product

let dynamic_product (m : Metrics.all_methods) = m.Metrics.m_dynamic.Metrics.product

(* Relative increments per program for one level. Returns, per program,
   an association pass -> increment, plus the baseline product. All
   measurement goes through the engine. A disabled pass whose binary
   has the same .text as the baseline scores exactly the baseline
   without re-tracing — the paper's Section III-A discard optimization,
   which compares the tier-1 entries' digests and decodes nothing.
   The discard is scoped to the baseline on purpose: it is the paper's
   definition of "the pass did nothing", whereas the engine's own
   tier-2 sharing demands full binary identity (identical .text can
   still carry different debug info). Discards show up in the engine's
   statistics under "rank-discard". *)
let per_program_increments ~engine:eng ?(metric = hybrid_product)
    (prepared : Evaluation.prepared) (config : Config.t) =
  let passes = Toolchain.pass_names config in
  (* The whole sweep — baseline plus one config per disabled pass —
     shares its pipeline prefix up to each divergence: compile it
     incrementally up front, so the per-pass loop below only ever sees
     tier-1 hits. *)
  Measure_engine.compile_sweep eng prepared.Evaluation.program
    (config
    :: List.map (fun pass -> { config with Config.disabled = [ pass ] }) passes);
  let baseline_m, baseline_entry =
    Measure_engine.measure eng prepared config
  in
  let baseline = metric baseline_m in
  let increments =
    List.map
      (fun pass ->
        let cfg = { config with Config.disabled = [ pass ] } in
        let entry =
          Measure_engine.compile_packed eng prepared.Evaluation.program cfg
        in
        let m =
          if
            String.equal entry.Measure_engine.pk_text_digest
              baseline_entry.Measure_engine.pk_text_digest
          then begin
            Util.Counters.bump ~table:(Measure_engine.stats eng)
              "engine/rank-discard/dedups";
            baseline_m
          end
          else fst (Measure_engine.measure eng prepared cfg)
        in
        let v = metric m in
        let inc = if baseline > 0.0 then (v -. baseline) /. baseline else 0.0 in
        (pass, inc))
      passes
  in
  (baseline, increments)

(* Rank positions for one program (Section III-B): positive increments
   take positions 1..k by magnitude; every no-effect pass shares the
   identical low rank k+1; negative passes share k+2, below them. *)
let rank_positions increments =
  let pos, rest = List.partition (fun (_, i) -> i > 1e-9) increments in
  let sorted_pos = List.sort (fun (_, a) (_, b) -> compare b a) pos in
  let k = List.length sorted_pos in
  List.mapi (fun i (pass, _) -> (pass, float_of_int (i + 1))) sorted_pos
  @ List.map
      (fun (pass, i) ->
        (pass, float_of_int (if i < -1e-9 then k + 2 else k + 1)))
      rest

(** [rank prepared_programs config] — the full cross-program ranking for
    one level. Programs are measured on the engine's worker pool (one
    job per program; sequential on a one-worker engine) and reduced in
    suite order, so the ranking is identical for any worker count. *)
let rank ~engine:eng ?metric (prepared_programs : Evaluation.prepared list)
    (config : Config.t) : level_ranking =
  let per_program =
    Measure_engine.map eng
      (fun p -> per_program_increments ~engine:eng ?metric p config)
      prepared_programs
  in
  let positions = List.map (fun (_, incs) -> rank_positions incs) per_program in
  let all_passes = Toolchain.pass_names config in
  let avg_ranks =
    List.map
      (fun pass ->
        let ranks = List.filter_map (List.assoc_opt pass) positions in
        (pass, Util.Stats.mean ranks))
      all_passes
  in
  let effects =
    List.map
      (fun (pass, avg_rank) ->
        let incs =
          List.filter_map
            (fun (_, incs) -> List.assoc_opt pass incs)
            per_program
        in
        let improved = List.length (List.filter (fun i -> i > 1e-9) incs) in
        let neutral =
          List.length (List.filter (fun i -> abs_float i <= 1e-9) incs)
        in
        let regressed = List.length (List.filter (fun i -> i < -1e-9) incs) in
        let geo =
          (Util.Stats.geomean (List.map (fun i -> 1.0 +. i) incs) -. 1.0)
          *. 100.0
        in
        {
          pe_pass = pass;
          pe_avg_rank = avg_rank;
          pe_geo_increment_pct = geo;
          pe_programs_improved = improved;
          pe_programs_neutral = neutral;
          pe_programs_regressed = regressed;
        })
      avg_ranks
  in
  (* Order by average rank; ties (typically all-neutral passes) break
     toward the larger average increment, then pipeline order. *)
  let effects =
    List.stable_sort
      (fun a b ->
        compare
          (a.pe_avg_rank, -.a.pe_geo_increment_pct)
          (b.pe_avg_rank, -.b.pe_geo_increment_pct))
      effects
  in
  {
    lr_config = config;
    lr_effects = effects;
    lr_baseline_avg =
      Util.Stats.mean (List.map (fun (b, _) -> b) per_program);
  }

(** Top-[k] pass names of a ranking (Tables V and VI rows). *)
let top_passes ?(k = 10) (lr : level_ranking) =
  List.filteri (fun i _ -> i < k) lr.lr_effects

(** The paper's stability check (Section V-A): how many of the
    cross-program top-[k] passes also sit in each program's own top-[k]
    (and top-[2k]) ranking. Returns the averages over programs. *)
let stability ~engine ?metric ?(k = 10)
    (prepared_programs : Evaluation.prepared list) (lr : level_ranking) =
  let global_top =
    List.filteri (fun i _ -> i < k) lr.lr_effects
    |> List.map (fun e -> e.pe_pass)
  in
  let per_program_hits =
    List.map
      (fun p ->
        let _, incs = per_program_increments ~engine ?metric p lr.lr_config in
        let ranked =
          rank_positions incs
          |> List.sort (fun (_, a) (_, b) -> compare a b)
          |> List.map fst
        in
        let topk = List.filteri (fun i _ -> i < k) ranked in
        let top2k = List.filteri (fun i _ -> i < 2 * k) ranked in
        ( List.length (List.filter (fun p -> List.mem p topk) global_top),
          List.length (List.filter (fun p -> List.mem p top2k) global_top) ))
      prepared_programs
  in
  let avg f =
    Util.Stats.mean (List.map (fun x -> float_of_int (f x)) per_program_hits)
  in
  (avg fst, avg snd)

(** Counts of positive / neutral / negative passes (Table VII). *)
let impact_counts (lr : level_ranking) =
  let pos =
    List.length (List.filter (fun e -> e.pe_programs_improved > e.pe_programs_regressed && e.pe_geo_increment_pct > 1e-6) lr.lr_effects)
  in
  let neg =
    List.length (List.filter (fun e -> e.pe_geo_increment_pct < -1e-6) lr.lr_effects)
  in
  let total = List.length lr.lr_effects in
  (total, pos, total - pos - neg, neg)
