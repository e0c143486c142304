(** Ablation studies for the design choices DESIGN.md calls out — each
    isolates one modeling decision and measures how much the headline
    numbers depend on it.

    1. {b Breakpoint policy}: gdb-style all-locations breakpoints vs the
       naive lowest-address-only policy. The single-location policy
       overstates the inliner's line-coverage cost because a duplicated
       line is missed whenever its armed copy sits on a cold path.
    2. {b Entry-value emission}: gcc's unusable (entry-value-style)
       location entries on vs off. This is the channel that makes the
       static method overestimate availability (Table I); removing it
       collapses the static-vs-hybrid gap.
    3. {b Ranking metric}: ranking passes by the hybrid product vs the
       raw dynamic product. The paper argues the hybrid correction makes
       measurement sounder; this quantifies how much the resulting
       top-10 actually changes.
    4. {b Scheduler line retention}: gcc's post-RA scheduler strips
       displaced instructions' lines while clang's keeps them — the
       modeling choice behind schedule-insns2's #2 gcc ranking. Forcing
       clang-style retention on gcc shows how much coverage that one
       behaviour costs. *)

module T = Util.Tablefmt

(* ------------------------------------------------------------------ *)
(* 1. Breakpoint policy                                                *)

let breakpoint_policy ~engine (prepared : Evaluation.prepared list)
    (config : Config.t) =
  let rows =
    List.map
      (fun (p : Evaluation.prepared) ->
        let bin = Measure_engine.compile engine p.Evaluation.program config in
        let lc all_locations =
          let traces =
            List.map
              (fun (hc : Evaluation.harness_corpus) ->
                Debugger.trace ~all_locations bin
                  ~entry:hc.Evaluation.hc_harness.Suite_types.h_entry
                  ~inputs:hc.Evaluation.hc_inputs)
              p.Evaluation.corpora
          in
          let merged = Evaluation.merge_traces traces in
          let base = Debugger.stepped_lines p.Evaluation.o0_trace in
          if base = [] then 1.0
          else
            float_of_int
              (List.length
                 (List.filter (fun l -> Hashtbl.mem merged.Debugger.stepped l) base))
            /. float_of_int (List.length base)
        in
        let all = lc true and lowest = lc false in
        [
          p.Evaluation.program.Suite_types.p_name;
          T.f4 all;
          T.f4 lowest;
          T.pct (Util.Stats.pct_delta all lowest);
        ])
      prepared
  in
  T.make
    ~title:
      (Printf.sprintf
         "Ablation 1: line coverage at %s under gdb-style vs lowest-address \
          breakpoints"
         (Config.name config))
    ~header:[ "program"; "all locations"; "lowest only"; "delta" ]
    rows

(* ------------------------------------------------------------------ *)
(* 2. Entry-value emission                                             *)

let entry_values (prepared : Evaluation.prepared list) (config : Config.t) =
  let rows =
    List.map
      (fun (p : Evaluation.prepared) ->
        let measure entry_values =
          let bin =
            Toolchain.compile
              ~options:(Toolchain.Options.make ~entry_values ())
              p.Evaluation.ast ~config ~roots:p.Evaluation.roots
          in
          let opt_trace = Evaluation.trace_config_bin p bin in
          Metrics.static_dbg
            {
              Metrics.defranges = p.Evaluation.defranges;
              unopt_trace = p.Evaluation.o0_trace;
              opt_trace;
              unopt_bin = p.Evaluation.o0_bin;
              opt_bin = bin;
            }
        in
        let with_ev = (measure true).Metrics.availability in
        let without = (measure false).Metrics.availability in
        [
          p.Evaluation.program.Suite_types.p_name;
          T.f4 with_ev;
          T.f4 without;
          T.pct (Util.Stats.pct_delta without with_ev);
        ])
      prepared
  in
  T.make
    ~title:
      (Printf.sprintf
         "Ablation 2: static-dbg availability at %s with and without \
          entry-value entries (the static-overestimation channel)"
         (Config.name config))
    ~header:[ "program"; "with entry-values"; "without"; "overestimation" ]
    rows

(* ------------------------------------------------------------------ *)
(* 3. Ranking metric                                                   *)

let ranking_metric ~engine (prepared : Evaluation.prepared list)
    (config : Config.t) =
  let hybrid = Ranking.rank ~engine prepared config in
  let dynamic =
    Ranking.rank ~engine ~metric:Ranking.dynamic_product prepared config
  in
  let top lr =
    List.map
      (fun (e : Ranking.pass_effect) -> e.Ranking.pe_pass)
      (Ranking.top_passes ~k:10 lr)
  in
  let th = top hybrid and td = top dynamic in
  let overlap = List.length (List.filter (fun p -> List.mem p td) th) in
  let rows =
    List.mapi
      (fun i h ->
        [
          string_of_int (i + 1);
          h;
          (match List.nth_opt td i with Some d -> d | None -> "-");
        ])
      th
  in
  T.make
    ~title:
      (Printf.sprintf
         "Ablation 3: top-10 at %s ranked by hybrid vs dynamic product \
          (overlap %d/10)"
         (Config.name config) overlap)
    ~header:[ "#"; "hybrid metric"; "dynamic metric" ]
    rows

(* ------------------------------------------------------------------ *)
(* 4. Scheduler line retention                                         *)

(** The design choice behind the two pipelines' scheduler gap: gcc's
    post-RA scheduler strips the line of every displaced instruction
    while clang's keeps lines attached (which is why schedule-insns2
    ranks #2 for gcc but the Machine Scheduler barely registers for
    clang). This ablation recompiles the gcc configuration with the
    clang-style retention forced on and measures the recovered line
    coverage. *)
let scheduler_lines (prepared : Evaluation.prepared list) (config : Config.t) =
  let rows =
    List.map
      (fun (p : Evaluation.prepared) ->
        let coverage keep =
          let bin =
            Toolchain.compile
              ~options:(Toolchain.Options.make ~sched_keep_lines:keep ())
              p.Evaluation.ast ~config ~roots:p.Evaluation.roots
          in
          let opt_trace = Evaluation.trace_config_bin p bin in
          Metrics.line_coverage_of_traces p.Evaluation.o0_trace opt_trace
        in
        let strip = coverage false and keep = coverage true in
        [
          p.Evaluation.program.Suite_types.p_name;
          T.f4 strip;
          T.f4 keep;
          T.pct (Util.Stats.pct_delta strip keep);
        ])
      prepared
  in
  T.make
    ~title:
      (Printf.sprintf
         "Ablation 4: line coverage at %s with gcc-style (strip) vs \
          clang-style (keep) scheduler line retention"
         (Config.name config))
    ~header:[ "program"; "strip lines"; "keep lines"; "recovered" ]
    rows
