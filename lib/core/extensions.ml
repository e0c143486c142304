(** Extensions beyond the paper's core evaluation, implementing the
    directions its Sections V-B and VI sketch:

    - {!clang_og}: the paper's "takeaway for developers" — a prototype
      [-Og] for clang built from O1 by disabling the recurring lossy
      passes (SimplifyCFG, the machine passes, InstCombine, EarlyCSE, as
      with O1-d5);
    - {!pairwise}: a bounded exploration of pass {e interactions}
      (Section VI notes DebugTuner is blind to inter-dependencies; this
      measures the top-k passes pairwise and reports super- and
      sub-additive pairs);
    - {!iterative_autofdo}: multi-round AutoFDO (Section V-C describes
      production profiling on already-AutoFDO-optimized binaries). *)

(* ------------------------------------------------------------------ *)
(* A prototype clang -Og                                               *)

(** The paper's concrete recommendation (end of Section V-B): derive a
    clang Og from O1 by disabling SimplifyCFG, the machine-level
    reorderers and the two scalar cleanups — our pipeline's closest
    equivalents of the named five. *)
let clang_og : Config.t =
  Config.make
    ~disabled:
      [
        "SimplifyCFG";
        "Machine Scheduler";
        "Branch Prob BB Placement";
        "InstCombine";
        "EarlyCSE";
      ]
    Config.Clang Config.O1

(* ------------------------------------------------------------------ *)
(* Pairwise pass interactions                                          *)

type interaction = {
  in_pass_a : string;
  in_pass_b : string;
  in_solo_a : float;  (** relative increment of disabling a alone *)
  in_solo_b : float;
  in_pair : float;  (** relative increment of disabling both *)
  in_synergy : float;  (** pair - (a + b): positive = super-additive *)
}

(** [pairwise prepared config ~passes] measures every unordered pair of
    [passes] (intended: a ranking's top handful — the quadratic cost is
    why the paper leaves the full space to future work). *)
let pairwise ~engine (prepared : Evaluation.prepared list) (config : Config.t)
    ~(passes : string list) : interaction list =
  let product cfg =
    Util.Stats.mean
      (List.map (fun p -> Measure_engine.product engine p cfg) prepared)
  in
  let base = product config in
  let inc disabled =
    if base <= 0.0 then 0.0
    else (product { config with Config.disabled } -. base) /. base
  in
  let solo = List.map (fun p -> (p, inc [ p ])) passes in
  let rec pairs = function
    | [] -> []
    | a :: rest -> List.map (fun b -> (a, b)) rest @ pairs rest
  in
  List.map
    (fun (a, b) ->
      let sa = List.assoc a solo and sb = List.assoc b solo in
      let pair = inc [ a; b ] in
      {
        in_pass_a = a;
        in_pass_b = b;
        in_solo_a = sa;
        in_solo_b = sb;
        in_pair = pair;
        in_synergy = pair -. (sa +. sb);
      })
    (pairs passes)

(* ------------------------------------------------------------------ *)
(* Iterative (multi-round) AutoFDO                                     *)

type round = {
  rd_index : int;
  rd_cost : int;  (** final-binary cost after this round *)
  rd_lost_fraction : float;  (** samples unattributable in this round *)
}

(** [iterative_autofdo src ~roots ~entry ~workloads ~config ~rounds] runs
    AutoFDO repeatedly, each round profiling the previous round's
    optimized binary (the paper's production setup). Returns per-round
    results; convergence typically within 2-3 rounds. *)
let iterative_autofdo (src : Minic.Ast.program) ~roots ~entry ~workloads
    ~(config : Config.t) ~rounds ?(period = 211) ?(seed = 7) () : round list =
  let rec go i profile acc =
    if i > rounds then List.rev acc
    else begin
      let bin =
        match profile with
        | None -> Toolchain.compile src ~config ~roots
        | Some p ->
            Toolchain.compile
              ~options:(Toolchain.Options.make ~profile:p ())
              src ~config ~roots
      in
      let coll =
        Autofdo.collect (Vm.load bin) ~entry ~workloads ~period ~seed:(seed + i)
      in
      let optimized =
        Toolchain.compile
          ~options:(Toolchain.Options.make ~profile:coll.Autofdo.profile ())
          src ~config ~roots
      in
      let cost = Autofdo.workload_cost (Vm.load optimized) ~entry workloads in
      let lost =
        if coll.Autofdo.samples_taken = 0 then 0.0
        else
          float_of_int coll.Autofdo.samples_lost
          /. float_of_int coll.Autofdo.samples_taken
      in
      go (i + 1)
        (Some coll.Autofdo.profile)
        ({ rd_index = i; rd_cost = cost; rd_lost_fraction = lost } :: acc)
    end
  in
  go 1 None []

(* ------------------------------------------------------------------ *)
(* Per-program tuned configurations                                    *)

type per_program_row = {
  pp_program : string;
  pp_global : float;  (** debug product under the suite-wide Ox-dy *)
  pp_local : float;  (** product under this program's own Ox-dy *)
  pp_gain_pct : float;  (** local over global, in percent *)
  pp_disabled : string list;  (** the program-specific disable set *)
}

(** [per_program prepared config ~y] builds, for every program, an
    [Ox-dy] from a ranking computed on that program alone, and compares
    it against the suite-wide [Ox-dy] (the paper's setup). Section VI
    lists per-program configurations as future work: the cross-program
    ranking trades per-program optimality for one reusable
    configuration; this measures what the trade costs. *)
let per_program ~engine (prepared : Evaluation.prepared list)
    (config : Config.t) ~y : per_program_row list =
  let global_dy = Tuning.dy_config (Ranking.rank ~engine prepared config) ~y in
  List.map
    (fun p ->
      let local_dy = Tuning.dy_config (Ranking.rank ~engine [ p ] config) ~y in
      let g = Measure_engine.product engine p global_dy in
      let l = Measure_engine.product engine p local_dy in
      {
        pp_program = p.Evaluation.program.Suite_types.p_name;
        pp_global = g;
        pp_local = l;
        pp_gain_pct = Util.Stats.pct_delta g l;
        pp_disabled = local_dy.Config.disabled;
      })
    prepared

(** Mean local-over-global gain of a {!per_program} result. *)
let per_program_mean_gain rows =
  Util.Stats.mean (List.map (fun r -> r.pp_gain_pct) rows)
