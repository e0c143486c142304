(** Configuration tuning (Section III-B, second component): build the
    [Ox-dy] configurations from a ranking and measure both sides of the
    trade — debuggability on the test suite, performance on the SPEC
    analogs. *)

(** [dy_config ranking ~y] disables the top-[y] ranked passes, with the
    paper's inliner exception: the general inliner toggle (gcc [inline],
    clang [Inliner]) is never disabled — only the more specific inlining
    flags participate. *)
let dy_config (lr : Ranking.level_ranking) ~y : Config.t =
  let candidates =
    List.filter
      (fun (e : Ranking.pass_effect) ->
        e.Ranking.pe_pass <> "inline" && e.Ranking.pe_pass <> "Inliner")
      lr.Ranking.lr_effects
  in
  let top = List.filteri (fun i _ -> i < y) candidates in
  {
    lr.Ranking.lr_config with
    Config.disabled = List.map (fun (e : Ranking.pass_effect) -> e.Ranking.pe_pass) top;
  }

(* -------------------------------------------------------------- *)
(* Performance on the SPEC analogs                                 *)

type speedup_row = {
  sp_bench : string;
  sp_speedup : float;  (** over the O0 build of the same benchmark *)
}

(** [speedups_cached ~o0_costs benches config] — per-benchmark speedup
    over the given O0 costs plus the geometric mean. *)
let speedups_cached ~engine ~(o0_costs : (string * int) list)
    (benches : Suite_types.sprogram list) (config : Config.t) =
  let rows =
    List.map
      (fun p ->
        let name = p.Suite_types.p_name in
        let base = List.assoc name o0_costs in
        let c = Measure_engine.bench_cost engine p config in
        {
          sp_bench = name;
          sp_speedup = float_of_int base /. float_of_int (max 1 c);
        })
      benches
  in
  let geo = Util.Stats.geomean (List.map (fun r -> r.sp_speedup) rows) in
  (rows, geo)

let o0_costs ~engine (benches : Suite_types.sprogram list) =
  let o0 = Config.make Config.Gcc Config.O0 in
  List.map
    (fun p -> (p.Suite_types.p_name, Measure_engine.bench_cost engine p o0))
    benches

(* -------------------------------------------------------------- *)
(* Joint debug + performance measurement of a configuration         *)

type config_point = {
  cp_config : Config.t;
  cp_debug : float;  (** average hybrid product over the test suite *)
  cp_speedup : float;  (** geomean speedup over O0 on SPEC *)
  cp_per_program : (string * float) list;
}

let measure_point ~engine:eng (prepared_suite : Evaluation.prepared list)
    ~(o0_costs : (string * int) list) (benches : Suite_types.sprogram list)
    (config : Config.t) : config_point =
  let per_program =
    List.map
      (fun (p : Evaluation.prepared) ->
        ( p.Evaluation.program.Suite_types.p_name,
          Measure_engine.product eng p config ))
      prepared_suite
  in
  let _, geo = speedups_cached ~engine:eng ~o0_costs benches config in
  {
    cp_config = config;
    cp_debug = Util.Stats.mean (List.map snd per_program);
    cp_speedup = geo;
    cp_per_program = per_program;
  }

(* -------------------------------------------------------------- *)
(* Search over the 2^N disable-set space (ROADMAP item 2)           *)

(* The paper's greedy Ox-dy sweep can only disable prefix sets of one
   ranked order; the real debuggability/performance frontier lives in
   arbitrary disable *sets*. The strategies below explore that space,
   spending PR 5's sweep planner so each candidate costs only a
   pipeline suffix. Everything is driven from {!Search_rng} key paths,
   evaluated in deterministic batches on the engine's ordered pool, so
   one (strategy, seed, budget) triple produces byte-identical results
   at any --jobs setting. *)

type strategy = Random_sampling | Hill_climb | Bandit

let strategy_name = function
  | Random_sampling -> "random"
  | Hill_climb -> "hill-climb"
  | Bandit -> "bandit"

let strategy_of_string = function
  | "random" -> Some Random_sampling
  | "hill-climb" | "hillclimb" -> Some Hill_climb
  | "bandit" -> Some Bandit
  | _ -> None

type search_opts = {
  so_strategy : strategy;
  so_budget : int;  (** candidate evaluations, seeds included *)
  so_seed : int;
  so_debug_weight : float;  (** scalarization weight on the debug axis *)
  so_speed_weight : float;  (** ... and on the speedup axis *)
  so_seeds : Config.t list;
      (** evaluated first (within budget): known-good points — e.g. the
          greedy dy configurations — so the front weakly dominates them
          by construction and the search starts from their basins *)
}

let default_search_opts =
  {
    so_strategy = Hill_climb;
    so_budget = 64;
    so_seed = 1;
    so_debug_weight = 1.0;
    so_speed_weight = 1.0;
    so_seeds = [];
  }

type frontier_point = {
  fp_config : Config.t;
  fp_debug : float;
  fp_speedup : float;
}

type search_result = {
  sr_base : Config.t;
  sr_strategy : strategy;
  sr_seed : int;
  sr_budget : int;
  sr_evaluated : int;  (** distinct configurations measured *)
  sr_resumed : int;  (** of those, served from the persistent store *)
  sr_frontier : frontier_point list;
      (** the Pareto front of every evaluated point, sorted by
          increasing debug product (metric-duplicate configs collapse
          to the lexicographically-smallest name) *)
  sr_dominated : int;  (** evaluated points not on the front *)
}

(** The toggleable pass universe for a base level, with the paper's
    inliner exception (see {!dy_config}). *)
let pass_universe (base : Config.t) =
  List.filter
    (fun p -> p <> "inline" && p <> "Inliner")
    (Toolchain.pass_names (Config.make base.Config.compiler base.Config.level))

(* Mutable search state threaded through one {!search} call. The
   archive is keyed by fingerprint; [arch_order] keeps evaluation order
   so everything downstream is list-ordered, never table-ordered. *)
type search_state = {
  st_engine : Measure_engine.t;
  st_suite : Evaluation.prepared list;
  st_benches : Suite_types.sprogram list;
  st_o0 : (string * int) list;
  st_memo : (float * float) Engine.Memo.t;  (** persistent, for resume *)
  st_memo_scope : string;  (** subject-set digest prefixed to memo keys *)
  st_archive : (string, float * float) Hashtbl.t;
  mutable st_order : (Config.t * float * float) list;  (** reversed *)
  mutable st_count : int;
  mutable st_resumed : int;
}

let scalar (opts : search_opts) (debug, speedup) =
  (opts.so_debug_weight *. debug) +. (opts.so_speed_weight *. speedup)

let archived st (c : Config.t) = Hashtbl.find_opt st.st_archive (Config.fingerprint c)

(** Evaluate a batch of candidate configurations: dedup against the
    archive, serve what the persistent store already holds, sweep the
    rest (sharing pipeline suffixes), then measure on the ordered pool.
    The archive update walks the batch in input order — results are
    independent of worker count. *)
let eval_batch st (batch : Config.t list) =
  let seen = Hashtbl.create 16 in
  let fresh =
    List.filter
      (fun c ->
        let fp = Config.fingerprint c in
        if Hashtbl.mem st.st_archive fp || Hashtbl.mem seen fp then false
        else begin
          Hashtbl.replace seen fp ();
          true
        end)
      (List.map Config.canonical batch)
  in
  if fresh <> [] then begin
    let keyed =
      List.map
        (fun c -> (c, st.st_memo_scope ^ "|" ^ Config.fingerprint c))
        fresh
    in
    let resumed, to_compute =
      List.partition_map
        (fun (c, key) ->
          match Engine.Memo.find_opt st.st_memo key with
          | Some pt -> Either.Left (c, pt)
          | None -> Either.Right (c, key))
        keyed
    in
    st.st_resumed <- st.st_resumed + List.length resumed;
    Util.Counters.bump ~n:(List.length resumed) "search/resumed";
    let computed =
      if to_compute = [] then []
      else begin
        let configs = List.map fst to_compute in
        let (), sweep_rows =
          Util.Counters.scoped (fun () ->
              List.iter
                (fun sp -> Measure_engine.compile_sweep st.st_engine sp configs)
                (List.map
                   (fun (p : Evaluation.prepared) -> p.Evaluation.program)
                   st.st_suite
                @ st.st_benches))
        in
        let row n = Option.value ~default:0 (List.assoc_opt n sweep_rows) in
        Util.Counters.bump
          ~n:(row "prefix/hits" + row "prefix/merged")
          "search/suffix_shared";
        let points =
          Measure_engine.map st.st_engine
            (fun c ->
              let pt =
                measure_point ~engine:st.st_engine st.st_suite
                  ~o0_costs:st.st_o0 st.st_benches c
              in
              (pt.cp_debug, pt.cp_speedup))
            configs
        in
        List.map2
          (fun (c, key) pt ->
            Engine.Memo.add st.st_memo key pt;
            (c, pt))
          to_compute points
      end
    in
    (* Archive in batch order: resumed-vs-computed must not reorder. *)
    let by_fp = Hashtbl.create 16 in
    List.iter
      (fun (c, pt) -> Hashtbl.replace by_fp (Config.fingerprint c) pt)
      (resumed @ computed);
    List.iter
      (fun c ->
        let fp = Config.fingerprint c in
        let ((d, s) as pt) = Hashtbl.find by_fp fp in
        Hashtbl.replace st.st_archive fp pt;
        st.st_order <- (c, d, s) :: st.st_order;
        st.st_count <- st.st_count + 1)
      fresh;
    Util.Counters.bump ~n:(List.length fresh) "search/candidates";
    Util.Counters.bump "search/rounds"
  end;
  List.filter_map
    (fun c ->
      match archived st c with
      | Some (d, s) -> Some (Config.canonical c, d, s)
      | None -> None)
    (List.map Config.canonical batch)
  |> fun rows ->
  (* callers see each batch entry once, in input order *)
  let out = Hashtbl.create 16 in
  List.filter
    (fun (c, _, _) ->
      let fp = Config.fingerprint c in
      if Hashtbl.mem out fp then false
      else begin
        Hashtbl.replace out fp ();
        true
      end)
    rows

let remaining st (opts : search_opts) = max 0 (opts.so_budget - st.st_count)

let with_disabled (base : Config.t) disabled =
  Config.canonical { base with Config.disabled }

(** A uniform random disable set: size 0..n, then a seeded shuffle. *)
let random_subset rng (universe : string array) =
  let n = Array.length universe in
  if n = 0 then []
  else begin
    let k = Util.Rng.int rng (n + 1) in
    let copy = Array.copy universe in
    Util.Rng.shuffle rng copy;
    Array.to_list (Array.sub copy 0 k)
  end

(* -- strategy: seeded random sampling -- *)

let run_random st opts ~base ~universe ~key =
  let batch_size = 8 in
  let idx = ref 0 in
  let live = ref true in
  while remaining st opts > 0 && !live do
    let want = min batch_size (remaining st opts) in
    let batch =
      List.init want (fun i ->
          let rng = Search_rng.gen (Search_rng.derive_int key (!idx + i)) in
          with_disabled base (random_subset rng universe))
    in
    idx := !idx + want;
    ignore (eval_batch st batch);
    (* Tiny universes run out of distinct subsets before the budget
       runs out; cap the draws so the loop terminates. *)
    if !idx > (opts.so_budget * 4) + 64 then live := false
  done

(* -- strategy: hill-climb with restarts and annealing -- *)

let flip (current : string list) pass =
  if List.mem pass current then List.filter (fun p -> p <> pass) current
  else pass :: current

let run_hill_climb st opts ~base ~universe ~key =
  let n = Array.length universe in
  let restarts = 3 in
  let neighbors_per_step = min 6 (max 1 n) in
  let k = ref 0 in
  while remaining st opts > 0 && !k < restarts + (opts.so_budget / 4) do
    let rkey = Search_rng.derive_int (Search_rng.derive key "restart") !k in
    let start =
      if !k = 0 then []
      else random_subset (Search_rng.gen (Search_rng.derive rkey "start")) universe
    in
    let current = ref start in
    let current_score =
      match eval_batch st [ with_disabled base start ] with
      | (_, d, s) :: _ -> ref (scalar opts (d, s))
      | [] -> ref neg_infinity
    in
    let step = ref 0 in
    let stalled = ref 0 in
    while remaining st opts > 0 && !stalled < 2 && !step < opts.so_budget do
      let skey = Search_rng.derive_int (Search_rng.derive rkey "step") !step in
      let rng = Search_rng.gen skey in
      let picks = Array.copy universe in
      Util.Rng.shuffle rng picks;
      let want = min neighbors_per_step (remaining st opts) in
      let batch =
        List.init (min want n) (fun i ->
            with_disabled base (flip !current picks.(i)))
      in
      let evaluated = eval_batch st batch in
      (* Annealing: early steps may accept slightly-worse moves, so the
         climb can cross the shallow ridges the greedy sweep sits in;
         the tolerance decays geometrically to strict ascent. *)
      let temp =
        0.02 *. (0.5 ** float_of_int !step)
        *. (abs_float !current_score +. 1e-9)
      in
      (match evaluated with
      | [] -> incr stalled
      | rows ->
          let best =
            List.fold_left
              (fun acc ((_, d, s) as row) ->
                match acc with
                | Some (_, bd, bs)
                  when scalar opts (bd, bs) >= scalar opts (d, s) ->
                    acc
                | _ -> Some row)
              None rows
          in
          (match best with
          | Some (c, d, s) when scalar opts (d, s) >= !current_score -. temp ->
              if scalar opts (d, s) <= !current_score then incr stalled
              else stalled := 0;
              current := c.Config.disabled;
              current_score := scalar opts (d, s)
          | _ -> incr stalled));
      incr step
    done;
    incr k
  done

(* -- strategy: a bandit over per-pass arms (exponential weights) -- *)

let run_bandit st opts ~base ~universe ~key =
  let n = Array.length universe in
  if n = 0 then ignore (eval_batch st [ with_disabled base [] ])
  else begin
    let weights = Array.make n 1.0 in
    let batch_size = 8 in
    let round = ref 0 in
    (* The base point anchors the reward scale. *)
    ignore (eval_batch st [ with_disabled base [] ]);
    while remaining st opts > 0 && !round < opts.so_budget do
      let rkey = Search_rng.derive_int (Search_rng.derive key "round") !round in
      let want = min batch_size (remaining st opts) in
      let batch =
        List.init want (fun i ->
            let rng = Search_rng.gen (Search_rng.derive_int rkey i) in
            let set = ref [] in
            Array.iteri
              (fun j pass ->
                let p = weights.(j) /. (weights.(j) +. 1.0) in
                if Util.Rng.float rng < p then set := pass :: !set)
              universe;
            with_disabled base !set)
      in
      let evaluated = eval_batch st batch in
      (* Update the arms of every included pass against the mean score
         of everything evaluated so far — batch order, deterministic. *)
      let avg =
        let rows = st.st_order in
        if rows = [] then 0.0
        else
          List.fold_left (fun a (_, d, s) -> a +. scalar opts (d, s)) 0.0 rows
          /. float_of_int (List.length rows)
      in
      List.iter
        (fun ((c : Config.t), d, s) ->
          let advantage =
            (scalar opts (d, s) -. avg) /. (abs_float avg +. 1e-9)
          in
          Array.iteri
            (fun j pass ->
              if List.mem pass c.Config.disabled then
                weights.(j) <-
                  Float.min 20.0
                    (Float.max 0.05 (weights.(j) *. exp (0.3 *. advantage))))
            universe)
        evaluated;
      incr round
    done
  end

(* -- the frontier -- *)

let front_of (points : (Config.t * float * float) list) =
  let pts =
    List.map (fun (c, d, s) -> { fp_config = c; fp_debug = d; fp_speedup = s }) points
  in
  let dominates a b =
    a.fp_debug >= b.fp_debug && a.fp_speedup >= b.fp_speedup
    && (a.fp_debug > b.fp_debug || a.fp_speedup > b.fp_speedup)
  in
  let optimal =
    List.filter (fun p -> not (List.exists (fun q -> dominates q p) pts)) pts
  in
  (* Metric duplicates are interchangeable; keep one, by smallest name,
     so the front is a function of the evaluated *set*. *)
  let by_metrics = Hashtbl.create 8 in
  List.iter
    (fun p ->
      let k = (p.fp_debug, p.fp_speedup) in
      match Hashtbl.find_opt by_metrics k with
      | Some q when Config.name q.fp_config <= Config.name p.fp_config -> ()
      | _ -> Hashtbl.replace by_metrics k p)
    optimal;
  let dedup =
    List.filter
      (fun p ->
        match Hashtbl.find_opt by_metrics (p.fp_debug, p.fp_speedup) with
        | Some q -> q == p
        | None -> false)
      optimal
  in
  List.sort
    (fun a b ->
      compare
        (a.fp_debug, a.fp_speedup, Config.name a.fp_config)
        (b.fp_debug, b.fp_speedup, Config.name b.fp_config))
    dedup

let search ~engine:eng (prepared_suite : Evaluation.prepared list)
    ~(o0_costs : (string * int) list) (benches : Suite_types.sprogram list)
    ~(base : Config.t) ~(opts : search_opts) : search_result =
  if opts.so_budget < 1 then invalid_arg "Tuning.search: budget must be >= 1";
  let scope =
    Digest.to_hex
      (Digest.string
         (String.concat ";"
            (List.map
               (fun (p : Evaluation.prepared) ->
                 p.Evaluation.program.Suite_types.p_name)
               prepared_suite)
         ^ "|"
         ^ String.concat ";"
             (List.map (fun (b : Suite_types.sprogram) -> b.Suite_types.p_name) benches)))
  in
  let st =
    {
      st_engine = eng;
      st_suite = prepared_suite;
      st_benches = benches;
      st_o0 = o0_costs;
      st_memo = Measure_engine.memo eng ~name:"search-point" ();
      st_memo_scope = scope;
      st_archive = Hashtbl.create 64;
      st_order = [];
      st_count = 0;
      st_resumed = 0;
    }
  in
  let base = Config.canonical base in
  let universe = Array.of_list (pass_universe base) in
  let key =
    Search_rng.derive
      (Search_rng.derive (Search_rng.of_seed opts.so_seed) "tuning-search")
      (strategy_name opts.so_strategy)
  in
  (* Seed points first: the base level and any caller-provided
     configurations (the greedy dy points). Their membership in the
     evaluated set makes the front weakly dominate them by
     construction; the strategies then search for strict domination. *)
  let seeds =
    with_disabled base []
    :: List.map (fun c -> with_disabled base c.Config.disabled) opts.so_seeds
  in
  let rec take n = function
    | [] -> []
    | _ when n <= 0 -> []
    | x :: tl -> x :: take (n - 1) tl
  in
  ignore (eval_batch st (take opts.so_budget seeds));
  (match opts.so_strategy with
  | Random_sampling -> run_random st opts ~base ~universe ~key
  | Hill_climb -> run_hill_climb st opts ~base ~universe ~key
  | Bandit -> run_bandit st opts ~base ~universe ~key);
  let points = List.rev st.st_order in
  let frontier = front_of points in
  let dominated = st.st_count - List.length frontier in
  Util.Counters.bump ~n:(List.length frontier) "search/frontier";
  Util.Counters.bump ~n:dominated "search/dominated";
  {
    sr_base = base;
    sr_strategy = opts.so_strategy;
    sr_seed = opts.so_seed;
    sr_budget = opts.so_budget;
    sr_evaluated = st.st_count;
    sr_resumed = st.st_resumed;
    sr_frontier = frontier;
    sr_dominated = dominated;
  }

(** [weak_dominance_margin front points] — how comfortably [front]
    covers [points]: for each point, the best over front entries of
    [min (df - dp, sf - sp)]; the minimum of those over all points.
    Non-negative iff every point is weakly dominated by some front
    entry. The bench gate records this (scaled to ppm) against its
    search floor. *)
let weak_dominance_margin (front : frontier_point list)
    (points : (float * float) list) =
  List.fold_left
    (fun worst (d, s) ->
      let best =
        List.fold_left
          (fun acc f ->
            Float.max acc (Float.min (f.fp_debug -. d) (f.fp_speedup -. s)))
          neg_infinity front
      in
      Float.min worst best)
    infinity points
