(* Tuning search (ROADMAP item 2): the Pareto-front search over the
   2^N disable-set space must be a pure function of (strategy, seed,
   budget) — byte-identical frontiers at any worker count and across
   kill-and-resume through the persistent store — and the hill-climb
   must actually escape the one-dimensional ridge the greedy dy sweep
   walks. Also holds the digest-equality regression for the sorted
   function-iteration hardening (Ir.iter_funcs): sweep-planned compiles
   run passes over Snapshot-restored tables, whose Hashtbl iteration
   order differs from a straight compile's, and the binaries must be
   byte-identical anyway. *)

let check = Alcotest.check
let checkb = Alcotest.(check bool)

module C = Debugtuner.Config
module T = Debugtuner.Toolchain
module ME = Debugtuner.Measure_engine
module Ev = Debugtuner.Evaluation
module Tu = Debugtuner.Tuning
module Rk = Debugtuner.Ranking

(* A pinned two-program suite: big enough that disable sets move both
   metrics, small enough that a search is a few hundred milliseconds. *)
let sprog seed name =
  {
    Suite_types.p_name = name;
    p_source = Synth.generate ~seed;
    p_harnesses =
      [ { Suite_types.h_name = "main"; h_entry = "main"; h_seeds = [] } ];
  }

(* Program seeds 3/5 are pinned with the search seed: on this pair the
   greedy dy points sit off the true front, so the escape assertion in
   [test_hill_climb_escapes_greedy] has something to find (verified for
   search seeds 1 and 2). *)
let benches = [ sprog 3 "srch-a"; sprog 5 "srch-b" ]
let suite = lazy (List.map Ev.prepare benches)
let base = C.make C.Gcc C.O2

let opts ?(strategy = Tu.Hill_climb) ?(budget = 5) ?(seed = 1)
    ?(seeds = []) () =
  {
    Tu.so_strategy = strategy;
    so_budget = budget;
    so_seed = seed;
    so_debug_weight = 1.0;
    so_speed_weight = 1.0;
    so_seeds = seeds;
  }

let run_search ?(engine = ME.create ()) opts =
  let suite = Lazy.force suite in
  let o0_costs = Tu.o0_costs ~engine benches in
  Tu.search ~engine suite ~o0_costs benches ~base ~opts

(* The full result, flattened to a comparable string — fingerprints and
   both metrics at full precision. *)
let frontier_repr (r : Tu.search_result) =
  String.concat ";"
    (List.map
       (fun (f : Tu.frontier_point) ->
         Printf.sprintf "%s|%.17g|%.17g" (C.fingerprint f.Tu.fp_config)
           f.Tu.fp_debug f.Tu.fp_speedup)
       r.Tu.sr_frontier)

(* ------------------------------------------------------------------ *)
(* Determinism: equal (strategy, seed, budget) => equal frontier, at
   1, 2 and 4 engine workers.                                          *)

let strategy_of_int = function
  | 0 -> Tu.Random_sampling
  | 1 -> Tu.Hill_climb
  | _ -> Tu.Bandit

let qcheck_jobs_determinism =
  QCheck.Test.make ~count:6
    ~name:"equal (strategy, seed, budget) => identical frontier at jobs 1/2/4"
    QCheck.(pair (int_range 0 2) (int_range 1 1000))
    (fun (si, seed) ->
      let strategy = strategy_of_int si in
      let run workers =
        frontier_repr
          (run_search ~engine:(ME.create ~workers ())
             (opts ~strategy ~budget:4 ~seed ()))
      in
      let r1 = run 1 in
      r1 <> "" && r1 = run 2 && r1 = run 4)

let test_repeat_run_identical () =
  List.iter
    (fun strategy ->
      let r1 = run_search (opts ~strategy ~budget:6 ()) in
      let r2 = run_search (opts ~strategy ~budget:6 ()) in
      check Alcotest.string
        (Tu.strategy_name strategy ^ " frontier stable across runs")
        (frontier_repr r1) (frontier_repr r2);
      check Alcotest.int "budget honored" 6 r1.Tu.sr_evaluated)
    [ Tu.Random_sampling; Tu.Hill_climb; Tu.Bandit ]

(* ------------------------------------------------------------------ *)
(* Frontier invariants: sorted, mutually non-dominated, and it weakly
   dominates every point that was evaluated.                           *)

let qcheck_frontier_invariants =
  QCheck.Test.make ~count:5
    ~name:"frontier is sorted, non-dominated, and covers its seeds"
    QCheck.(pair (int_range 0 2) (int_range 1 1000))
    (fun (si, seed) ->
      let r =
        run_search (opts ~strategy:(strategy_of_int si) ~budget:4 ~seed ())
      in
      let front = r.Tu.sr_frontier in
      let keys =
        List.map
          (fun (f : Tu.frontier_point) -> (f.Tu.fp_debug, f.Tu.fp_speedup))
          front
      in
      let sorted = List.sort compare keys = keys in
      let dominates (d1, s1) (d2, s2) =
        d1 >= d2 && s1 >= s2 && (d1 > d2 || s1 > s2)
      in
      let non_dominated =
        List.for_all
          (fun p -> not (List.exists (fun q -> q <> p && dominates q p) keys))
          keys
      in
      sorted && non_dominated
      && Tu.weak_dominance_margin front keys >= 0.0)

(* ------------------------------------------------------------------ *)
(* The point of the exercise: seeded with the greedy dy configurations,
   the hill-climb must come back with a point that strictly dominates
   one of them — the greedy sweep can only disable prefixes of its one
   ranked order, a local optimum in the 2^N space.                     *)

let test_hill_climb_escapes_greedy () =
  let engine = ME.create () in
  let lr = Rk.rank ~engine (Lazy.force suite) base in
  let dys = List.map (fun y -> Tu.dy_config lr ~y) [ 3; 5; 7; 9 ] in
  let r =
    run_search ~engine (opts ~strategy:Tu.Hill_climb ~budget:24 ~seeds:dys ())
  in
  let o0_costs = Tu.o0_costs ~engine benches in
  let greedy =
    List.map
      (fun c ->
        let pt =
          Tu.measure_point ~engine (Lazy.force suite) ~o0_costs benches c
        in
        (pt.Tu.cp_debug, pt.Tu.cp_speedup))
      dys
  in
  (* weak dominance of every greedy point holds by construction... *)
  checkb "front weakly dominates every greedy point" true
    (Tu.weak_dominance_margin r.Tu.sr_frontier greedy >= 0.0);
  (* ...and the climb found something the greedy order cannot reach:
     a frontier point strictly better than some greedy point. *)
  let strictly_improves (d, s) =
    List.exists
      (fun (f : Tu.frontier_point) ->
        f.Tu.fp_debug >= d && f.Tu.fp_speedup >= s
        && (f.Tu.fp_debug > d || f.Tu.fp_speedup > s))
      r.Tu.sr_frontier
  in
  checkb "some greedy point is strictly dominated" true
    (List.exists strictly_improves greedy)

(* ------------------------------------------------------------------ *)
(* Kill-and-resume through the persistent store.                       *)

let temp_dir =
  let seq = ref 0 in
  fun () ->
    incr seq;
    let d =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "dtsearch-test-%d-%d" (Unix.getpid ()) !seq)
    in
    (try Sys.mkdir d 0o755 with Sys_error _ -> ());
    d

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    try Sys.rmdir path with Sys_error _ -> ()
  end
  else try Sys.remove path with Sys_error _ -> ()

let with_dir f =
  let d = temp_dir () in
  Fun.protect ~finally:(fun () -> try rm_rf d with _ -> ()) (fun () -> f d)

let test_resume_after_kill () =
  with_dir @@ fun d ->
  (* Reference: the full search, no store anywhere near it. *)
  let reference = run_search (opts ~budget:6 ()) in
  (* The "killed" run: a store-backed search that only got through half
     its budget. The candidate sequence is deterministic, so those
     evaluations are exactly a prefix of the full run's. *)
  ignore
    (run_search
       ~engine:(ME.create ~store:(ME.open_store ~dir:d ()) ())
       (opts ~budget:3 ()));
  (* The restart: a fresh engine (fresh process, same directory) runs
     the full search — the first half must come back from the store. *)
  let resumed, rows =
    Util.Counters.scoped (fun () ->
        run_search
          ~engine:(ME.create ~store:(ME.open_store ~dir:d ()) ())
          (opts ~budget:6 ()))
  in
  let search_counter name =
    Option.value ~default:0 (List.assoc_opt ("search/" ^ name) rows)
  in
  check Alcotest.string "resumed frontier identical to cold one"
    (frontier_repr reference) (frontier_repr resumed);
  checkb "search/resumed counts salvaged evaluations" true
    (search_counter "resumed" >= 3);
  check Alcotest.int "sr_resumed agrees with the counter"
    (search_counter "resumed") resumed.Tu.sr_resumed

(* ------------------------------------------------------------------ *)
(* Digest equality: sweep-planned compiles (Snapshot-restored function
   tables) vs straight compiles, over random disable sets.             *)

let test_sweep_digest_equality () =
  let sp = List.hd benches in
  let rng = Util.Rng.create 77 in
  let universe = Array.of_list (T.pass_names base) in
  let random_config () =
    let disabled =
      Array.to_list universe
      |> List.filter (fun _ -> Util.Rng.int rng 3 = 0)
    in
    C.canonical { base with C.disabled }
  in
  let configs = base :: List.init 8 (fun _ -> random_config ()) in
  let engine = ME.create () in
  ME.compile_sweep engine sp configs;
  List.iter
    (fun config ->
      let swept = ME.compile engine sp config in
      let straight =
        T.compile (Suite_types.ast sp) ~config ~roots:(Suite_types.roots sp)
      in
      check Alcotest.string
        (C.fingerprint config ^ " sweep binary == straight binary")
        straight.Emit.full_digest swept.Emit.full_digest)
    configs

(* ------------------------------------------------------------------ *)
(* Small pure pieces.                                                  *)

let test_strategy_names () =
  List.iter
    (fun s ->
      check
        Alcotest.(option string)
        (Tu.strategy_name s ^ " round-trips")
        (Some (Tu.strategy_name s))
        (Option.map Tu.strategy_name (Tu.strategy_of_string (Tu.strategy_name s))))
    [ Tu.Random_sampling; Tu.Hill_climb; Tu.Bandit ];
  checkb "unknown strategy rejected" true (Tu.strategy_of_string "zen" = None)

let test_dominance_margin () =
  let fp d s =
    { Tu.fp_config = base; fp_debug = d; fp_speedup = s }
  in
  let front = [ fp 0.4 2.0; fp 0.6 1.5 ] in
  checkb "empty point set is vacuously dominated" true
    (Tu.weak_dominance_margin front [] = infinity);
  checkb "empty front dominates nothing" true
    (Tu.weak_dominance_margin [] [ (0.1, 0.1) ] = neg_infinity);
  check (Alcotest.float 1e-9) "interior point's margin" 0.1
    (Tu.weak_dominance_margin front [ (0.3, 1.4) ]);
  checkb "uncovered point goes negative" true
    (Tu.weak_dominance_margin front [ (0.7, 1.9) ] < 0.0)

let tests =
  [
    Alcotest.test_case "strategy names round-trip" `Quick test_strategy_names;
    Alcotest.test_case "weak dominance margin" `Quick test_dominance_margin;
    QCheck_alcotest.to_alcotest qcheck_jobs_determinism;
    QCheck_alcotest.to_alcotest qcheck_frontier_invariants;
    Alcotest.test_case "repeat runs byte-identical" `Slow
      test_repeat_run_identical;
    Alcotest.test_case "hill-climb escapes the greedy local optimum" `Slow
      test_hill_climb_escapes_greedy;
    Alcotest.test_case "kill-and-resume through the store" `Slow
      test_resume_after_kill;
    Alcotest.test_case "sweep binaries byte-identical to straight" `Slow
      test_sweep_digest_equality;
  ]
