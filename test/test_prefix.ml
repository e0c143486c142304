(** Property tests for the pass-prefix sweep planner
    ([Measure_engine.compile_sweep]): over random configuration sets,
    (a) every binary the planner seeds is byte-identical ([full_digest])
    to a straight-line [Toolchain.compile], and (b) the [prefix/*]
    counters match an independent reference model of the divergence
    tree — [passes_skipped] is exactly the sum of shared-prefix
    lengths, including the O0/empty-pipeline edge case. The counters are
    structural by contract, so (b) holds no matter how much better the
    planner's semantic no-op merging does; (a) is what keeps the
    merging honest. *)

module C = Debugtuner.Config
module T = Debugtuner.Toolchain
module ME = Debugtuner.Measure_engine
module Ev = Debugtuner.Evaluation
module Rk = Debugtuner.Ranking

(* One small fixed subject: the planner's behavior varies with the
   config set, not the program. *)
let sp =
  {
    Suite_types.p_name = "prefix-prop";
    p_source = Synth.generate ~seed:42;
    p_harnesses =
      [ { Suite_types.h_name = "main"; h_entry = "main"; h_seeds = [] } ];
  }

let straight ?(p = sp) config =
  T.compile (Suite_types.ast p) ~config ~roots:(Suite_types.roots p)

(* The prefix/* rows of the last sweep run ([run_sweep] and
   [scoped_sweep] capture them); zero rows are dropped. *)
let sweep_rows = ref []

let scoped_sweep f =
  let result, rows = Util.Counters.scoped f in
  sweep_rows :=
    List.filter (fun (n, _) -> String.starts_with ~prefix:"prefix/" n) rows;
  result

let counter name = Option.value ~default:0 (List.assoc_opt name !sweep_rows)

(* ------------------------------------------------------------------ *)
(* Reference model                                                     *)

(* Leaf depths of the divergence tree over one pipeline family: extend
   the trunk while every config agrees on the next entry's enabled bit,
   split at the first disagreement, stop at singletons. A leaf's depth
   is the number of pipeline entries its compile did not re-execute. *)
let leaf_depths n bitss =
  let rec plan idx = function
    | [] -> []
    | [ _ ] -> [ idx ]
    | b0 :: rest as l ->
        let k = ref idx in
        while !k < n && List.for_all (fun b -> b.(!k) = b0.(!k)) rest do
          incr k
        done;
        if !k > idx then if !k >= n then List.map (fun _ -> n) l else plan !k l
        else if idx >= n then List.map (fun _ -> idx) l
        else
          let yes, no = List.partition (fun b -> b.(idx)) l in
          plan idx yes @ plan idx no
  in
  plan 0 bitss

(* Expected (hits, misses, passes_skipped) for a sweep over [configs]:
   dedupe by fingerprint, group by pipeline family, singletons compile
   straight (one miss), groups follow the divergence tree. *)
let expected_counters configs =
  let seen = Hashtbl.create 8 in
  let uniq =
    List.filter
      (fun c ->
        let fp = C.fingerprint c in
        if Hashtbl.mem seen fp then false
        else begin
          Hashtbl.add seen fp ();
          true
        end)
      configs
  in
  let fams = ref [] in
  List.iter
    (fun c ->
      let key = (c.C.compiler, c.C.level) in
      match List.assoc_opt key !fams with
      | Some r -> r := c :: !r
      | None -> fams := !fams @ [ (key, ref [ c ]) ])
    uniq;
  List.fold_left
    (fun acc (_, r) ->
      match List.rev !r with
      | [ _ ] ->
          let h, m, sk = acc in
          (h, m + 1, sk)
      | group ->
          let names = List.map T.entry_name (T.pipeline (List.hd group)) in
          let n = List.length names in
          let bits c =
            Array.of_list (List.map (fun nm -> C.enabled c nm) names)
          in
          List.fold_left
            (fun (h, m, sk) d ->
              if d > 0 then (h + 1, m, sk + d) else (h, m + 1, sk))
            acc
            (leaf_depths n (List.map bits group)))
    (0, 0, 0) !fams

(* ------------------------------------------------------------------ *)
(* Random configuration sets                                           *)

(* Tiny deterministic LCG so a failing case reproduces from the QCheck
   input alone. *)
let derive_configs rand_seed count =
  let state = ref (rand_seed land 0x3FFFFFFF) in
  let next bound =
    state := ((!state * 48271) + 11) land 0x3FFFFFFF;
    !state mod max 1 bound
  in
  List.init count (fun _ ->
      let comp = if next 2 = 0 then C.Gcc else C.Clang in
      let levels = C.O0 :: C.standard_levels comp in
      let level = List.nth levels (next (List.length levels)) in
      let names = T.pass_names (C.make comp level) in
      let pool = "not-a-pass" :: names in
      let disabled =
        List.init (next 4) (fun _ -> List.nth pool (next (List.length pool)))
      in
      C.make ~disabled comp level)

let run_sweep configs =
  let eng = ME.create () in
  scoped_sweep (fun () -> ME.compile_sweep eng sp configs);
  eng

(* What a sweep seeded for [configs], looked up through [lookup]:
   engine lookups after it must all be tier-1 hits (no
   [engine/compile/misses] row). [seeded] decodes each binary,
   [seeded_entries] returns the packed tier-1 entries themselves. *)
let seeded_with lookup eng p configs =
  let found, rows =
    Util.Counters.scoped (fun () -> List.map (lookup eng p) configs)
  in
  Alcotest.(check (option int))
    (p.Suite_types.p_name ^ ": every config seeded")
    None
    (List.assoc_opt "engine/compile/misses" rows);
  found

let seeded eng p configs = seeded_with ME.compile eng p configs
let seeded_entries eng p configs = seeded_with ME.compile_packed eng p configs

let check_byte_identity ?(p = sp) eng configs =
  List.iter2
    (fun config (bin : Emit.binary) ->
      Alcotest.(check string)
        ("byte-identical: " ^ C.fingerprint config)
        (straight ~p config).Emit.full_digest bin.Emit.full_digest)
    configs (seeded eng p configs)

let qcheck_planner =
  QCheck.Test.make ~name:"planner: byte-identity + counter arithmetic"
    ~count:12
    QCheck.(pair (int_range 0 1_000_000) (int_range 1 7))
    (fun (rand_seed, count) ->
      let configs = derive_configs rand_seed count in
      let eng = run_sweep configs in
      check_byte_identity eng configs;
      let h, m, sk = expected_counters configs in
      Alcotest.(check int) "prefix/hits" h (counter "prefix/hits");
      Alcotest.(check int) "prefix/misses" m (counter "prefix/misses");
      Alcotest.(check int) "prefix/passes_skipped" sk
        (counter "prefix/passes_skipped");
      true)

(* ------------------------------------------------------------------ *)
(* Deterministic edges                                                 *)

(* The Ranking sweep shape: baseline plus one config per disabled pass.
   Almost everything is shareable — require real savings, not just a
   nonzero counter. *)
let test_ranking_shape () =
  let base = C.make C.Gcc C.O2 in
  let configs =
    base
    :: List.map
         (fun pass -> C.make ~disabled:[ pass ] C.Gcc C.O2)
         (T.pass_names base)
  in
  let eng = run_sweep configs in
  check_byte_identity eng configs;
  let h, m, sk = expected_counters configs in
  Alcotest.(check int) "hits" h (counter "prefix/hits");
  Alcotest.(check int) "misses" m (counter "prefix/misses");
  Alcotest.(check int) "passes skipped" sk (counter "prefix/passes_skipped");
  Alcotest.(check bool) "most compiles shared a prefix" true
    (h > List.length configs / 2);
  Alcotest.(check bool) "snapshots accounted" true
    (counter "prefix/snapshot_bytes" > 0);
  (* Disabling a pass that happens to be a no-op on this subject must
     merge that config back into its siblings — on real programs most
     one-disabled configs collapse this way. *)
  Alcotest.(check bool) "no-op passes merged" true
    (counter "prefix/merged" > 0)

(* O0 has an empty pipeline: everything compiles as a prefix miss, and
   nothing breaks. *)
let test_o0_edge () =
  let configs =
    [
      C.make C.Gcc C.O0;
      C.make ~disabled:[ "dce" ] C.Gcc C.O0;
      C.make C.Clang C.O1;
    ]
  in
  let eng = run_sweep configs in
  check_byte_identity eng configs;
  Alcotest.(check int) "no hits" 0 (counter "prefix/hits");
  Alcotest.(check int) "all misses" 3 (counter "prefix/misses");
  Alcotest.(check int) "nothing skipped" 0 (counter "prefix/passes_skipped");
  (* The two O0 configs are trivially state-identical at the (empty)
     pipeline's end: one backend run serves both. *)
  Alcotest.(check int) "O0 pair merged" 1 (counter "prefix/merged")

(* Distinct fingerprints, identical effective pipelines: the planner
   proves the configs state-identical at the end of the pipeline and
   seeds both the same (physically shared) packed entry — one backend
   run, packed once. *)
let test_merged_identical_bits () =
  let configs =
    [ C.make C.Gcc C.O2; C.make ~disabled:[ "not-a-pass" ] C.Gcc C.O2 ]
  in
  let eng = run_sweep configs in
  check_byte_identity eng configs;
  Alcotest.(check int) "merged" 1 (counter "prefix/merged");
  match seeded_entries eng sp configs with
  | [ a; b ] -> Alcotest.(check bool) "physically shared" true (a == b)
  | _ -> Alcotest.fail "not seeded"

(* One compile_sweep serves every program, a prepared suite subject and
   a SPEC benchmark alike: seeded binaries are what a straight compile
   produces, and the subject's later measures and the benchmark's
   costs are tier-1 hits on the very entries the sweep seeded. *)
let prepared = lazy (Ev.prepare (Programs.find "libpng"))

let test_sweep_prepared_and_spec () =
  let p = Lazy.force prepared and bench = Spec.find "505.mcf" in
  let configs =
    [
      C.make C.Gcc C.O2;
      C.make ~disabled:[ "dce" ] C.Gcc C.O2;
      C.make ~disabled:[ "inline" ] C.Gcc C.O2;
    ]
  in
  let eng = ME.create () in
  List.iter
    (fun (prog : Suite_types.sprogram) ->
      let what = prog.Suite_types.p_name in
      scoped_sweep (fun () -> ME.compile_sweep eng prog configs);
      Alcotest.(check bool) (what ^ ": prefix engaged") true
        (counter "prefix/hits" > 0);
      check_byte_identity ~p:prog eng configs;
      (* Re-sweeping is a no-op: everything is found cached. *)
      scoped_sweep (fun () -> ME.compile_sweep eng prog configs);
      Alcotest.(check (list (pair string int)))
        (what ^ ": idempotent") [] !sweep_rows)
    [ p.Ev.program; bench ];
  let (), rows =
    Util.Counters.scoped (fun () ->
        List.iter2
          (fun config (seeded_entry : ME.packed) ->
            Alcotest.(check string)
              ("matches Evaluation.compile: " ^ C.fingerprint config)
              (Ev.compile p config).Emit.full_digest
              seeded_entry.ME.pk_full_digest;
            Alcotest.(check bool) "measure reads the seeded entry" true
              (snd (ME.measure eng p config) == seeded_entry);
            ignore (ME.bench_cost eng bench config : int))
          configs
          (seeded_entries eng p.Ev.program configs))
  in
  Alcotest.(check (option int)) "no tier-1 miss after the sweeps" None
    (List.assoc_opt "engine/compile/misses" rows)

(* The planner inside a real ranking: Ranking.rank through the planner
   equals Ranking.rank on an engine whose tier 1 was first filled by a
   straight [ME.compile] of every sweep configuration, so that its own
   sweep plans nothing. Suite programs at both families' O2, where
   most one-disabled configurations are no-ops the planner merges. *)
let rank_programs =
  lazy
    (List.map
       (fun n -> Ev.prepare (Programs.find n))
       [ "zlib"; "libexif"; "libyaml" ])

let test_rank_planner_vs_straight () =
  let programs = Lazy.force rank_programs in
  List.iter
    (fun config ->
      let what = C.name config in
      let sweep =
        config
        :: List.map
             (fun pass -> { config with C.disabled = [ pass ] })
             (T.pass_names config)
      in
      let planned = ME.create () in
      let lr_planned =
        scoped_sweep (fun () -> Rk.rank ~engine:planned programs config)
      in
      Alcotest.(check bool) (what ^ ": planner engaged") true
        (counter "prefix/hits" > 0 && counter "prefix/merged" > 0);
      let straight = ME.create () in
      List.iter
        (fun (p : Ev.prepared) ->
          List.iter
            (fun c -> ignore (ME.compile straight p.Ev.program c))
            sweep)
        programs;
      let lr_straight =
        scoped_sweep (fun () -> Rk.rank ~engine:straight programs config)
      in
      Alcotest.(check (list (pair string int)))
        (what ^ ": straight engine planned nothing") [] !sweep_rows;
      Alcotest.(check bool) (what ^ ": same level_ranking") true
        (lr_planned = lr_straight);
      List.iter
        (fun (p : Ev.prepared) ->
          let digests eng =
            List.map
              (fun (bin : Emit.binary) -> bin.Emit.full_digest)
              (seeded eng p.Ev.program sweep)
          in
          Alcotest.(check (list string))
            (what ^ ": full_digest of every swept config")
            (digests straight) (digests planned))
        programs)
    [ C.make C.Gcc C.O2; C.make C.Clang C.O2 ]

let tests =
  [
    QCheck_alcotest.to_alcotest qcheck_planner;
    Alcotest.test_case "ranking-shaped sweep" `Quick test_ranking_shape;
    Alcotest.test_case "O0 / empty pipeline" `Quick test_o0_edge;
    Alcotest.test_case "identical-bit configs share one backend run" `Quick
      test_merged_identical_bits;
    Alcotest.test_case "prepared-subject sweep" `Quick
      test_sweep_prepared_and_spec;
    Alcotest.test_case "rank through the planner = rank on straight compiles"
      `Quick test_rank_planner_vs_straight;
  ]
