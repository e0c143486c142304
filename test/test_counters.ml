(* Counter attribution. Unit tests of {!Util.Counters} (tables, nested
   sinks, pool workers, isolation between threads and domains), then the
   request-level properties the sinks exist for: a request's rows are
   its own work even while other requests run on the same domain or
   alongside a check whose verdict gets persisted, and the rows of six
   representative requests are pinned to absolute values. *)

let check = Alcotest.check
let checkb = Alcotest.(check bool)
let rows_t = Alcotest.(list (pair string int))

module C = Util.Counters
module Config = Debugtuner.Config
module ME = Debugtuner.Measure_engine
module R = Api.Request
module Resp = Api.Response

(* ------------------------------------------------------------------ *)
(* Util.Counters                                                       *)

let test_table_and_nested_sinks () =
  let t = C.create () in
  let outer = C.create_sink () and inner = C.create_sink () in
  C.bump ~table:t "a";
  C.with_sink outer (fun () ->
      C.bump ~table:t ~n:2 "b";
      C.with_sink inner (fun () ->
          C.bump ~table:t ~n:3 "a";
          C.bump ~table:t ~n:0 "zero"));
  C.bump ~table:t "b";
  check rows_t "table: every bump, sorted, zero rows dropped"
    [ ("a", 4); ("b", 3) ]
    (C.rows t);
  check rows_t "outer sink: its scope, nested work included"
    [ ("a", 3); ("b", 2) ]
    (C.sink_rows outer);
  check rows_t "inner sink: its own scope only" [ ("a", 3) ]
    (C.sink_rows inner)

let test_pool_workers_inherit () =
  let t = C.create () in
  let pool = Engine.Pool.create ~workers:3 () in
  let squares, rows =
    C.scoped (fun () ->
        Engine.Pool.map pool
          (fun i ->
            C.bump ~table:t ~n:i "w";
            i * i)
          [ 1; 2; 3; 4 ])
  in
  check Alcotest.(list int) "results" [ 1; 4; 9; 16 ] squares;
  check rows_t "workers count for the caller's scope" [ ("w", 10) ] rows;
  let (), after = C.scoped (fun () -> ()) in
  check rows_t "nothing leaks into a later scope" [] after

(* Two threads on the main domain and two on a spawned one, each in its
   own sink, bump the same name with yields in between: every sink
   holds exactly its own thread's bumps, the table all of them. *)
let test_threads_and_domains_isolated () =
  let t = C.create () in
  let work k () =
    snd
      (C.scoped (fun () ->
           for _ = 1 to 500 do
             C.bump ~table:t ~n:k "x";
             Thread.yield ()
           done))
  in
  let pair a b () =
    let other = ref [] in
    let th = Thread.create (fun () -> other := work b ()) () in
    let mine = work a () in
    Thread.join th;
    (mine, !other)
  in
  let d = Domain.spawn (pair 3 4) in
  let r1, r2 = pair 1 2 () in
  let r3, r4 = Domain.join d in
  List.iteri
    (fun i rows ->
      check rows_t
        (Printf.sprintf "sink %d" (i + 1))
        [ ("x", 500 * (i + 1)) ]
        rows)
    [ r1; r2; r3; r4 ];
  check rows_t "table" [ ("x", 5000) ] (C.rows t)

(* ------------------------------------------------------------------ *)
(* Requests                                                            *)

let temp_dir =
  let seq = ref 0 in
  fun () ->
    incr seq;
    let d =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "dtcounters-test-%d-%d" (Unix.getpid ()) !seq)
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

let on_store dir = Api.create_ctx ~store:(ME.open_store ~dir ()) ()

let sanitize_rows =
  List.filter (fun (n, _) -> String.starts_with ~prefix:"sanitize/" n)

let compile ?(sanitize = true) name compiler level =
  R.Compile
    {
      c_subject = R.Named name;
      c_config = Config.make compiler level;
      c_profile = None;
      c_sanitize = sanitize;
      c_view = R.Summary;
    }

let check_req ?(fuzz = 0) name =
  R.Check
    {
      k_subject = Some (R.Named name);
      k_fuzz = fuzz;
      k_seed = 1;
      k_suite = false;
    }

let ok what (r : Resp.t) = checkb (what ^ " ok") true (r.Resp.status = Resp.Ok)

(* A cold check persists its verdict with the sanitizer rows of its own
   compiles, and every warm check replays them. A sanitized compile
   running meanwhile on another domain must not leak into that delta —
   else the store keeps printing the wrong counts forever. *)
let test_verdict_delta_not_poisoned () =
  with_dir @@ fun solo_dir ->
  with_dir @@ fun dir ->
  let solo = Api.execute (on_store solo_dir) (check_req "zlib") in
  ok "solo check" solo;
  let total () =
    List.fold_left (fun a (_, v) -> a + v) 0 (sanitize_rows (C.rows C.process))
  in
  let ctx = on_store dir in
  let before = total () in
  let finished = Atomic.make false in
  let cold =
    Domain.spawn (fun () ->
        Fun.protect
          ~finally:(fun () -> Atomic.set finished true)
          (fun () -> Api.execute ctx (check_req "zlib")))
  in
  while total () = before && not (Atomic.get finished) do
    Unix.sleepf 0.0005
  done;
  ok "concurrent compile"
    (Api.execute (Api.create_ctx ()) (compile "bzip2" Config.Clang Config.O3));
  let cold = Domain.join cold in
  ok "cold check" cold;
  let warm = Api.execute (on_store dir) (check_req "zlib") in
  ok "warm check" warm;
  check Alcotest.string "warm text matches a solo cold check" solo.Resp.text
    warm.Resp.text;
  check rows_t "warm sanitize rows match a solo cold check"
    (sanitize_rows solo.Resp.stats)
    (sanitize_rows warm.Resp.stats)

(* Requests on systhreads of one domain, held in [execute] until all of
   them are in flight: each must report exactly its solo rows. A sink
   keyed by domain alone would hand them all the last one. *)
let test_systhread_attribution () =
  let reqs =
    [
      compile "zlib" Config.Gcc Config.O1;
      compile "bzip2" Config.Gcc Config.O2;
      compile "libexif" Config.Gcc Config.O1;
      compile "liblouis" Config.Gcc Config.O2;
    ]
  in
  let n = List.length reqs in
  let solo = List.map (Api.execute (Api.create_ctx ())) reqs in
  let ctx = Api.create_ctx () in
  let mu = Mutex.create () and all_in = Condition.create () in
  let entered = ref 0 in
  Api.execute_gate :=
    (fun () ->
      Mutex.lock mu;
      incr entered;
      if !entered = n then Condition.broadcast all_in
      else
        while !entered < n do
          Condition.wait all_in mu
        done;
      Mutex.unlock mu);
  let results = Array.make n None in
  Fun.protect ~finally:(fun () -> Api.execute_gate := fun () -> ())
  @@ fun () ->
  List.mapi
    (fun i req ->
      Thread.create (fun () -> results.(i) <- Some (Api.execute ctx req)) ())
    reqs
  |> List.iter Thread.join;
  List.iteri
    (fun i (want : Resp.t) ->
      match results.(i) with
      | None -> Alcotest.fail "request lost"
      | Some got ->
          ok (Printf.sprintf "request %d" i) got;
          check Alcotest.string
            (Printf.sprintf "request %d text" i)
            want.Resp.text got.Resp.text;
          check rows_t
            (Printf.sprintf "request %d rows" i)
            want.Resp.stats got.Resp.stats)
    solo

(* A daemon restarted over its store reads the prepared subjects back
   instead of fuzzing again: the first context's measure writes the
   prepared zlib, a second context over the same directory reads it,
   prepares nothing, and prints the same text. *)
let test_restart_reads_prepared () =
  with_dir @@ fun dir ->
  let measure =
    R.Compile
      {
        c_subject = R.Named "zlib";
        c_config = Config.make Config.Gcc Config.O2;
        c_profile = None;
        c_sanitize = false;
        c_view = R.Measure;
      }
  in
  let row name (r : Resp.t) = List.assoc_opt name r.Resp.stats in
  let cold = Api.execute (on_store dir) measure in
  ok "cold measure" cold;
  check Alcotest.(option int) "cold run writes the prepared subject" (Some 1)
    (row "store/prepare/writes" cold);
  let warm = Api.execute (on_store dir) measure in
  ok "restarted measure" warm;
  check Alcotest.(option int) "restart reads it back" (Some 1)
    (row "store/prepare/hits" warm);
  check Alcotest.(option int) "restart prepares nothing" None
    (row "engine/prepare/misses" warm);
  check Alcotest.string "same text" cold.Resp.text warm.Resp.text

(* Every view of a program shares one tier 1: a [Summary] compile and
   then a [Measure] of zlib at gcc-O2 on one context compile once. *)
let test_views_compile_once () =
  let ctx = Api.create_ctx () in
  let view v =
    Api.execute ctx
      (R.Compile
         {
           c_subject = R.Named "zlib";
           c_config = Config.make Config.Gcc Config.O2;
           c_profile = None;
           c_sanitize = false;
           c_view = v;
         })
  in
  let summary = view R.Summary in
  ok "summary" summary;
  let measure = view R.Measure in
  ok "measure" measure;
  let engine_rows (r : Resp.t) =
    List.filter
      (fun (n, _) -> String.starts_with ~prefix:"engine/" n)
      r.Resp.stats
  in
  check rows_t "summary compiles" [ ("engine/compile/misses", 1) ]
    (engine_rows summary);
  check rows_t "measure reads the summary's binary"
    [
      ("engine/compile/hits", 1);
      ("engine/measure/misses", 1);
      ("engine/prepare/misses", 1);
    ]
    (engine_rows measure)

(* The engine owns prepared subjects: the same corpus job run twice on
   one store-less context prepares its programs once, and the second
   run reports them all resumed. *)
let test_experiments_prepare_once () =
  let ctx = Api.create_ctx () in
  let job () =
    Api.execute ctx
      (R.Experiments
         {
           e_job =
             Api.Job.make
               ~configs:[ Config.make Config.Gcc Config.O2 ]
               ~seed:5 ~corpus:6 ();
         })
  in
  let first = job () in
  ok "first run" first;
  let second = job () in
  ok "second run" second;
  let row name (r : Resp.t) = List.assoc_opt name r.Resp.stats in
  check Alcotest.(option int) "first run prepares" (Some 6)
    (row "engine/prepare/misses" first);
  check Alcotest.(option int) "second run prepares nothing" None
    (row "engine/prepare/misses" second);
  check Alcotest.(option int) "second run resumes every program" (Some 6)
    (row "shard/resumed_programs" second);
  check Alcotest.string "same text" first.Resp.text second.Resp.text

(* ------------------------------------------------------------------ *)
(* Golden rows                                                         *)

(* The exact rows of six requests, as absolute values, every row
   compared: the relative tests above still pass if a row is renamed or
   dropped on both sides; these do not. *)

let rows text =
  List.filter_map
    (fun line ->
      match String.split_on_char ' ' line with
      | [ name; v ] -> Some (name, int_of_string v)
      | _ -> None)
    (String.split_on_char '\n' text)

let compile_zlib_o2 =
  rows
    {|
sanitize/dce/checked 2
sanitize/dse/checked 1
sanitize/emit/checked 1
sanitize/expensive-opts/checked 1
sanitize/guess-branch-probability/checked 1
sanitize/if-conversion/checked 1
sanitize/inline-fncs-called-once/checked 1
sanitize/inline-functions/checked 1
sanitize/inline-small-functions/checked 1
sanitize/inline/checked 1
sanitize/ipa-pure-const/checked 1
sanitize/isel/checked 3
sanitize/lower/checked 1
sanitize/mach-place-blocks/checked 3
sanitize/mach-schedule/checked 3
sanitize/mach-shrink-wrap/checked 3
sanitize/mach-tail-merge/checked 3
sanitize/mem2reg/checked 1
sanitize/sra/checked 1
sanitize/thread-jumps/checked 1
sanitize/tree-ccp/checked 1
sanitize/tree-ch/checked 1
sanitize/tree-dominator-opts/checked 1
sanitize/tree-forwprop/checked 1
sanitize/tree-fre/checked 1
sanitize/tree-ivopts/checked 1
sanitize/tree-loop-optimize/checked 1
sanitize/tree-sink/checked 1
sanitize/tree-ter/checked 1
|}

let check_zlib_sanitize =
  rows
    {|
sanitize/ADCE/checked 21
sanitize/DSE/checked 14
sanitize/EarlyCSE/checked 42
sanitize/FunctionAttrs/checked 21
sanitize/GVN/checked 14
sanitize/Inliner/checked 21
sanitize/InstCombine/checked 42
sanitize/JumpThreading/checked 14
sanitize/LICM/checked 21
sanitize/LoopRotate/checked 21
sanitize/LoopStrengthReduce/checked 21
sanitize/LoopUnroll/checked 21
sanitize/SLPVectorizer/checked 7
sanitize/SROA/checked 21
sanitize/SimplifyCFG/checked 56
sanitize/cunroll/checked 7
sanitize/dce/checked 42
sanitize/dse/checked 14
sanitize/emit/checked 56
sanitize/expensive-opts/checked 14
sanitize/guess-branch-probability/checked 21
sanitize/if-conversion/checked 14
sanitize/inline-fncs-called-once/checked 21
sanitize/inline-functions/checked 14
sanitize/inline-small-functions/checked 14
sanitize/inline/checked 21
sanitize/ipa-pure-const/checked 21
sanitize/isel/checked 213
sanitize/lower/checked 56
sanitize/mach-place-blocks/checked 153
sanitize/mach-schedule/checked 136
sanitize/mach-shrink-wrap/checked 153
sanitize/mach-sink/checked 90
sanitize/mach-tail-merge/checked 136
sanitize/mem2reg/checked 42
sanitize/sra/checked 21
sanitize/thread-jumps/checked 21
sanitize/tree-ccp/checked 21
sanitize/tree-ch/checked 21
sanitize/tree-dominator-opts/checked 21
sanitize/tree-forwprop/checked 21
sanitize/tree-fre/checked 21
sanitize/tree-ivopts/checked 14
sanitize/tree-loop-optimize/checked 21
sanitize/tree-sink/checked 21
sanitize/tree-slp-vectorize/checked 7
sanitize/tree-ter/checked 21
|}

let experiments_rows =
  rows
    {|
engine/compile/misses 28
engine/measure/dedups 1
engine/measure/misses 27
engine/prepare/misses 4
prefix/hits 28
prefix/passes_skipped 108
prefix/snapshot_bytes 912016
shard/programs 4
shard/rows 28
|}

let experiments_shard_rows =
  rows
    {|
engine/compile/misses 14
engine/measure/dedups 1
engine/measure/misses 13
engine/prepare/misses 2
prefix/hits 14
prefix/passes_skipped 54
prefix/snapshot_bytes 595968
shard/programs 2
shard/rows 14
|}

let search_rows =
  rows
    {|
engine/bench-cost/hits 2
engine/bench-cost/misses 48
engine/compile/hits 610
engine/compile/misses 466
engine/measure/hits 18
engine/measure/misses 188
engine/prepare/misses 13
engine/rank-discard/dedups 223
prefix/hits 443
prefix/merged 136
prefix/misses 13
prefix/passes_skipped 6184
prefix/snapshot_bytes 5889176
search/candidates 4
search/frontier 4
search/rounds 1
search/suffix_shared 83
|}

let test_golden_rows () =
  let pinned what want (r : Resp.t) =
    ok what r;
    check rows_t what want r.Resp.stats
  in
  pinned "sanitized compile zlib gcc O2" compile_zlib_o2
    (Api.execute (Api.create_ctx ()) (compile "zlib" Config.Gcc Config.O2));
  with_dir (fun dir ->
      let fuzz = check_req ~fuzz:2 "zlib" in
      pinned "cold check"
        (check_zlib_sanitize
        @ [ ("store/oracle/misses", 3); ("store/oracle/writes", 3) ])
        (Api.execute (on_store dir) fuzz);
      pinned "warm check"
        (check_zlib_sanitize @ [ ("store/oracle/hits", 3) ])
        (Api.execute (on_store dir) fuzz));
  let experiments shard =
    Api.execute (Api.create_ctx ())
      (R.Experiments { e_job = Api.Job.make ?shard ~seed:1 ~corpus:4 () })
  in
  pinned "experiments" experiments_rows (experiments None);
  pinned "experiments shard 1/2" experiments_shard_rows
    (experiments (Some (1, 2)));
  pinned "search" search_rows
    (Api.execute (Api.create_ctx ())
       (R.Search
          {
            se_config = Config.make Config.Gcc Config.O2;
            se_strategy = Debugtuner.Tuning.Hill_climb;
            se_budget = 4;
            se_seed = 1;
            se_debug_weight = 1.0;
            se_speed_weight = 1.0;
          }))

let tests =
  [
    Alcotest.test_case "table and nested sinks" `Quick
      test_table_and_nested_sinks;
    Alcotest.test_case "pool workers inherit the scope" `Quick
      test_pool_workers_inherit;
    Alcotest.test_case "threads and domains isolated" `Quick
      test_threads_and_domains_isolated;
    Alcotest.test_case "verdict delta not poisoned" `Quick
      test_verdict_delta_not_poisoned;
    Alcotest.test_case "systhread requests attributed" `Quick
      test_systhread_attribution;
    Alcotest.test_case "restart reads prepared subjects" `Quick
      test_restart_reads_prepared;
    Alcotest.test_case "compile and measure views compile once" `Quick
      test_views_compile_once;
    Alcotest.test_case "experiments job prepares once per context" `Quick
      test_experiments_prepare_once;
    Alcotest.test_case "golden request rows" `Quick test_golden_rows;
  ]
