(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (see DESIGN.md's per-experiment index), plus Bechamel
   micro-benchmarks of the toolchain itself.

     dune exec bench/main.exe            -- print every table/figure
     dune exec bench/main.exe -- --only table5 fig3
     dune exec bench/main.exe -- --micro -- also run micro-benchmarks
     dune exec bench/main.exe -- --synth 120  -- more Table I programs
     dune exec bench/main.exe -- --stats      -- unified counter table
                                   (engine caches + sanitizer + obs)
     dune exec bench/main.exe -- --sanitize   -- pass-boundary sanitizer
                                   on for every compile (counters show
                                   under --stats as sanitize/<pass>/...)
     dune exec bench/main.exe -- --json out.json  -- machine-readable
                                   timings + counter table
     dune exec bench/main.exe -- --jobs 4     -- engine worker pool
     dune exec bench/main.exe -- --trace out.json -- Chrome trace_event
                                   JSON of every span (chrome://tracing)
     dune exec bench/main.exe -- --profile    -- sorted self-time report
     dune exec bench/main.exe -- --cache-dir D -- persistent artifact
                                   store at D (default _cache/ or
                                   $DEBUGTUNER_CACHE); warm re-runs are
                                   near-instant and byte-identical
     dune exec bench/main.exe -- --no-cache   -- disable the store

   The shared switches (--stats/--json/--jobs/--sanitize/--trace/
   --profile/--cache-dir/--no-cache) are declared once in Util.Cliopts
   and mean the same thing under `debugtuner_cli`. The paper's tables
   and the ablations run on the experiment context's measurement engine;
   the serve and shard scenarios measure through API contexts of their
   own. Output is
   deterministic for a given --synth value, including under --jobs > 1
   (the engine's parallel reduction is ordered) and across cold/warm
   cache runs (only the bracketed timing lines vary). *)

module E = Debugtuner.Experiments

let timings : (string * float) list ref = ref []

let timed name f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  let dt = Unix.gettimeofday () -. t0 in
  timings := (name, dt) :: !timings;
  Printf.printf "[%s: %.1fs]\n\n%!" name dt;
  r

(* ------------------------------------------------------------------ *)
(* Service-mode scenario (DESIGN.md "Service mode & API"): in-process
   daemons on a scratch socket. The gate compares like with like: one
   client sends the same request (zlib gcc-O2 [Summary]) twice over one
   connection to a daemon with a fresh context, first cold (paying the
   compile) and then warm, [serve_samples] times. The two timing rows
   pushed here ("serve-cold-one-shot", "serve-warm-p50") are the
   medians of the two sides and feed compare.ml's serve gate: the warm
   request must be at least 10x faster than the cold one. Then 4
   concurrent clients x M rounds of a four-request mix run against one
   warm daemon, reported as a table row and a bracketed throughput
   line. The table is deterministic; latencies go on bracketed lines. *)

let serve_samples = 9

let serve_requests =
  let cfg = Debugtuner.Config.make Debugtuner.Config.Gcc Debugtuner.Config.O2 in
  let compile view =
    Api.Request.Compile
      {
        c_subject = Api.Request.Named "zlib";
        c_config = cfg;
        c_profile = None;
        c_sanitize = false;
        c_view = view;
      }
  in
  [
    compile Api.Request.Summary;
    Api.Request.Bench
      {
        b_subject = Api.Request.Named "zlib";
        b_config = cfg;
        b_action = Api.Request.Cost;
      };
    compile Api.Request.Passes;
    Api.Request.Stats { s_what = Api.Request.Suite };
  ]

let serve_scenario () =
  let socket =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "dt-bench-%d.sock" (Unix.getpid ()))
  in
  let with_daemon f =
    let server =
      Api_server.create ~queue_limit:32 ~socket (Api.create_ctx ())
    in
    let accept = Api_server.start server in
    Fun.protect
      ~finally:(fun () ->
        Api_server.stop server;
        Thread.join accept)
      f
  in
  let ok = function
    | Ok r -> r.Api.Response.status = Api.Response.Ok
    | Error _ -> false
  in
  let timed_rpc c req =
    let t0 = Unix.gettimeofday () in
    let r = Api_client.rpc c req in
    (ok r, Unix.gettimeofday () -. t0)
  in
  let req = List.hd serve_requests in
  let pairs =
    List.init serve_samples (fun _ ->
        with_daemon (fun () ->
            let c = Api_client.connect socket in
            let cold = timed_rpc c req in
            let warm = timed_rpc c req in
            Api_client.close c;
            (cold, warm)))
  in
  let median side = Util.Stats.median (List.map (fun p -> snd (side p)) pairs) in
  let count side = List.length (List.filter (fun p -> fst (side p)) pairs) in
  let cold_med = median fst and warm_med = median snd in
  timings := ("serve-cold-one-shot", cold_med) :: !timings;
  timings := ("serve-warm-p50", warm_med) :: !timings;
  Printf.printf
    "[serve: %d samples, cold median %.2fms, warm median %.3fms, ratio %.1fx]\n%!"
    serve_samples (cold_med *. 1000.0) (warm_med *. 1000.0)
    (if warm_med > 0.0 then cold_med /. warm_med else infinity);
  let n_clients = 4 and rounds = 8 in
  let per_round = List.length serve_requests in
  let lat = Array.init n_clients (fun _ -> Array.make (rounds * per_round) 0.0) in
  let okc = Array.make n_clients 0 in
  let wall =
    with_daemon (fun () ->
        ignore (Api_client.oneshot socket req);
        let w0 = Unix.gettimeofday () in
        let client i () =
          let c = Api_client.connect socket in
          let slot = ref 0 in
          for _ = 1 to rounds do
            List.iter
              (fun req ->
                let good, dt = timed_rpc c req in
                if good then okc.(i) <- okc.(i) + 1;
                lat.(i).(!slot) <- dt;
                incr slot)
              serve_requests
          done;
          Api_client.close c
        in
        let threads = List.init n_clients (fun i -> Thread.create (client i) ()) in
        List.iter Thread.join threads;
        Unix.gettimeofday () -. w0)
  in
  let all = Array.concat (Array.to_list lat) in
  Array.sort compare all;
  let pct q =
    let n = Array.length all in
    if n = 0 then 0.0 else all.(min (n - 1) (n * q / 100))
  in
  let total = n_clients * rounds * per_round in
  let warm_ok = Array.fold_left ( + ) 0 okc in
  Printf.printf
    "[serve mix: p50 %.2fms p99 %.2fms, %.0f req/s over %d requests]\n\n%!"
    (pct 50 *. 1000.0) (pct 99 *. 1000.0)
    (if wall > 0.0 then float_of_int total /. wall else 0.0)
    total;
  [
    Util.Tablefmt.make
      ~title:"Service mode: daemon under concurrent load (zlib, gcc-O2)"
      ~header:[ "phase"; "clients"; "requests"; "ok" ]
      [
        [
          "cold (fresh daemon)";
          "1";
          string_of_int serve_samples;
          string_of_int (count fst);
        ];
        [
          "warm (same request)";
          "1";
          string_of_int serve_samples;
          string_of_int (count snd);
        ];
        [
          "warm mixed";
          string_of_int n_clients;
          string_of_int total;
          string_of_int warm_ok;
        ];
      ];
  ]

(* ------------------------------------------------------------------ *)
(* VM core scenario (DESIGN.md "VM core"): the same hot kernel run
   under the reference interpreter and under the fast core, which
   dispatches with one [match] over pre-decoded instruction arrays. The
   cores are timed in [vm_rounds] rounds in this one process, each round
   timing [vm_per_round] runs of each core by CPU time, the core that
   goes first alternating, so load on the box moves both cores' times
   of a round together. The two timing rows pushed here ("vm-reference",
   "vm-fast") are the medians of the per-round times and feed
   compare.ml's vm gate: the fast core must be at least 5x faster. The
   table (cost / instrs / output checksum, byte-identical across cores)
   is deterministic; the times and the median per-round speedup with
   its quartiles go on a bracketed line. *)

(* A deliberately hot kernel (~350k executed instructions per run):
   per-run setup amortises away, so the row ratio measures the two
   dispatch loops themselves rather than frame/arena allocation. *)
let vm_hot_src =
  {|
int buf[64];

int mix(int a, int b) {
  int t = a * 31 + b;
  t = t ^ (t / 7);
  return t + (t % 13);
}

int main() {
  int i = 0;
  int acc = 1;
  while (i < 64) {
    buf[i] = i * 2654435761 + 17;
    i = i + 1;
  }
  int round = 0;
  while (round < 200) {
    i = 0;
    while (i < 64) {
      acc = mix(acc, buf[i]);
      buf[i] = acc;
      i = i + 1;
    }
    round = round + 1;
  }
  output(acc & 65535);
  return 0;
}
|}

let vm_rounds = 9
let vm_per_round = 3

let vm_scenario () =
  let ast = Minic.Typecheck.parse_and_check vm_hot_src in
  let bin =
    Debugtuner.Toolchain.compile ast
      ~config:(Debugtuner.Config.make Debugtuner.Config.Gcc Debugtuner.Config.O2)
      ~roots:[ "main" ]
  in
  let entry = "main" in
  let input = [] in
  let prog =
    try Vm.Decode.decode bin
    with Vm.Decode.Unsupported ->
      failwith "vm scenario: binary not supported by the fast core"
  in
  let run_ref () = Vm.Reference.run bin ~entry ~input Vm.default_opts in
  let run_fast () = Vm.Fast.run prog bin ~entry ~args:[] ~input Vm.default_opts in
  let r_ref = run_ref () and r_fast = run_fast () in
  let agree =
    r_ref.Vm.output = r_fast.Vm.output
    && r_ref.Vm.cost = r_fast.Vm.cost
    && r_ref.Vm.instrs = r_fast.Vm.instrs
  in
  let time f =
    let t0 = Sys.time () in
    for _ = 1 to vm_per_round do
      ignore (f ())
    done;
    Sys.time () -. t0
  in
  let rounds =
    List.init vm_rounds (fun r ->
        if r mod 2 = 0 then
          let dt_ref = time run_ref in
          (dt_ref, time run_fast)
        else
          let dt_fast = time run_fast in
          (time run_ref, dt_fast))
  in
  let dt_ref = Util.Stats.median (List.map fst rounds) in
  let dt_fast = Util.Stats.median (List.map snd rounds) in
  timings := ("vm-reference", dt_ref) :: !timings;
  timings := ("vm-fast", dt_fast) :: !timings;
  let speedups =
    Array.of_list
      (List.sort compare
         (List.map
            (fun (r, f) -> if f > 0.0 then r /. f else infinity)
            rounds))
  in
  let quartile q = speedups.(q * (vm_rounds - 1) / 4) in
  Printf.printf
    "[vm: reference %.4fs, fast %.4fs CPU per %d runs (medians of %d \
     rounds), speedup %.1fx [%.1f, %.1f]]\n\n%!"
    dt_ref dt_fast vm_per_round vm_rounds (quartile 2) (quartile 1)
    (quartile 3);
  let checksum r =
    List.fold_left (fun a v -> (a * 31) + v) (List.length r.Vm.output) r.Vm.output
  in
  let row core (r : Vm.result) =
    [
      core;
      string_of_int r.Vm.cost;
      string_of_int r.Vm.instrs;
      string_of_int (checksum r);
      (if agree then "yes" else "NO");
    ]
  in
  [
    Util.Tablefmt.make
      ~title:"VM cores: hot mix kernel, gcc-O2 (identical results)"
      ~header:[ "core"; "cost"; "instrs"; "output checksum"; "agree" ]
      [ row "reference" r_ref; row "fast" r_fast ];
  ]

(* ------------------------------------------------------------------ *)
(* Sharded corpus scenario (DESIGN.md "Sharded execution"): the same
   corpus experiment run as 1, 2 and 4 single-shard worker *processes*
   (this binary re-exec'd with --shard-worker), each writing a JSON
   partial that the parent merges through Api.Request.Merge. Workers
   run one at a time and each is timed alone: the recorded row for a
   phase is the *slowest shard's own wall clock* — the phase's critical
   path, which is what a deployment with one core per worker pays.
   Timing n concurrent processes here would measure the CI machine's
   core count, not the sharding; the critical path gates exactly the
   property this code controls (balanced slices, no duplicated work).
   The three timing rows ("shard-1-proc", "shard-2-proc",
   "shard-4-proc") feed compare.ml's shard gate (2 processes at least
   1.5x faster than 1). Each phase gets its own store directory — under
   --cache-dir when given (so a warm re-run resumes every phase from
   disk), else a scratch dir removed at the end — and the merged tables
   of all three phases must be byte-identical, which the scenario
   itself asserts. *)

let shard_seed = 7
let shard_corpus = 96

let shard_configs =
  [
    Debugtuner.Config.make Debugtuner.Config.Gcc Debugtuner.Config.O2;
    Debugtuner.Config.make Debugtuner.Config.Clang Debugtuner.Config.O1;
  ]

(* Set from --cache-dir before the scenarios run; None = scratch. *)
let shard_store_base : string option ref = ref None

let shard_worker_main spec dir =
  (match Util.Cliopts.parse_shard spec with
  | Error msg ->
      prerr_endline ("shard worker: " ^ msg);
      exit 2
  | Ok shard -> (
      let store =
        Debugtuner.Measure_engine.open_store
          ~dir:(Filename.concat dir "store") ()
      in
      let job =
        Api.Job.make ~configs:shard_configs ~seed:shard_seed
          ~corpus:shard_corpus ~shard ()
      in
      match
        Api.execute (Api.create_ctx ~store ())
          (Api.Request.Experiments { e_job = job })
      with
      | {
       Api.Response.status = Api.Response.Ok;
       data = Api.Response.D_partial p;
       _;
      } ->
          let i, n = shard in
          let file =
            Filename.concat dir (Printf.sprintf "shard-%d-of-%d.json" i n)
          in
          let oc = open_out file in
          output_string oc (Api.partial_to_json p);
          output_char oc '\n';
          close_out oc
      | { Api.Response.text; _ } ->
          prerr_endline ("shard worker: " ^ text);
          exit 1));
  exit 0

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      try Sys.rmdir path with Sys_error _ -> ()
    end
    else try Sys.remove path with Sys_error _ -> ()

let mkdir_p dir =
  try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()

let shard_scenario () =
  let base, scratch =
    match !shard_store_base with
    | Some d ->
        mkdir_p d;
        (d, false)
    | None ->
        let d =
          Filename.concat
            (Filename.get_temp_dir_name ())
            (Printf.sprintf "dt-bench-shard-%d" (Unix.getpid ()))
        in
        mkdir_p d;
        (d, true)
  in
  let exe = Sys.executable_name in
  let run_worker dir spec =
    flush stdout;
    let pid =
      Unix.create_process exe
        [| exe; "--shard-worker"; spec; dir |]
        Unix.stdin Unix.stdout Unix.stderr
    in
    match Unix.waitpid [] pid with
    | _, Unix.WEXITED 0 -> ()
    | _ -> failwith ("shard scenario: worker " ^ spec ^ " failed")
  in
  let phase n =
    let dir = Filename.concat base (Printf.sprintf "shard-phase-%d" n) in
    mkdir_p dir;
    let slowest = ref 0.0 in
    for i = 1 to n do
      let t0 = Unix.gettimeofday () in
      run_worker dir (Printf.sprintf "%d/%d" i n);
      slowest := Float.max !slowest (Unix.gettimeofday () -. t0)
    done;
    let partials =
      List.init n (fun k ->
          let file =
            Filename.concat dir
              (Printf.sprintf "shard-%d-of-%d.json" (k + 1) n)
          in
          let ic = open_in_bin file in
          let s = really_input_string ic (in_channel_length ic) in
          close_in ic;
          match Api.partial_of_json s with
          | Ok p -> p
          | Error e -> failwith ("shard scenario: bad partial " ^ file ^ ": " ^ e))
    in
    let merged =
      Api.execute (Api.create_ctx ())
        (Api.Request.Merge { m_partials = partials })
    in
    (match merged.Api.Response.status with
    | Api.Response.Ok -> ()
    | _ -> failwith ("shard scenario: merge failed: " ^ merged.Api.Response.text));
    let programs =
      List.fold_left (fun a p -> a + p.Api.Partial.pt_programs) 0 partials
    in
    let rows =
      List.fold_left (fun a p -> a + List.length p.Api.Partial.pt_rows) 0 partials
    in
    (!slowest, programs, rows, merged.Api.Response.text)
  in
  let t1, pr1, rw1, text1 = phase 1 in
  let t2, pr2, rw2, text2 = phase 2 in
  let t4, pr4, rw4, text4 = phase 4 in
  timings := ("shard-1-proc", t1) :: !timings;
  timings := ("shard-2-proc", t2) :: !timings;
  timings := ("shard-4-proc", t4) :: !timings;
  if scratch then rm_rf base;
  let identical = text1 = text2 && text2 = text4 in
  Printf.printf
    "[shard: 1-proc %.3fs, 2-proc critical path %.3fs (%.1fx), 4-proc %.3fs (%.1fx)]\n\n%!"
    t1 t2
    (if t2 > 0.0 then t1 /. t2 else infinity)
    t4
    (if t4 > 0.0 then t1 /. t4 else infinity);
  if not identical then
    failwith "shard scenario: merged tables differ across shard counts";
  print_string text1;
  let row n pr rw =
    [
      string_of_int n;
      string_of_int pr;
      string_of_int rw;
      (if identical then "yes" else "NO");
    ]
  in
  [
    Util.Tablefmt.make
      ~title:
        (Printf.sprintf
           "Sharded execution: corpus n=%d, seed %d, merged from JSON partials"
           shard_corpus shard_seed)
      ~header:[ "processes"; "programs"; "rows"; "merge identical" ]
      [ row 1 pr1 rw1; row 2 pr2 rw2; row 4 pr4 rw4 ];
  ]

let experiments ctx : (string * (unit -> Util.Tablefmt.t list)) list =
  [
    ("table1", fun () -> [ E.table1 ctx ]);
    ("table2", fun () -> [ E.table2 ctx ]);
    ("table3", fun () -> [ E.table3 ctx ]);
    ("table4", fun () -> [ E.table4 ctx ]);
    ("table5", fun () -> [ E.table5 ctx ]);
    ("table6", fun () -> [ E.table6 ctx ]);
    ("table7", fun () -> [ E.table7 ctx ]);
    ( "fig2",
      fun () ->
        print_string (E.fig2_scatter ctx);
        print_newline ();
        [ E.fig2 ctx ] );
    ( "table8",
      fun () ->
        let top, bottom = E.table8 ctx in
        [ top; bottom ] );
    ("table9", fun () -> [ E.table9 ctx ]);
    ("table10", fun () -> [ E.table10 ctx ]);
    ("table11", fun () -> [ E.table11 ctx ]);
    ("table12", fun () -> [ E.table12 ctx ]);
    ( "table13",
      fun () ->
        let t13, _ = E.table13_14 ctx in
        [ t13 ] );
    ( "table14",
      fun () ->
        let _, t14 = E.table13_14 ctx in
        [ t14 ] );
    ( "fig3",
      fun () ->
        let f3, _ = E.fig3_table15 ctx in
        [ f3 ] );
    ( "table15",
      fun () ->
        let _, t15 = E.fig3_table15 ctx in
        [ t15 ] );
    ("fig4", fun () -> [ E.fig4 ctx ]);
    ( "ablations",
      fun () ->
        let cfg = Debugtuner.Config.make Debugtuner.Config.Gcc Debugtuner.Config.O2 in
        let suite = E.suite ctx and engine = E.engine ctx in
        [
          Debugtuner.Ablations.breakpoint_policy ~engine suite cfg;
          Debugtuner.Ablations.entry_values suite cfg;
          Debugtuner.Ablations.ranking_metric ~engine suite cfg;
          Debugtuner.Ablations.scheduler_lines suite cfg;
        ] );
    ( "ranking",
      (* The Section V pass sweep in isolation: one full Ranking.rank of
         gcc-O2 over the suite — the cost driver the pass-prefix cache
         targets. *)
      fun () ->
        let cfg =
          Debugtuner.Config.make Debugtuner.Config.Gcc Debugtuner.Config.O2
        in
        let lr = E.ranking ctx cfg in
        let rows =
          List.mapi
            (fun i (e : Debugtuner.Ranking.pass_effect) ->
              [
                string_of_int (i + 1);
                e.Debugtuner.Ranking.pe_pass;
                Printf.sprintf "%.2f" e.Debugtuner.Ranking.pe_avg_rank;
                Printf.sprintf "%.2f"
                  e.Debugtuner.Ranking.pe_geo_increment_pct;
              ])
            (Debugtuner.Ranking.top_passes lr)
        in
        [
          Util.Tablefmt.make
            ~title:"Ranking sweep: top-10 critical passes, gcc-O2"
            ~header:[ "#"; "pass"; "avg rank"; "+%" ]
            rows;
        ] );
    ("clang-og", fun () -> [ E.clang_og_table ctx ]);
    ("per-program", fun () -> [ E.per_program_table ctx ]);
    ("dwarf-sizes", fun () -> [ E.dwarf_sizes_table ctx ]);
    ("autofdo-rounds", fun () -> [ E.autofdo_rounds_table ctx ]);
    ( "search",
      (* ROADMAP item 2: the search layer's experiment — the hill-climb
         front at the pinned (budget, seed) vs the greedy gcc-O2-dy
         points. Bumps search/greedy_total, search/greedy_dominated and
         search/margin_ppm, which compare.ml's dominance gate reads from
         the cold-run JSON counter table. *)
      fun () -> [ E.search_front_table ctx ] );
    ("serve", fun () -> serve_scenario ());
    ("vm", fun () -> vm_scenario ());
    ("shard", fun () -> shard_scenario ());
  ]

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks of the toolchain                          *)

let micro_tests () =
  let open Bechamel in
  let libpng = Programs.find "libpng" in
  let src = libpng.Suite_types.p_source in
  let ast = Minic.Typecheck.parse_and_check src in
  let roots = Suite_types.roots libpng in
  let compile comp lvl () =
    ignore
      (Debugtuner.Toolchain.compile ast
         ~config:(Debugtuner.Config.make comp lvl)
         ~roots)
  in
  let bin =
    Debugtuner.Toolchain.compile ast
      ~config:(Debugtuner.Config.make Debugtuner.Config.Gcc Debugtuner.Config.O2)
      ~roots
  in
  (* Loaded outside the staged closures, so the cases time execution. *)
  let prog = Vm.load bin in
  [
    Test.make ~name:"parse+check libpng"
      (Staged.stage (fun () -> ignore (Minic.Typecheck.parse_and_check src)));
    Test.make ~name:"compile gcc-O0"
      (Staged.stage (compile Debugtuner.Config.Gcc Debugtuner.Config.O0));
    Test.make ~name:"compile gcc-O2"
      (Staged.stage (compile Debugtuner.Config.Gcc Debugtuner.Config.O2));
    Test.make ~name:"compile clang-O2"
      (Staged.stage (compile Debugtuner.Config.Clang Debugtuner.Config.O2));
    Test.make ~name:"vm run libpng/defilter"
      (Staged.stage (fun () ->
           ignore
             (Vm.exec prog ~entry:"fuzz_defilter"
                ~input:[ 2; 0; 10; 20; 30; 40; 1; 5; 5; 5; 5 ]
                Vm.default_opts)));
    Test.make ~name:"debugger trace libpng"
      (Staged.stage (fun () ->
           ignore
             (Debugger.trace prog ~entry:"fuzz_defilter"
                ~inputs:[ [ 2; 0; 10; 20; 30; 40; 1; 5 ] ])));
  ]

let run_micro () =
  let open Bechamel in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg =
    Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.6) ~kde:(Some 100) ()
  in
  let grouped = Test.make_grouped ~name:"toolchain" (micro_tests ()) in
  let raw = Benchmark.all cfg [ instance ] grouped in
  let results = Analyze.all ols instance raw in
  print_endline "== Micro-benchmarks (Bechamel, monotonic clock) ==";
  Hashtbl.iter
    (fun name ols ->
      match Analyze.OLS.estimates ols with
      | Some [ est ] -> Printf.printf "%-40s %12.1f ns/run\n" name est
      | _ -> Printf.printf "%-40s (no estimate)\n" name)
    results;
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Unified counter table and machine-readable output                   *)

(* One stats path: engine caches, sanitizer boundaries and obs counters
   all flow through Measure_engine.stats_table and render with the
   shared Util.Cliopts key/value formatters, text and JSON alike. *)
let counter_table ctx =
  Debugtuner.Measure_engine.stats_table (E.engine ctx)

let print_stats ctx =
  print_endline "== Counters (engine caches / sanitizer / obs) ==";
  List.iter print_endline (Util.Cliopts.kv_lines (counter_table ctx));
  print_newline ()

(* Laid out by hand (flat, one row per line, which ci.sh greps);
   strings escaped through Util.Json. *)
let write_json file ctx ~synth ~workers =
  let b = Buffer.create 1024 in
  let timing_fields =
    List.rev_map
      (fun (name, dt) ->
        Printf.sprintf "    {\"name\": \"%s\", \"seconds\": %.6f}"
          (Util.Json.escape name) dt)
      !timings
  in
  let stat_fields =
    List.map (fun row -> "    " ^ row)
      (Util.Cliopts.kv_json_rows (counter_table ctx))
  in
  Buffer.add_string b "{\n";
  Buffer.add_string b (Printf.sprintf "  \"synth\": %d,\n" synth);
  Buffer.add_string b (Printf.sprintf "  \"workers\": %d,\n" workers);
  Buffer.add_string b
    (Printf.sprintf "  \"total_seconds\": %.3f,\n"
       (List.fold_left (fun a (_, dt) -> a +. dt) 0.0 !timings));
  Buffer.add_string b "  \"timings\": [\n";
  Buffer.add_string b (String.concat ",\n" timing_fields);
  Buffer.add_string b "\n  ],\n";
  Buffer.add_string b "  \"stats\": [\n";
  Buffer.add_string b (String.concat ",\n" stat_fields);
  Buffer.add_string b "\n  ]\n}\n";
  let oc = open_out file in
  output_string oc (Buffer.contents b);
  close_out oc;
  Printf.printf "[timings + counter table written to %s]\n%!" file

let () =
  (* Child mode of the shard scenario: run one shard of the corpus and
     write its JSON partial. Intercepted before normal option parsing —
     a worker is not a harness run. *)
  (match Sys.argv with
  | [| _; "--shard-worker"; spec; dir |] -> shard_worker_main spec dir
  | _ -> ());
  let common = Util.Cliopts.defaults () in
  let rest = Util.Cliopts.parse common (List.tl (Array.to_list Sys.argv)) in
  let rec parse only micro synth = function
    | [] -> (only, micro, synth)
    | "--only" :: rest ->
        let names, rest' =
          let rec take acc = function
            | x :: r when String.length x < 2 || String.sub x 0 2 <> "--" ->
                take (x :: acc) r
            | r -> (List.rev acc, r)
          in
          take [] rest
        in
        parse (only @ names) micro synth rest'
    | "--micro" :: rest -> parse only true synth rest
    | "--synth" :: n :: rest -> parse only micro (int_of_string n) rest
    | _ :: rest -> parse only micro synth rest
  in
  let only, micro, synth = parse [] false 40 rest in
  let jobs = common.Util.Cliopts.c_jobs in
  if common.Util.Cliopts.c_sanitize then Sanitize.enabled := true;
  if common.Util.Cliopts.c_trace <> None || common.Util.Cliopts.c_profile then
    Obs.start ();
  (* The persistent artifact store is on by default (default _cache/, or
     $DEBUGTUNER_CACHE, or --cache-dir): a warm re-run serves compiles,
     metrics and even suite preparation from disk and stays
     byte-identical to a cold one. --no-cache opts out. *)
  let store =
    if common.Util.Cliopts.c_no_cache then None
    else
      Some
        (Debugtuner.Measure_engine.open_store
           ?dir:common.Util.Cliopts.c_cache_dir ())
  in
  (* The shard scenario anchors its per-phase store directories under an
     explicit --cache-dir (warm re-runs then resume every phase from
     disk); with no explicit dir it works in scratch space. *)
  shard_store_base := common.Util.Cliopts.c_cache_dir;
  Printf.printf
    "DebugTuner benchmark harness (deterministic; synth=%d; jobs=%d)\n\n%!"
    synth jobs;
  let ctx =
    timed "prepare suite" (fun () ->
        E.create ~synth_count:synth ~workers:jobs ?store ())
  in
  let selected =
    match only with
    | [] -> experiments ctx
    | names -> List.filter (fun (n, _) -> List.mem n names) (experiments ctx)
  in
  List.iter
    (fun (name, build) ->
      let tables = timed name build in
      List.iter
        (fun t ->
          Util.Tablefmt.print t;
          print_newline ())
        tables)
    selected;
  if micro then run_micro ();
  if common.Util.Cliopts.c_stats then print_stats ctx;
  (match common.Util.Cliopts.c_json with
  | Some file -> write_json file ctx ~synth ~workers:jobs
  | None -> ());
  match Obs.stop () with
  | None -> ()
  | Some session ->
      if common.Util.Cliopts.c_profile then
        print_string (Obs.self_time_report session);
      (match common.Util.Cliopts.c_trace with
      | Some file ->
          let oc = open_out file in
          output_string oc (Obs.to_chrome_json session);
          close_out oc;
          Printf.printf "[trace written to %s (%d events)]\n%!" file
            (List.length (Obs.events session))
      | None -> ())
