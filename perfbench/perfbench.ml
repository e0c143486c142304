(* perfbench: the measuring half of the repository benchmark (run.py is
   the orchestrating half). Each mode is one process; its last stdout
   line is "RESULT <json>", which run.py aggregates.

     batch        one cold corpus-cold or search request through Api.execute
     serve-setup  populate a store for serve-mixed (the daemon's past)
     serve-run    the serve-mixed client: set-up requests, then the fixed-rate
                  open loop and the rate ramp against a running daemon
     serve-check  replay the logged serve-mixed requests on a twin context
     replay       a traced run's layer replay, cold, before the traced job
     tail         the median and the tail (Stat.tail) of the numbers given

   With --trace 1 a mode also records spans around the calls it makes
   into each layer and reports the per-layer rows (README.md). *)

open Perfbench_stat
module J = Api_json
module C = Debugtuner.Config
module ME = Debugtuner.Measure_engine
module Ev = Debugtuner.Evaluation
module Tc = Debugtuner.Toolchain
module Tn = Debugtuner.Tuning
module Ex = Debugtuner.Experiments
module R = Api.Request

let nproc = Domain.recommended_domain_count ()
let now = Unix.gettimeofday

(* ------------------------------------------------------------------ *)
(* Command line: "perfbench MODE --key value ..."                       *)

let mode = if Array.length Sys.argv > 1 then Sys.argv.(1) else ""

let opts =
  let t = Hashtbl.create 16 in
  let rec go i =
    if i + 1 < Array.length Sys.argv then begin
      Hashtbl.replace t Sys.argv.(i) Sys.argv.(i + 1);
      go (i + 2)
    end
  in
  go 2;
  t

let opt k d = Option.value ~default:d (Hashtbl.find_opt opts ("--" ^ k))
let opt_int k d = int_of_string (opt k (string_of_int d))
let opt_float k d = float_of_string (opt k (string_of_float d))
let traced = opt "trace" "0" = "1"
let seed = opt_int "seed" 1

let result fields =
  print_string ("RESULT " ^ J.to_string (J.Obj fields) ^ "\n");
  flush stdout

let num f = if Float.is_finite f then J.Num f else J.Null
let int i = J.Num (float_of_int i)

let peak_rss_kb ?(pid = "self") () =
  match open_in ("/proc/" ^ pid ^ "/status") with
  | exception Sys_error _ -> 0
  | ic ->
      let rec go () =
        match input_line ic with
        | l when String.starts_with ~prefix:"VmHWM:" l ->
            Scanf.sscanf l "VmHWM: %d kB" Fun.id
        | _ -> go ()
        | exception End_of_file -> 0
      in
      let kb = go () in
      close_in ic;
      kb

let digest s = Digest.to_hex (Digest.string s)

(* Spans only in traced runs: the untraced runs that give the
   end-to-end numbers carry no tracing at all. *)
let span name f = if traced then Spans.wrap name f else f ()

(* Seeded Fisher-Yates shuffle. *)
let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Util.Rng.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

let row rows name = Option.value ~default:0 (List.assoc_opt name rows)

(* Store hits in a run whose store started empty. The decoded-program
   cache is exempt: Vm.Decode drops its whole in-memory table once it
   holds more than 192 programs, and a later run of an evicted binary
   reads back the entry this same run persisted - a hit on the run's own
   write, not state from an earlier run. *)
let decode_hits = "store/vm-decode/hits"

let store_hits rows =
  List.fold_left
    (fun acc (n, v) ->
      if String.starts_with ~prefix:"store/" n
         && String.ends_with ~suffix:"/hits" n
         && n <> decode_hits
      then acc + v
      else acc)
    0 rows

let add_rows a b =
  List.fold_left
    (fun acc (n, v) ->
      (n, v + row acc n) :: List.remove_assoc n acc)
    a b

(* ------------------------------------------------------------------ *)
(* Output check: the differential oracle on a seeded sample of pairs    *)

(* Each sampled (program, config) pair is compiled with the sanitizer on
   and run on the VM for every seed input of its first harness; the
   output must equal the MiniC source interpreter's. Returns (pairs
   attempted, pairs failed). *)
let oracle_check ~k (pairs : (Suite_types.sprogram * C.t) array) =
  let picks = shuffle (Util.Rng.create (seed * 7919)) (Array.copy pairs) in
  let picks = Array.sub picks 0 (min k (Array.length picks)) in
  Array.fold_left
    (fun (att, bad) ((p : Suite_types.sprogram), cfg) ->
      let ast = Suite_types.ast p and roots = Suite_types.roots p in
      let h = List.hd p.Suite_types.p_harnesses in
      let entry = h.Suite_types.h_entry in
      let inputs = if h.Suite_types.h_seeds = [] then [ [] ] else h.Suite_types.h_seeds in
      let wrong =
        List.exists
          (fun input ->
            match Diff_oracle.reference ast ~entry ~input with
            | None -> false
            | Some expected ->
                Diff_oracle.run_one ast ~roots ~entry ~input cfg ~expected
                <> None)
          inputs
      in
      if wrong then
        Printf.eprintf "perfbench: oracle mismatch on %s at %s\n%!"
          p.Suite_types.p_name (C.name cfg);
      (att + 1, if wrong then bad + 1 else bad))
    (0, 0) picks

(* ------------------------------------------------------------------ *)
(* Layer spans (traced runs only)                                       *)

(* Span names the per-layer rows are summed from. *)
let compile_instrument () =
  let last = ref (now ()) and phase = ref "" in
  {
    Instrument.on_phase_start =
      (fun name ->
        phase := name;
        Spans.open_ ("phase." ^ name);
        last := now ());
    on_phase_end = (fun _ -> Spans.close ());
    on_pass =
      (fun name _ ->
        let t = now () in
        (match (!phase, name) with
        | "ir", ("lower" | "mem2reg") -> Spans.record ("ir." ^ name) !last t
        | "ir", _ -> Spans.record "passes" !last t
        | "backend", "isel" -> Spans.record "backend.isel" t t
        | _ -> ());
        last := t);
  }

let install_io_spans () =
  Engine.Disk_store.set_io_wrap
    (Some
       {
         Engine.Disk_store.wrap =
           (fun name _ f ->
             match name with
             | "store:get" -> Spans.wrap "store.get" f
             | "store:put" -> Spans.wrap "store.put" f
             | _ -> f ());
       })

let vm_run bin ~entry ~input =
  Spans.wrap "vm" (fun () ->
      let r = Vm.run bin ~entry ~input Vm.default_opts in
      Spans.count "vm.instrs" r.Vm.instrs)

let parse (p : Suite_types.sprogram) =
  Spans.wrap "minic.parse" (fun () ->
      ignore (Minic.Typecheck.parse_and_check p.Suite_types.p_source))

let compile_traced ast ~config ~roots =
  Spans.wrap "compile" (fun () ->
      Tc.compile ~instrument:(compile_instrument ()) ast ~config ~roots)

(* One prepared program through the layer functions at each config, as
   the engine's measure tier issues them: compile, then trace and
   metrics once per distinct binary. The debugger runs the binary first,
   so it pays the decode into the fast VM core, as it does in the job.
   The plain VM runs over the corpus inputs that follow are extra work
   the engine does not do; they sit under a separate "vm-replay" span so
   they are kept out of the coverage sums. *)
let replay_measure (pr : Ev.prepared) configs =
  let seen = Hashtbl.create 8 in
  List.iter
    (fun config ->
      let bin = compile_traced pr.Ev.ast ~config ~roots:pr.Ev.roots in
      if not (Hashtbl.mem seen bin.Emit.full_digest) then begin
        Hashtbl.add seen bin.Emit.full_digest ();
        let tr = Spans.wrap "debugger" (fun () -> Ev.trace_config_bin pr bin) in
        ignore (Spans.wrap "metrics" (fun () -> Ev.metrics_of_trace pr bin tr))
      end;
      Spans.wrap "vm-replay" (fun () ->
          List.iter
            (fun (hc : Ev.harness_corpus) ->
              List.iter
                (fun input ->
                  vm_run bin ~entry:hc.Ev.hc_harness.Suite_types.h_entry ~input)
                hc.Ev.hc_inputs)
            pr.Ev.corpora))
    configs

(* A SPEC program at a config, as the cost tier issues it. *)
let replay_cost (p : Suite_types.sprogram) config =
  let bin =
    compile_traced (Suite_types.ast p) ~config ~roots:(Suite_types.roots p)
  in
  Spans.wrap "vm-replay" (fun () ->
      List.iter
        (fun (h : Suite_types.harness) ->
          List.iter
            (fun input -> vm_run bin ~entry:h.Suite_types.h_entry ~input)
            (if h.Suite_types.h_seeds = [] then [ [] ] else h.Suite_types.h_seeds))
        p.Suite_types.p_harnesses)

(* Per-layer rows from the recorded spans: for each name, the call count
   and the summed self time. *)
let span_table () =
  let t = Hashtbl.create 32 in
  List.iter
    (fun ((s : Stat.span), self) ->
      let c, x = Option.value ~default:(0, 0.) (Hashtbl.find_opt t s.Stat.s_name) in
      Hashtbl.replace t s.Stat.s_name (c + 1, x +. self))
    (Stat.self_times (Spans.all ()));
  t

let layer_rows ~rows ~traced_wall ~untraced_wall ~covered_names extra =
  let t = span_table () in
  let calls n = fst (Option.value ~default:(0, 0.) (Hashtbl.find_opt t n)) in
  let self n = snd (Option.value ~default:(0, 0.) (Hashtbl.find_opt t n)) in
  let eng cache field = row rows ("engine/" ^ cache ^ "/" ^ field) in
  let prefix f = row rows ("prefix/" ^ f) in
  let store_sum field =
    List.fold_left
      (fun acc (n, v) ->
        if String.starts_with ~prefix:"store/" n
           && List.exists (fun f -> String.ends_with ~suffix:("/" ^ f) n) field
        then acc + v
        else acc)
      0 rows
  in
  let covered = List.fold_left (fun acc n -> acc +. self n) 0. covered_names in
  [
    ("fuzz.prepare.calls", int (calls "fuzz.prepare"));
    ("fuzz.prepare.s", num (self "fuzz.prepare"));
    ("minic.parse.calls", int (calls "minic.parse"));
    ("minic.parse.s", num (self "minic.parse"));
    ("ir.lower.s", num (self "ir.lower"));
    ("ir.mem2reg.calls", int (calls "ir.mem2reg"));
    ("ir.mem2reg.s", num (self "ir.mem2reg"));
    ("passes.runs", int (calls "passes"));
    ("passes.s", num (self "passes"));
    ("backend.isel.calls", int (calls "backend.isel"));
    ("backend.s", num (self "phase.backend"));
    ("emit.calls", int (calls "phase.emit"));
    ("emit.s", num (self "phase.emit"));
    ("vm.runs", int (calls "vm"));
    ("vm.instrs", int (Spans.counted "vm.instrs"));
    ("vm.s", num (self "vm"));
    ("debugger.traces", int (calls "debugger"));
    ("debugger.s", num (self "debugger"));
    ("metrics.calls", int (calls "metrics"));
    ("metrics.s", num (self "metrics"));
    ("core.rank.s", num (self "core.rank"));
    ("core.o0_costs.s", num (self "core.o0_costs"));
    ("core.search.s", num (self "core.search"));
    ("engine.compile.hits", int (eng "compile" "hits"));
    ("engine.compile.misses", int (eng "compile" "misses"));
    ("engine.measure.hits", int (eng "measure" "hits"));
    ("engine.measure.misses", int (eng "measure" "misses"));
    ("engine.measure.dedups", int (eng "measure" "dedups"));
    ("engine.bench_cost.hits", int (eng "bench-cost" "hits"));
    ("engine.bench_cost.misses", int (eng "bench-cost" "misses"));
    ("engine.prefix.hits", int (prefix "hits"));
    ("engine.prefix.misses", int (prefix "misses"));
    ("engine.prefix.merged", int (prefix "merged"));
    ("engine.prefix.passes_skipped", int (prefix "passes_skipped"));
    ("engine.prefix.snapshot_bytes", int (prefix "snapshot_bytes"));
    ("store.hits", int (store_sum [ "hits" ]));
    ("store.misses", int (store_sum [ "misses" ]));
    ("store.writes", int (store_sum [ "writes" ]));
    ("store.failed", int (store_sum [ "corrupt"; "stale" ]));
    ("store.get.s", num (self "store.get"));
    ("store.put.s", num (self "store.put"));
    ("trace.traced_wall_s", num traced_wall);
    ("trace.untraced_wall_s", num untraced_wall);
    ( "trace.unattributed_share",
      num ((untraced_wall -. covered) /. untraced_wall) );
  ]
  @ extra

let api_classes = [ "hit"; "disk"; "fresh"; "measure"; "stats" ]

(* The serve-only rows, zero where a workload sends no requests. *)
let api_rows ?(encode = 0.) ?(decode = 0.) ?(per_class = fun _ _ -> 0.)
    ?(failed = 0) ?(late_ms = 0.) ?(backlog = 0) () =
  [ ("api.encode.s", num encode); ("api.decode.s", num decode) ]
  @ List.concat_map
      (fun what ->
        List.map
          (fun c -> (Printf.sprintf "api.%s.%s" what c, num (per_class what c)))
          api_classes)
      [ "rtt_ms"; "execute_ms"; "wait_ms" ]
  @ [
      ("api.failed", int failed);
      ("gen.late_ms", num late_ms);
      ("gen.backlog_max", int backlog);
    ]

(* ------------------------------------------------------------------ *)
(* Batch workloads: corpus-cold and search                              *)

let base = C.make C.Gcc C.O2

let search_request ~budget =
  R.Search
    {
      se_config = base;
      se_strategy = Tn.Hill_climb;
      se_budget = budget;
      se_seed = seed;
      se_debug_weight = 1.0;
      se_speed_weight = 1.0;
    }

let frontier_configs (artifact : string option) =
  match artifact with
  | None -> []
  | Some doc -> (
      match J.field "frontier" (J.parse doc) with
      | Some (J.Arr pts) ->
          List.filter_map
            (fun pt -> Option.map Api.Codec.config_of_json (J.field "config" pt))
            pts
      | _ -> [])

(* Total duration of the spans named [name]. *)
let span_wall name =
  List.fold_left
    (fun acc (s : Stat.span) ->
      if s.Stat.s_name = name then acc +. (s.Stat.s_stop -. s.Stat.s_start)
      else acc)
    0. (Spans.all ())

(* Where a traced run keeps its spans: the layer replay writes them, the
   process after it loads them, adds its own and writes them all back. *)
let spans_file = "spans.jsonl"

let batch () =
  let workload = opt "workload" "" and size = opt_int "size" 48 in
  let dir = opt "store" "" in
  if traced then Spans.load spans_file;
  (* no --store: no store at all; otherwise a fresh directory every
     run (mkdir fails if it already exists) *)
  let store =
    if dir = "" then None
    else begin
      Unix.mkdir dir 0o755;
      Some (ME.open_store ~dir ())
    end
  in
  (* the engine at its default single worker *)
  let ctx = Api.create_ctx ?store () in
  if traced then install_io_spans ();
  let req =
    match workload with
    | "corpus-cold" ->
        R.Experiments { e_job = Api.Job.make ~seed ~corpus:size () }
    | "search" ->
        List.iter
          (fun p ->
            if traced then parse p;
            ignore (span "fuzz.prepare" (fun () -> Api.prepared_of ctx p)))
          Programs.all;
        search_request ~budget:size
    | w -> failwith ("unknown workload " ^ w)
  in
  let ready = now () in
  let resp, mirrored_rows =
    if traced && workload = "search" then begin
      (* the three core calls Api's search issues, bracketed one by one *)
      let sink = ME.create_request_sink () in
      let prepared = Api.prepared_suite ctx in
      let eng = ctx.Api.engine in
      ME.with_request_sink sink (fun () ->
          let lr =
            Spans.wrap "core.rank" (fun () ->
                Debugtuner.Ranking.rank ~engine:eng prepared base)
          in
          let seeds = List.map (fun y -> Tn.dy_config lr ~y) [ 3; 5; 7; 9 ] in
          let o0_costs =
            Spans.wrap "core.o0_costs" (fun () ->
                Tn.o0_costs ~engine:eng Spec.all)
          in
          let opts =
            {
              Tn.so_strategy = Tn.Hill_climb;
              so_budget = size;
              so_seed = seed;
              so_debug_weight = 1.0;
              so_speed_weight = 1.0;
              so_seeds = seeds;
            }
          in
          ignore
            (Spans.wrap "core.search" (fun () ->
                 Tn.search ~engine:eng prepared ~o0_costs Spec.all ~base ~opts)));
      let wall = now () -. ready in
      (* the response itself, served warm from the memo tables *)
      Engine.Disk_store.set_io_wrap None;
      (Api.execute ctx req, Some (wall, ME.request_sink_rows sink))
    end
    else
      (span "job" (fun () -> Api.execute ctx req), None)
  in
  let wall = match mirrored_rows with Some (w, _) -> w | None -> now () -. ready in
  let rss = peak_rss_kb () in
  let ok = resp.Api.Response.status = Api.Response.Ok in
  let rows =
    match mirrored_rows with Some (_, r) -> r | None -> resp.Api.Response.stats
  in
  let hits = store_hits rows in
  let items, pairs =
    match workload with
    | "corpus-cold" ->
        let configs = Ex.all_standard_configs in
        ( size * List.length configs,
          Array.of_list
            (List.concat_map
               (fun (e : Corpus.entry) ->
                 List.map (fun c -> (e.Corpus.e_program, c)) configs)
               (Corpus.generate ~seed ~n:size)) )
    | _ ->
        let evaluated =
          match resp.Api.Response.data with
          | Api.Response.D_frontier { df_evaluated; _ } -> df_evaluated
          | _ -> 0
        in
        (* the frontier the traced run's layer replay covers *)
        Option.iter
          (fun doc ->
            Out_channel.with_open_bin "frontier.json" (fun oc ->
                output_string oc doc))
          resp.Api.Response.artifact;
        ( 1 + List.length (Tc.pass_names base) + evaluated,
          Array.of_list
            (List.concat_map
               (fun c -> List.map (fun p -> (p, c)) Programs.all)
               (frontier_configs resp.Api.Response.artifact)) )
  in
  (* the corpus tables, or the frontier JSON (a search's text also
     counts entries served from the store, which a warm replay differs
     in) *)
  let rendered =
    Option.value ~default:resp.Api.Response.text resp.Api.Response.artifact
  in
  let check_att, check_bad =
    if ok then oracle_check ~k:(opt_int "check" 0) pairs else (0, 0)
  in
  let layer =
    if not traced then []
    else begin
      let t = span_table () in
      let self n = snd (Option.value ~default:(0, 0.) (Hashtbl.find_opt t n)) in
      (* the batch request and its response through the client codec *)
      let enc0 = now () in
      ignore (Api.request_to_json req);
      let enc = now () -. enc0 in
      let resp_bytes = Api.response_to_json resp in
      let dec0 = now () in
      ignore (Api.response_of_json resp_bytes);
      let dec = now () -. dec0 in
      let traced_wall, covered_names =
        match workload with
        | "corpus-cold" ->
            ( span_wall "replay" -. self "vm-replay" -. self "vm",
              [ "minic.parse"; "fuzz.prepare"; "compile"; "phase.ir";
                "ir.lower"; "ir.mem2reg"; "passes"; "phase.backend";
                "phase.emit"; "debugger"; "metrics" ] )
        | _ ->
            (wall, [ "core.rank"; "core.o0_costs"; "core.search"; "store.get";
                     "store.put" ])
      in
      Spans.write spans_file;
      layer_rows ~rows ~traced_wall
        ~untraced_wall:(opt_float "untraced-wall" wall)
        ~covered_names
        (api_rows ~encode:enc ~decode:dec ())
    end
  in
  result
    ([
       ("ready", num ready);
       ("wall_s", num wall);
       ("items", int items);
       ("rss_kb", int rss);
       ("ok", J.Bool ok);
       ("error",
         J.Str
           (match resp.Api.Response.status with
           | Api.Response.Error m -> m
           | Api.Response.Overloaded -> "overloaded"
           | Api.Response.Ok -> ""));
       ("store_hits", int hits);
       ("decode_self_hits", int (row rows decode_hits));
       ("digest", J.Str (digest rendered));
       ("check_attempted", int check_att);
       ("check_failed", int check_bad);
     ]
    @ if layer = [] then [] else [ ("layers", J.Obj layer) ])

(* ------------------------------------------------------------------ *)
(* serve-mixed: plan                                                    *)

type cls = Hit | Disk | Fresh | Measure | Stats

let cls_name = function
  | Hit -> "hit"
  | Disk -> "disk"
  | Fresh -> "fresh"
  | Measure -> "measure"
  | Stats -> "stats"

(* The mix, in requests per 100. Hits are the majority so the median is
   a memory hit; fresh compiles (two orders of magnitude slower than any
   other class) are 2 in 100, so the 99th percentile falls at the middle
   of their latencies, half of them on either side (README.md, "The
   serve mix"). *)
let mix = [ (Hit, 74); (Disk, 1); (Measure, 12); (Stats, 11); (Fresh, 2) ]

(* Five suite programs whose gcc-O2 compiles cost about the same
   (19-23 ms each when measured alone), so fresh compiles form one
   latency class rather than a spread of per-program modes; 378
   disable-pairs each leave ample pairs that were never requested. *)
let subjects =
  List.filter
    (fun p ->
      List.mem p.Suite_types.p_name
        [ "bzip2"; "libdwarf"; "libpcap"; "libpng"; "wasm3" ])
    Programs.all
let measure_config = base
let hit_pool = 26

let summary (p : Suite_types.sprogram) config =
  R.Compile
    {
      c_subject = R.Named p.Suite_types.p_name;
      c_config = config;
      c_profile = None;
      c_sanitize = false;
      c_view = R.Summary;
    }

let measure (p : Suite_types.sprogram) =
  R.Compile
    {
      c_subject = R.Named p.Suite_types.p_name;
      c_config = measure_config;
      c_profile = None;
      c_sanitize = false;
      c_view = R.Measure;
    }

(* An endless seeded stream of distinct (program, gcc-O2 disable-pair)
   pairs: populate takes the first [hit_pool + disk_pool] of them, fresh
   compiles the rest, so no fresh pair was ever requested before. The
   programs rotate in a fixed order, so any window of the stream has the
   same mix of compile costs whatever the seed; the seed picks which two
   passes each pair disables. *)
let pair_stream () =
  let rng = Util.Rng.create (seed * 104729) in
  let seen = Hashtbl.create 512 in
  let programs = Array.of_list subjects in
  let np = Array.length programs in
  let k = ref 0 in
  let rec pick p b =
    let passes = Array.of_list (Tc.pass_names b) in
    let n = Array.length passes in
    let i = Util.Rng.int rng n and j = Util.Rng.int rng n in
    let config =
      C.make
        ~disabled:(List.sort_uniq compare [ passes.(i); passes.(j) ])
        b.C.compiler b.C.level
    in
    let key = p.Suite_types.p_name ^ "|" ^ C.fingerprint config in
    if i = j || Hashtbl.mem seen key then pick p b
    else begin
      Hashtbl.add seen key ();
      (p, config)
    end
  in
  fun () ->
    let p = programs.(!k mod np) in
    incr k;
    pick p base

(* The fixed-rate phase: [rate] requests/s for 60% of the run, and at
   least 1000 requests so its 99th percentile has ten samples beyond
   it. The ramp gets the rest of the run. *)
let rate = 400.
let fixed_n = max 1000 (int_of_float (rate *. opt_float "seconds" 25. *. 0.6))
let max_steps = 14
let ramp_n = 2000

(* Enough first touches for the fixed phase and every ramp step. *)
let disk_pool =
  ((fixed_n + (max_steps * ramp_n)) * List.assoc Disk mix / 100) + 1

(* A phase's class sequence: blocks of 100 requests, each holding the
   mix exactly, in a seeded order within the block. Slow requests never
   bunch up beyond what two neighbouring blocks allow, so every stretch
   of the phase offers the same load whatever the seed. *)
let schedule ~phase n =
  let block = Array.of_list (List.concat_map (fun (c, k) -> List.init k (fun _ -> c)) mix) in
  let rng = Util.Rng.create ((seed * 31) + phase) in
  Array.concat
    (List.init ((n + 99) / 100) (fun b ->
         let order = shuffle rng (Array.copy block) in
         Array.sub order 0 (min 100 (n - (b * 100)))))

(* ------------------------------------------------------------------ *)
(* serve-setup: populate the store the daemon will restart over         *)

let serve_setup () =
  let dir = opt "store" "store" in
  Unix.mkdir dir 0o755;
  let ctx = Api.create_ctx ~store:(ME.open_store ~dir ()) () in
  let next = pair_stream () in
  let pairs = Array.init (hit_pool + disk_pool) (fun _ -> next ()) in
  let cursor = Atomic.make 0 and failures = Atomic.make 0 in
  let work () =
    let rec go () =
      let i = Atomic.fetch_and_add cursor 1 in
      if i < Array.length pairs then begin
        let p, c = pairs.(i) in
        let r = Api.execute ctx (summary p c) in
        if r.Api.Response.status <> Api.Response.Ok then Atomic.incr failures;
        go ()
      end
    in
    go ()
  in
  let ds = List.init (nproc - 1) (fun _ -> Domain.spawn work) in
  work ();
  List.iter Domain.join ds;
  result [ ("populated", int (Array.length pairs)); ("failed", int (Atomic.get failures)) ]

(* ------------------------------------------------------------------ *)
(* serve-run: the open-loop client                                      *)

type record = {
  r_phase : int;  (** 0 = fixed rate, k > 0 = ramp step k *)
  r_cls : cls;
  r_request : R.t;
  mutable r_req : string;  (** canonical request JSON, as sent *)
  mutable r_response : Api.Response.t option;  (** [None]: protocol error *)
  mutable r_sample : Stat.sample;
  mutable r_enc : float;
  mutable r_dec : float;
}

let blank =
  { Stat.q_conn = 0; q_due = 0.; q_free = 0.; q_sent = 0.; q_done = 0.; q_ok = false }

let comparable (r : Api.Response.t) =
  Api.response_to_json { r with Api.Response.stats = [] }

(* One framed round trip, timed piecewise: encode, write/read, decode.
   Error, Overloaded, protocol errors and timeouts all count as failed. *)
let round_trip fd (r : record) =
  let t0 = now () in
  let bytes = Api.request_to_json r.r_request in
  r.r_req <- bytes;
  r.r_enc <- now () -. t0;
  match
    Framing.write_frame fd bytes;
    Framing.read_frame fd
  with
  | payload -> (
      let d0 = now () in
      let decoded = Api.response_of_json payload in
      let t1 = now () in
      r.r_dec <- t1 -. d0;
      match decoded with
      | Ok resp ->
          r.r_response <- Some resp;
          (t0, t1, resp.Api.Response.status = Api.Response.Ok)
      | Error _ -> (t0, t1, false))
  | exception (Framing.Closed | Unix.Unix_error _ | Framing.Oversized _) ->
      (t0, now (), false)

(* one connection, and one client thread, per core *)
let conns = nproc

let connect () =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 60.;
  Unix.connect fd (Unix.ADDR_UNIX "d.sock");
  fd

(* Client threads alive at once, and the most ever alive: the generator
   may use at most one thread per connection and one connection per
   core. *)
let threads_live = Atomic.make 0
let threads_peak = Atomic.make 0

let client_thread f c =
  Thread.create
    (fun c ->
      let live = Atomic.fetch_and_add threads_live 1 + 1 in
      if live > Atomic.get threads_peak then Atomic.set threads_peak live;
      Fun.protect ~finally:(fun () -> Atomic.decr threads_live) (fun () -> f c))
    c

(* The generator's busy-wait before each due time: each thread sleeps
   to [spin] short of it, then yields until it, because a timer wake-up
   alone overshoots by a sizeable share of a hit's round trip. The spin
   is kept short so the client stays a small load beside the daemon: at
   most 0.1 ms of CPU per request, a tenth of a core at 1000 requests/s.
   A later wake-up shows as lateness (gen.late_ms) and counts in the
   latency. (A window of a tenth of the connection's interval, 0.5 ms at
   the fixed rate, measured no less lateness on a contended machine.) *)
let spin = 0.0001

(* Drive [records] (in due order) at [rate] requests/s starting at
   [start]: request i is due at start + i/rate and goes out on
   connection i mod conns, one thread per connection. *)
let drive fds ~rate ~start (records : record array) =
  let nconn = Array.length fds in
  let worker c =
    let free = ref start in
    let i = ref c in
    while !i < Array.length records do
      let r = records.(!i) in
      let due = start +. (float_of_int !i /. rate) in
      let wait = due -. now () -. spin in
      if wait > 0. then Unix.sleepf wait;
      while now () < due do
        Thread.yield ()
      done;
      let sent, fin, ok = round_trip fds.(c) r in
      r.r_sample <-
        { Stat.q_conn = c; q_due = due; q_free = !free; q_sent = sent;
          q_done = fin; q_ok = ok };
      free := fin;
      i := !i + nconn
    done
  in
  List.iter Thread.join (List.init nconn (client_thread worker))

let make_records ~phase ~next_fresh ~next_disk ~hits n =
  let rng = Util.Rng.create ((seed * 613) + phase) in
  Array.map
    (fun cls ->
      let req =
        match cls with
        | Hit ->
            let p, c = hits.(Util.Rng.int rng (Array.length hits)) in
            summary p c
        | Disk ->
            let p, c = next_disk () in
            summary p c
        | Fresh ->
            let p, c = next_fresh () in
            summary p c
        | Measure ->
            measure (List.nth subjects (Util.Rng.int rng (List.length subjects)))
        | Stats -> R.Stats { s_what = R.Suite }
      in
      { r_phase = phase; r_cls = cls; r_request = req; r_req = "";
        r_response = None; r_sample = blank; r_enc = 0.; r_dec = 0. })
    (schedule ~phase n)

(* Set-up requests shared by the daemon client and the twin: one Measure
   per subject (prepared subjects are not persisted across a restart)
   and a first touch of every hit-pool pair (disk -> memory). *)
let setup_requests hits =
  List.map measure subjects
  @ Array.to_list (Array.map (fun (p, c) -> summary p c) hits)

let serve_pools () =
  let next = pair_stream () in
  let hits = Array.init hit_pool (fun _ -> next ()) in
  let disk = Array.init disk_pool (fun _ -> next ()) in
  let di = ref 0 in
  let next_disk () =
    if !di >= disk_pool then failwith "disk pool exhausted";
    incr di;
    disk.(!di - 1)
  in
  (hits, next_disk, next)

(* The workload's latency limit for the ramp, on the step's tail. *)
let limit_ms = 250.

let serve_run () =
  let hits, next_disk, next_fresh = serve_pools () in
  let fds = Array.init conns (fun _ -> connect ()) in
  let failed_setup = ref 0 in
  (* set-up: spread over the connections so subjects prepare in parallel *)
  let setup = Array.of_list (setup_requests hits) in
  let per_conn c =
    let i = ref c in
    while !i < Array.length setup do
      (match Api_client.rpc { Api_client.fd = fds.(c) } setup.(!i) with
      | Ok r when r.Api.Response.status = Api.Response.Ok -> ()
      | _ -> incr failed_setup);
      i := !i + conns
    done
  in
  List.iter Thread.join (List.init conns (client_thread per_conn));
  let ready = now () in
  if opt "setup-only" "0" = "1" then begin
    Array.iter Unix.close fds;
    result [ ("ready", num ready); ("setup_failed", int !failed_setup) ]
  end
  else begin
    let seconds = opt_float "seconds" 25. in
    let fixed = make_records ~phase:0 ~next_fresh ~next_disk ~hits fixed_n in
    let t0 = now () in
    drive fds ~rate ~start:(t0 +. 0.01) fixed;
    let fixed_wall = now () -. t0 in
    (* the daemon's peak resident memory through set-up and the fixed
       phase; the ramp's length varies from run to run *)
    let daemon_rss = peak_rss_kb ~pid:(opt "daemon-pid" "self") () in
    let samples rs = Array.to_list (Array.map (fun r -> r.r_sample) rs) in
    let lat_ms rs = List.map (fun q -> 1000. *. Stat.latency q) (samples rs) in
    let step_ok rs =
      let t = Stat.tail (lat_ms rs) in
      t.Stat.t_value <= limit_ms
      && not (Stat.backlog_grows ~conns (samples rs))
    in
    (* the ramp: [ramp_n] requests per step, rates x1.5 from 1500/s
       until a step fails, then three bisection steps between the last
       pass and the first failure. A failed step is run once more before
       it counts, so one stall of the shared machine does not end the
       climb. The ramp stops early when the next step would overrun the
       run's time. *)
    let deadline = t0 +. seconds -. 0.5 in
    let steps = ref [] and phase = ref 1 in
    let attempt r =
      if !phase > max_steps || now () +. (float_of_int ramp_n /. r) > deadline
      then None
      else begin
        let rs = make_records ~phase:!phase ~next_fresh ~next_disk ~hits ramp_n in
        incr phase;
        drive fds ~rate:r ~start:(now () +. 0.01) rs;
        let ok = step_ok rs in
        steps := (r, ok, rs) :: !steps;
        Some ok
      end
    in
    let run_step r =
      match attempt r with Some false -> attempt r | other -> other
    in
    (* lo: highest rate passed so far; the fixed phase counts *)
    let lo = ref (if step_ok fixed then rate else 0.) in
    let rec climb r =
      match run_step r with
      | Some true ->
          lo := r;
          climb (r *. 1.5)
      | Some false -> Some r
      | None -> None
    in
    (match if traced then None else climb 1500. with
    | None -> ()
    | Some hi ->
        let hi = ref hi in
        for _ = 1 to 3 do
          let mid = (!lo +. !hi) /. 2. in
          match run_step mid with
          | Some true -> lo := mid
          | Some false -> hi := mid
          | None -> ()
        done);
    Array.iter Unix.close fds;
    if Atomic.get threads_peak > conns then
      failwith "generator used more threads than connections";
    let all =
      Array.concat (fixed :: List.rev_map (fun (_, _, rs) -> rs) !steps)
    in
    let lat = lat_ms fixed in
    let tail = Stat.tail lat in
    let ok_count = Array.fold_left (fun a r -> if r.r_sample.Stat.q_ok then a + 1 else a) 0 all in
    (* the log the twin replay reads: class, timings, request, response *)
    let oc = open_out "log.jsonl" in
    Array.iter
      (fun r ->
        let q = r.r_sample in
        let resp =
          match r.r_response with Some resp -> comparable resp | None -> ""
        in
        output_string oc
          (J.to_string
             (J.Obj
                [
                  ("phase", int r.r_phase);
                  ("cls", J.Str (cls_name r.r_cls));
                  ("rtt", num (q.Stat.q_done -. q.Stat.q_sent));
                  ("enc", num r.r_enc);
                  ("dec", num r.r_dec);
                  ("ok", J.Bool q.Stat.q_ok);
                  ("req", J.Str r.r_req);
                  ("resp", J.Str resp);
                ]));
        output_char oc '\n')
      all;
    close_out oc;
    let fixed_ok = Array.fold_left (fun a r -> if r.r_sample.Stat.q_ok then a + 1 else a) 0 fixed in
    result
      [
        ("ready", num ready);
        ("setup_failed", int !failed_setup);
        ("attempted", int (Array.length all));
        ("failed", int (Array.length all - ok_count));
        ("fixed_n", int (Array.length fixed));
        ("daemon_rss_kb", int daemon_rss);
        ("p50_ms", num (Stat.median lat));
        ("p99_ms", num tail.Stat.t_value);
        ("tail", J.Str (Stat.tail_label tail));
        ("items_per_s", num (float_of_int fixed_ok /. fixed_wall));
        ("max_rps", num !lo);
        ("ramp", J.Arr (List.rev_map (fun (r, ok, rs) ->
             J.Obj [ ("rate", num r); ("ok", J.Bool ok);
                     ("tail_ms", num (Stat.tail (lat_ms rs)).Stat.t_value);
                     ("growth", num (Stat.backlog_growth (samples rs))) ]) !steps));
        ("late_ms",
          num (1000. *. (Stat.tail (List.map Stat.lateness (samples fixed))).Stat.t_value));
        ("backlog_max", int (Stat.backlog_max (samples fixed)));
      ]
  end

(* ------------------------------------------------------------------ *)
(* serve-check: the twin replay                                         *)

let read_log () =
  let ic = open_in "log.jsonl" in
  let rec go acc =
    match input_line ic with
    | l -> go (J.parse l :: acc)
    | exception End_of_file -> List.rev acc
  in
  let l = go [] in
  close_in ic;
  l

let field_str j k = Option.get (J.str (Option.get (J.field k j)))
let field_num j k = Option.get (J.num (Option.get (J.field k j)))

(* Replay the set-up and the logged requests, in order, on a fresh
   context over [dir]. Returns per-request (execute seconds, equal?),
   the replay's wall and the summed stats rows. *)
let twin_replay ~dir ~spans log =
  let ctx = Api.create_ctx ~store:(ME.open_store ~dir ()) () in
  let hits, _, _ = serve_pools () in
  List.iter
    (fun req ->
      (match req with
      | R.Compile { c_subject = R.Named n; c_view = R.Measure; _ } when spans ->
          let p = List.find (fun p -> p.Suite_types.p_name = n) subjects in
          parse p;
          ignore (Spans.wrap "fuzz.prepare" (fun () -> Api.prepared_of ctx p))
      | _ -> ());
      ignore (Api.execute ctx req))
    (setup_requests hits);
  if spans then install_io_spans ();
  let t0 = now () in
  let rows = ref [] in
  let per =
    List.mapi
      (fun i j ->
        let req =
          match Api.request_of_json (field_str j "req") with
          | Ok r -> r
          | Error m -> failwith m
        in
        Spans.req := i;
        let e0 = now () in
        let resp =
          if spans then Spans.wrap "api.execute" (fun () -> Api.execute ctx req)
          else Api.execute ctx req
        in
        let exec = now () -. e0 in
        rows := add_rows !rows resp.Api.Response.stats;
        let logged = field_str j "resp" in
        (exec, logged = "" || comparable resp = logged))
      log
  in
  Engine.Disk_store.set_io_wrap None;
  (per, now () -. t0, !rows)

(* The (subject, config) pairs of the fixed phase's compile requests of
   [classes], first occurrence first, each with its index in the log
   (the request id its spans carry). The fixed phase's requests are a
   pure function of the seed (the ramp's are not). *)
let logged_pairs ~classes log =
  let seen = Hashtbl.create 64 in
  List.concat
    (List.mapi
       (fun i j ->
         match (field_str j "cls", Api.request_of_json (field_str j "req")) with
         | cls, Ok (R.Compile { c_subject = R.Named n; c_config; _ })
           when List.mem cls classes
                && J.field "phase" j = Some (J.Num 0.)
                && not (Hashtbl.mem seen (n, C.fingerprint c_config)) ->
             Hashtbl.add seen (n, C.fingerprint c_config) ();
             [ (i, (List.find (fun p -> p.Suite_types.p_name = n) subjects, c_config)) ]
         | _ -> [])
       log)

let serve_check () =
  let log = read_log () in
  if traced then Spans.load spans_file;
  let per, wall, _ = twin_replay ~dir:"twin" ~spans:false log in
  let mismatches = List.length (List.filter (fun (_, eq) -> not eq) per) in
  let check_att, check_bad =
    oracle_check ~k:(opt_int "check" 0)
      (Array.of_list (List.map snd (logged_pairs ~classes:[ "hit"; "fresh" ] log)))
  in
  let layers =
    if not traced then []
    else begin
      let tper, twall, rows = twin_replay ~dir:"twin2" ~spans:true log in
      let by cls f =
        List.filter_map Fun.id
          (List.map2
             (fun j x -> if field_str j "cls" = cls then Some (f j x) else None)
             log tper)
      in
      let p50 l = if l = [] then 0. else Stat.median l in
      let per_class what cls =
        p50
          (by cls (fun j (exec, _) ->
               let rtt = field_num j "rtt" and enc = field_num j "enc"
               and dec = field_num j "dec" in
               1000.
               *.
               match what with
               | "rtt_ms" -> rtt
               | "execute_ms" -> exec
               | _ -> rtt -. exec -. enc -. dec))
      in
      let sum k = List.fold_left (fun a j -> a +. field_num j k) 0. log in
      let failed = List.length (List.filter (fun j -> J.field "ok" j <> Some (J.Bool true)) log) in
      Spans.write spans_file;
      layer_rows ~rows ~traced_wall:twall ~untraced_wall:wall
        ~covered_names:[ "api.execute"; "store.get"; "store.put" ]
        (api_rows ~encode:(sum "enc") ~decode:(sum "dec") ~per_class ~failed
           ~late_ms:(opt_float "late-ms" 0.)
           ~backlog:(opt_int "backlog-max" 0) ())
    end
  in
  (* the fixed-rate phase's request sequence is a pure function of the
     seed, so its responses digest identically on every run *)
  let fixed_text =
    String.concat "\n"
      (List.filter_map
         (fun j ->
           if J.field "phase" j = Some (J.Num 0.) then Some (field_str j "resp")
           else None)
         log)
  in
  result
    ([
       ("replayed", int (List.length per));
       ("mismatches", int mismatches);
       ("digest", J.Str (digest fixed_text));
       ("check_attempted", int check_att);
       ("check_failed", int check_bad);
     ]
    @ if layers = [] then [] else [ ("layers", J.Obj layers) ])

(* ------------------------------------------------------------------ *)
(* replay: the layer functions, in a process of their own               *)

(* The traced run's layer replay runs before the traced job (or twin
   replay), in a fresh process: every binary it produces is decoded
   cold, as in the untraced job, instead of being found in the job's
   in-memory decode table or read back from the decodes the job
   persisted. Where the job has a store (search, serve-mixed), the
   replay has an empty one of its own, so each decode is persisted as in
   the job. It writes its spans for that next process to load. Subjects
   it does not replay per item are prepared outside any span: their
   preparation is timed where the job does it. *)
let replay () =
  let workload = opt "workload" "" in
  if workload <> "corpus-cold" then begin
    let dir = "replay-store" in
    Unix.mkdir dir 0o755;
    (* the engine that makes the store the decode cache's, as Api's does *)
    ignore (ME.create ~store:(ME.open_store ~dir ()) ())
  end;
  (match workload with
  | "corpus-cold" ->
      (* the job's items, in the order Experiments.corpus_rows issues
         them *)
      Spans.wrap "replay" (fun () ->
          List.iter
            (fun (e : Corpus.entry) ->
              Spans.req := e.Corpus.e_index;
              parse e.Corpus.e_program;
              let pr =
                Spans.wrap "fuzz.prepare" (fun () ->
                    Ev.prepare ~fuzz_budget:e.Corpus.e_fuzz_budget
                      e.Corpus.e_program)
              in
              replay_measure pr Ex.all_standard_configs)
            (Corpus.generate ~seed ~n:(opt_int "size" 48)))
  | "search" ->
      (* the suite measured and SPEC run for cost at the frontier's
         configurations *)
      let configs =
        frontier_configs
          (Some (In_channel.with_open_bin "frontier.json" In_channel.input_all))
      in
      let prepared = List.map (fun p -> Ev.prepare p) Programs.all in
      Spans.wrap "replay" (fun () ->
          List.iter (fun pr -> replay_measure pr configs) prepared;
          List.iter (fun p -> List.iter (replay_cost p) configs) Spec.all)
  | "serve-mixed" ->
      (* the fresh compiles the daemon did *)
      let fresh = logged_pairs ~classes:[ "fresh" ] (read_log ()) in
      let prepared =
        List.map (fun p -> (p.Suite_types.p_name, Ev.prepare p)) subjects
      in
      Spans.wrap "replay" (fun () ->
          List.iter
            (fun (i, ((p : Suite_types.sprogram), c)) ->
              Spans.req := i;
              replay_measure (List.assoc p.Suite_types.p_name prepared) [ c ])
            fresh)
  | w -> failwith ("unknown workload " ^ w));
  Spans.write spans_file;
  result [ ("spans", int (List.length (Spans.all ()))) ]

(* ------------------------------------------------------------------ *)
(* tail: the percentile rule over run.py's per-job latencies            *)

let tail () =
  let ms =
    List.map float_of_string (List.tl (List.tl (Array.to_list Sys.argv)))
  in
  let t = Stat.tail ms in
  result
    [
      ("median", num (Stat.median ms));
      ("tail", num t.Stat.t_value);
      ("label", J.Str (Stat.tail_label t));
    ]

let () =
  match mode with
  | "batch" -> batch ()
  | "tail" -> tail ()
  | "serve-setup" -> serve_setup ()
  | "serve-run" -> serve_run ()
  | "serve-check" -> serve_check ()
  | "replay" -> replay ()
  | m ->
      prerr_endline ("perfbench: unknown mode " ^ m);
      exit 2
