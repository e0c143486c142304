(* The typed service API: codec round-trips (QCheck), version-stamp and
   unknown-field behaviour, wire-framing torture (partial reads,
   oversized prefixes, mid-message disconnects), and an N-client x
   M-request daemon session asserting responses byte-identical to the
   same requests executed through the in-process (CLI) path. *)

let check = Alcotest.check
let checkb = Alcotest.(check bool)

module Config = Debugtuner.Config
module R = Api.Request
module Resp = Api.Response

(* ------------------------------------------------------------------ *)
(* Generators                                                          *)

let gen_byte_string =
  QCheck.Gen.(string_size (int_bound 12) ~gen:(map Char.chr (int_bound 255)))

let gen_config =
  QCheck.Gen.(
    map3
      (fun comp lvl dis -> Config.make ~disabled:dis comp lvl)
      (oneofl [ Config.Gcc; Config.Clang ])
      (oneofl [ Config.O0; Config.Og; Config.O1; Config.O2; Config.O3 ])
      (list_size (int_bound 3)
         (oneofl [ "mem2reg"; "dce"; "sra"; "inline"; "GVN" ])))

let gen_subject =
  QCheck.Gen.(
    oneof
      [
        map (fun n -> R.Named ("prog-" ^ n)) (string_size (int_bound 6));
        map2
          (fun n src -> R.Inline { in_name = "f-" ^ n; in_source = src })
          (string_size (int_bound 6))
          gen_byte_string;
      ])

let gen_ints = QCheck.Gen.(list_size (int_bound 4) (int_range (-1000) 1000))

let gen_opt_str =
  QCheck.Gen.(opt (map (fun s -> "e" ^ s) (string_size (int_bound 5))))

let gen_view =
  QCheck.Gen.(
    oneof
      [
        return R.Summary;
        return R.Measure;
        map (fun s -> R.Dump s) (list_size (int_bound 3) (oneofl [ "functions"; "lines"; "locs" ]));
        return R.Verify;
        map (fun f -> R.Disasm f) gen_opt_str;
        return R.Dwarf_size;
        return R.Passes;
        return R.Pass_trace;
        map2 (fun e i -> R.Trace { t_entry = e; t_input = i }) gen_opt_str gen_ints;
        map2
          (fun e c -> R.Debug { d_entry = e; d_commands = c })
          gen_opt_str
          (list_size (int_bound 3) gen_byte_string);
        map2
          (fun e p -> R.Sample { s_entry = e; s_period = p })
          gen_opt_str (int_range 1 1000);
        map2
          (fun e i -> R.Value_check { v_entry = e; v_input = i })
          gen_opt_str gen_ints;
      ])

let gen_metric = QCheck.Gen.(map (fun f -> f /. 7.0) (float_bound_inclusive 7.0))

let gen_corpus_row =
  QCheck.Gen.(
    let* idx = int_range 0 9_999 in
    let* fam = oneofl [ "synth"; "fuzz"; "selfcomp" ] in
    let* cfg = oneofl [ "gcc-O2"; "clang-O1"; "gcc-Og"; "clang-O3" ] in
    let* avail = gen_metric in
    let* cov = gen_metric in
    let* product = gen_metric in
    return
      {
        Debugtuner.Experiments.cr_index = idx;
        cr_program = Printf.sprintf "%s-%04d" fam idx;
        cr_family = fam;
        cr_config = cfg;
        cr_avail = avail;
        cr_cov = cov;
        cr_product = product;
      })

let gen_shard =
  QCheck.Gen.(
    let* n = int_range 1 8 in
    let* i = int_range 1 n in
    return (i, n))

let gen_job =
  QCheck.Gen.(
    let* tables =
      list_size (int_bound 2) (oneofl Api.Job.table_names)
    in
    let* seed = int_range 0 9_999 in
    let* corpus = int_range 1 10_000 in
    let* configs = list_size (int_bound 3) gen_config in
    let* shard = opt gen_shard in
    return
      {
        Api.Job.j_tables = tables;
        j_seed = seed;
        j_corpus = corpus;
        j_configs = configs;
        j_shard = shard;
      })

let gen_partial =
  QCheck.Gen.(
    let* i, n = gen_shard in
    let* seed = int_range 0 9_999 in
    let* corpus = int_range 1 10_000 in
    let* digest = string_size (int_bound 16) in
    let* configs = list_size (int_bound 3) (oneofl [ "gcc-O2"; "clang-O1" ]) in
    let* programs = int_range 0 2_500 in
    let* rows = list_size (int_bound 6) gen_corpus_row in
    return
      {
        Api.Partial.pt_shard = i;
        pt_shards = n;
        pt_seed = seed;
        pt_corpus = corpus;
        pt_digest = digest;
        pt_configs = configs;
        pt_programs = programs;
        pt_rows = rows;
      })

let gen_request =
  QCheck.Gen.(
    oneof
      [
        (let* s = gen_subject in
         let* c = gen_config in
         let* p = opt gen_byte_string in
         let* sz = bool in
         let* v = gen_view in
         return
           (R.Compile
              {
                c_subject = s;
                c_config = c;
                c_profile = p;
                c_sanitize = sz;
                c_view = v;
              }));
        (let* c = gen_config in
         let* k = int_range 0 40 in
         return (R.Rank { r_config = c; r_k = k }));
        (let* c = gen_config in
         let* y = int_range 0 20 in
         return (R.Tune { t_config = c; t_y = y }));
        (let* s = opt gen_subject in
         let* f = int_range 0 100 in
         let* sd = int_range 0 10_000 in
         let* su = bool in
         return (R.Check { k_subject = s; k_fuzz = f; k_seed = sd; k_suite = su }));
        (let* s = gen_subject in
         let* c = gen_config in
         let* sz = bool in
         let* st = bool in
         let* tc = bool in
         return
           (R.Profile
              {
                p_subject = s;
                p_config = c;
                p_sanitize = sz;
                p_stats = st;
                p_trace = tc;
              }));
        (let* s = gen_subject in
         let* c = gen_config in
         let* a =
           oneof
             [
               return R.Cost;
               map2
                 (fun e i -> R.Exec { x_entry = "e" ^ e; x_input = i })
                 (string_size (int_bound 5))
                 gen_ints;
             ]
         in
         return (R.Bench { b_subject = s; b_config = c; b_action = a }));
        (let* a = oneofl [ R.Op_stats; R.Op_clear; R.Op_gc ] in
         let* d = opt gen_byte_string in
         return (R.Cache_op { o_action = a; o_dir = d }));
        (let* w = oneofl [ R.Counters; R.Suite; R.Server ] in
         return (R.Stats { s_what = w }));
        (let* j = gen_job in
         return (R.Experiments { e_job = j }));
        (let* ps = list_size (int_range 1 4) gen_partial in
         return (R.Merge { m_partials = ps }));
      ])

let gen_stats =
  QCheck.Gen.(
    list_size (int_bound 5)
      (map2 (fun n v -> ("c/" ^ n, v)) (string_size (int_bound 6))
         (int_range (-1000) 1_000_000)))

let gen_float = QCheck.Gen.(map (fun f -> f /. 3.0) (float_range (-1e9) 1e9))

let gen_data =
  QCheck.Gen.(
    oneof
      [
        return Resp.D_none;
        (let* i = int_range 0 10_000 in
         let* f = int_range 0 100 in
         let* d = gen_byte_string in
         return
           (Resp.D_compiled
              {
                dc_program = "p";
                dc_config = "gcc-O2";
                dc_instrs = i;
                dc_funcs = f;
                dc_text_digest = d;
              }));
        (let* top =
           list_size (int_bound 4)
             (let* p = string_size (int_bound 8) in
              let* a = gen_float in
              let* b = gen_float in
              return (p, a, b))
         in
         return (Resp.D_ranked { dr_config = "clang-O1"; dr_top = top }));
        (let* d = gen_float in
         let* s = gen_float in
         return
           (Resp.D_tuned
              {
                dt_config = "gcc-O2-d3";
                dt_disabled = [ "dce"; "sra" ];
                dt_debug = d;
                dt_speedup = s;
              }));
        (let* r = int_range 0 500 in
         return
           (Resp.D_checked
              {
                dk_programs = 13;
                dk_configs = 8;
                dk_runs = r;
                dk_skipped = 0;
                dk_failures = r mod 3;
              }));
        map (fun c -> Resp.D_cost c) (int_range 0 1_000_000);
        map (fun rows -> Resp.D_counters rows) gen_stats;
        map (fun p -> Resp.D_partial p) gen_partial;
      ])

let gen_response =
  QCheck.Gen.(
    let* status =
      oneof
        [
          return Resp.Ok;
          map (fun m -> Resp.Error m) gen_byte_string;
          return Resp.Overloaded;
        ]
    in
    let* text = gen_byte_string in
    let* artifact = opt gen_byte_string in
    let* data = gen_data in
    let* stats = gen_stats in
    let* exit_code = int_range 0 125 in
    return { Resp.status; text; artifact; data; stats; exit_code })

(* ------------------------------------------------------------------ *)
(* Codec round-trips                                                   *)

let req_arb = QCheck.make ~print:Api.request_to_json gen_request
let resp_arb = QCheck.make ~print:Api.response_to_json gen_response

let qcheck_request_roundtrip =
  QCheck.Test.make ~name:"request JSON codec round-trips" ~count:500 req_arb
    (fun r ->
      match Api.request_of_json (Api.request_to_json r) with
      | Ok r' -> r' = r
      | Error _ -> false)

let qcheck_response_roundtrip =
  QCheck.Test.make ~name:"response JSON codec round-trips" ~count:500 resp_arb
    (fun r ->
      match Api.response_of_json (Api.response_to_json r) with
      | Ok r' -> r' = r
      | Error _ -> false)

let qcheck_unknown_fields_tolerated =
  (* Splice an unrecognized field right after the canonical version
     stamp; decoding must ignore it and yield the same request. *)
  QCheck.Test.make ~name:"decoder tolerates unknown fields" ~count:200 req_arb
    (fun r ->
      let enc = Api.request_to_json r in
      let prefix = "{\"v\":1," in
      assert (String.length enc > String.length prefix);
      assert (String.sub enc 0 (String.length prefix) = prefix);
      let spliced =
        prefix
        ^ "\"x_future_extension\":{\"deep\":[1,2,{\"a\":null}]},"
        ^ String.sub enc (String.length prefix)
            (String.length enc - String.length prefix)
      in
      match Api.request_of_json spliced with
      | Ok r' -> r' = r
      | Error _ -> false)

let qcheck_version_rejected =
  QCheck.Test.make ~name:"decoder rejects foreign version stamps" ~count:100
    req_arb (fun r ->
      let enc = Api.request_to_json r in
      let skip = String.length "{\"v\":1," in
      let bumped =
        "{\"v\":99," ^ String.sub enc skip (String.length enc - skip)
      in
      match Api.request_of_json bumped with
      | Error msg ->
          (* the one-line error names the offending version *)
          let has_sub s sub =
            let n = String.length sub in
            let rec go i =
              i + n <= String.length s
              && (String.sub s i n = sub || go (i + 1))
            in
            go 0
          in
          has_sub msg "version"
      | Ok _ -> false)

let test_version_missing () =
  (match Api.request_of_json "{\"kind\":\"stats\",\"what\":\"suite\"}" with
  | Error msg ->
      checkb "mentions stamp" true
        (String.length msg > 0)
  | Ok _ -> Alcotest.fail "missing version stamp accepted");
  match Api.response_of_json "{\"status\":\"ok\"}" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "missing version stamp accepted (response)"

let test_malformed_json () =
  let rank_k k =
    {|{"v":1,"kind":"rank","config":{"compiler":"gcc","level":"O2","disabled":[]},|}
    ^ {|"k":|} ^ k ^ "}"
  in
  List.iter
    (fun text ->
      match Api.request_of_json text with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail ("accepted malformed input: " ^ text))
    [
      ""; "{"; "nope"; "{\"v\":1}"; "{\"v\":1,\"kind\":\"wat\"}";
      "{\"v\":1,\"kind\":\"rank\"}"; "[1,2,3]"; "{\"v\":1} trailing";
      (* numbers that are not exact ints: a version, a count *)
      {|{"v":1.5,"kind":"stats","what":"suite"}|};
      rank_k "2.7";
      rank_k "1e300";
    ]

let qcheck_json_string_roundtrip =
  QCheck.Test.make ~name:"Api_json strings round-trip all byte values"
    ~count:500
    (QCheck.make ~print:String.escaped
       QCheck.Gen.(string_size (int_bound 40) ~gen:(map Char.chr (int_bound 255))))
    (fun s ->
      match Api_json.parse (Api_json.to_string (Api_json.Str s)) with
      | Api_json.Str s' -> s' = s
      | _ -> false)

(* The shard-partial document doubles as a standalone file format
   (--partial-dir), so it gets the same treatment as requests: exact
   round-trips (including the float metrics — the %.17g writer), unknown
   fields tolerated, foreign versions refused. *)
let partial_arb = QCheck.make ~print:Api.partial_to_json gen_partial

let qcheck_partial_roundtrip =
  QCheck.Test.make ~name:"shard partial codec round-trips" ~count:500
    partial_arb (fun p ->
      match Api.partial_of_json (Api.partial_to_json p) with
      | Ok p' -> p' = p
      | Error _ -> false)

let qcheck_partial_unknown_fields =
  QCheck.Test.make ~name:"partial decoder tolerates unknown fields" ~count:200
    partial_arb (fun p ->
      let enc = Api.partial_to_json p in
      let prefix = "{\"v\":1," in
      assert (String.sub enc 0 (String.length prefix) = prefix);
      let spliced =
        prefix
        ^ "\"x_extra\":[{\"nested\":true}],"
        ^ String.sub enc (String.length prefix)
            (String.length enc - String.length prefix)
      in
      match Api.partial_of_json spliced with
      | Ok p' -> p' = p
      | Error _ -> false)

let qcheck_partial_version_rejected =
  QCheck.Test.make ~name:"partial decoder rejects foreign versions" ~count:100
    partial_arb (fun p ->
      let enc = Api.partial_to_json p in
      let skip = String.length "{\"v\":1," in
      let bumped =
        "{\"v\":42," ^ String.sub enc skip (String.length enc - skip)
      in
      match Api.partial_of_json bumped with
      | Error _ -> true
      | Ok _ -> false)

let test_partial_invalid_shard () =
  (* a shard index beyond the count must be refused at decode time *)
  let bad =
    "{\"v\":1,\"shard\":3,\"shards\":2,\"seed\":1,\"corpus\":4,\"digest\":\"d\",\
     \"configs\":[\"gcc-O2\"],\"programs\":0,\"rows\":[]}"
  in
  match Api.partial_of_json bad with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "out-of-range shard index accepted"

(* ------------------------------------------------------------------ *)
(* Golden wire bytes                                                   *)

(* The round-trips above decode what they encode, so they cannot see a
   reordered field or a changed number format. These literal values
   cover every request kind, view, bench action, data kind, status,
   compiler, level, search strategy, cache op and stats selector, and
   pin the exact bytes each one encodes to. A deliberate wire change
   updates these bytes and bumps [Api.version]. *)

let gcc level = Config.make Config.Gcc level

let compile ?(subject = R.Named "zlib") ?(config = gcc Config.O2) ?profile
    ?(sanitize = false) view =
  R.Compile
    {
      c_subject = subject;
      c_config = config;
      c_profile = profile;
      c_sanitize = sanitize;
      c_view = view;
    }

let search strategy budget seed debug speed =
  R.Search
    {
      se_config = gcc Config.O2;
      se_strategy = strategy;
      se_budget = budget;
      se_seed = seed;
      se_debug_weight = debug;
      se_speed_weight = speed;
    }

let golden_row index family config avail cov product =
  {
    Debugtuner.Experiments.cr_index = index;
    cr_program = Printf.sprintf "%s-%04d" family index;
    cr_family = family;
    cr_config = config;
    cr_avail = avail;
    cr_cov = cov;
    cr_product = product;
  }

let golden_partial =
  {
    Api.Partial.pt_shard = 2;
    pt_shards = 3;
    pt_seed = 1013;
    pt_corpus = 24;
    pt_digest = "5f3c9a";
    pt_configs = [ "gcc-O2"; "clang-Og" ];
    pt_programs = 8;
    pt_rows =
      [
        golden_row 9 "synth" "gcc-O2" 0.1 (2.0 /. 3.0) 1.0;
        golden_row 12 "fuzz" "clang-Og" 1e-7 0.875 123.456;
      ];
  }

let golden_requests =
  [
    ( compile ~config:(gcc Config.O0) R.Summary,
      {|{"v":1,"kind":"compile","subject":{"name":"zlib"},|}
      ^ {|"config":{"compiler":"gcc","level":"O0","disabled":[]},"profile":null,|}
      ^ {|"sanitize":false,"view":{"kind":"summary"}}|} );
    ( compile
        ~subject:
          (R.Inline
             {
               in_name = "f.c";
               in_source = "int main() {\n\treturn \"\xc3\xa9\";\n}";
             })
        ~config:(Config.make ~disabled:[ "inline"; "dce" ] Config.Clang Config.Og)
        ~profile:"main 1 2\n" ~sanitize:true R.Measure,
      {|{"v":1,"kind":"compile","subject":{"name":"f.c",|}
      ^ {|"source":"int main() {\n\treturn \"é\";\n}"},"config":{"compiler":"clang",|}
      ^ {|"level":"Og","disabled":["dce","inline"]},"profile":"main 1 2\n",|}
      ^ {|"sanitize":true,"view":{"kind":"measure"}}|} );
    ( compile ~config:(gcc Config.O1) (R.Dump [ "lines"; "locs" ]),
      {|{"v":1,"kind":"compile","subject":{"name":"zlib"},|}
      ^ {|"config":{"compiler":"gcc","level":"O1","disabled":[]},"profile":null,|}
      ^ {|"sanitize":false,"view":{"kind":"dump","sections":["lines","locs"]}}|} );
    ( compile ~config:(gcc Config.O3) R.Verify,
      {|{"v":1,"kind":"compile","subject":{"name":"zlib"},|}
      ^ {|"config":{"compiler":"gcc","level":"O3","disabled":[]},"profile":null,|}
      ^ {|"sanitize":false,"view":{"kind":"verify"}}|} );
    ( compile (R.Disasm (Some "main")),
      {|{"v":1,"kind":"compile","subject":{"name":"zlib"},|}
      ^ {|"config":{"compiler":"gcc","level":"O2","disabled":[]},"profile":null,|}
      ^ {|"sanitize":false,"view":{"kind":"disasm","func":"main"}}|} );
    ( compile (R.Disasm None),
      {|{"v":1,"kind":"compile","subject":{"name":"zlib"},|}
      ^ {|"config":{"compiler":"gcc","level":"O2","disabled":[]},"profile":null,|}
      ^ {|"sanitize":false,"view":{"kind":"disasm","func":null}}|} );
    ( compile R.Dwarf_size,
      {|{"v":1,"kind":"compile","subject":{"name":"zlib"},|}
      ^ {|"config":{"compiler":"gcc","level":"O2","disabled":[]},"profile":null,|}
      ^ {|"sanitize":false,"view":{"kind":"dwarf-size"}}|} );
    ( compile R.Passes,
      {|{"v":1,"kind":"compile","subject":{"name":"zlib"},|}
      ^ {|"config":{"compiler":"gcc","level":"O2","disabled":[]},"profile":null,|}
      ^ {|"sanitize":false,"view":{"kind":"passes"}}|} );
    ( compile R.Pass_trace,
      {|{"v":1,"kind":"compile","subject":{"name":"zlib"},|}
      ^ {|"config":{"compiler":"gcc","level":"O2","disabled":[]},"profile":null,|}
      ^ {|"sanitize":false,"view":{"kind":"pass-trace"}}|} );
    ( compile (R.Trace { t_entry = Some "fuzz_deflate"; t_input = [ 1; -2; 3 ] }),
      {|{"v":1,"kind":"compile","subject":{"name":"zlib"},|}
      ^ {|"config":{"compiler":"gcc","level":"O2","disabled":[]},"profile":null,|}
      ^ {|"sanitize":false,"view":{"kind":"trace","entry":"fuzz_deflate","input":[1,|}
      ^ {|-2,3]}}|} );
    ( compile (R.Debug { d_entry = None; d_commands = [ "break 12"; "run" ] }),
      {|{"v":1,"kind":"compile","subject":{"name":"zlib"},|}
      ^ {|"config":{"compiler":"gcc","level":"O2","disabled":[]},"profile":null,|}
      ^ {|"sanitize":false,"view":{"kind":"debug","entry":null,|}
      ^ {|"commands":["break 12","run"]}}|} );
    ( compile (R.Sample { s_entry = Some "main"; s_period = 97 }),
      {|{"v":1,"kind":"compile","subject":{"name":"zlib"},|}
      ^ {|"config":{"compiler":"gcc","level":"O2","disabled":[]},"profile":null,|}
      ^ {|"sanitize":false,"view":{"kind":"sample","entry":"main","period":97}}|} );
    ( compile (R.Value_check { v_entry = None; v_input = [] }),
      {|{"v":1,"kind":"compile","subject":{"name":"zlib"},|}
      ^ {|"config":{"compiler":"gcc","level":"O2","disabled":[]},"profile":null,|}
      ^ {|"sanitize":false,"view":{"kind":"value-check","entry":null,"input":[]}}|} );
    ( R.Rank { r_config = gcc Config.O2; r_k = 5 },
      {|{"v":1,"kind":"rank","config":{"compiler":"gcc","level":"O2",|}
      ^ {|"disabled":[]},"k":5}|} );
    ( R.Tune { t_config = Config.make Config.Clang Config.O1; t_y = 3 },
      {|{"v":1,"kind":"tune","config":{"compiler":"clang","level":"O1",|}
      ^ {|"disabled":[]},"y":3}|} );
    ( search Api.Tuning.Random_sampling 48 7 1.0 0.5,
      {|{"v":1,"kind":"search","config":{"compiler":"gcc","level":"O2",|}
      ^ {|"disabled":[]},"strategy":"random","budget":48,"seed":7,"debug_weight":1,|}
      ^ {|"speed_weight":0.5}|} );
    ( search Api.Tuning.Hill_climb 12 1 0.25 1.1,
      {|{"v":1,"kind":"search","config":{"compiler":"gcc","level":"O2",|}
      ^ {|"disabled":[]},"strategy":"hill-climb","budget":12,"seed":1,|}
      ^ {|"debug_weight":0.25,"speed_weight":1.1000000000000001}|} );
    ( search Api.Tuning.Bandit 20 3 (1.0 /. 3.0) 2.0,
      {|{"v":1,"kind":"search","config":{"compiler":"gcc","level":"O2",|}
      ^ {|"disabled":[]},"strategy":"bandit","budget":20,"seed":3,|}
      ^ {|"debug_weight":0.33333333333333331,"speed_weight":2}|} );
    ( R.Check { k_subject = None; k_fuzz = 10; k_seed = 1; k_suite = true },
      {|{"v":1,"kind":"check","subject":null,"fuzz":10,"seed":1,"suite":true}|} );
    ( R.Check
        { k_subject = Some (R.Named "zlib"); k_fuzz = 0; k_seed = 42; k_suite = false },
      {|{"v":1,"kind":"check","subject":{"name":"zlib"},"fuzz":0,"seed":42,|}
      ^ {|"suite":false}|} );
    ( R.Profile
        {
          p_subject = R.Named "bzip2";
          p_config = gcc Config.O2;
          p_sanitize = false;
          p_stats = true;
          p_trace = true;
        },
      {|{"v":1,"kind":"profile","subject":{"name":"bzip2"},|}
      ^ {|"config":{"compiler":"gcc","level":"O2","disabled":[]},"sanitize":false,|}
      ^ {|"stats":true,"trace":true}|} );
    ( R.Bench { b_subject = R.Named "zlib"; b_config = gcc Config.O2; b_action = R.Cost },
      {|{"v":1,"kind":"bench","subject":{"name":"zlib"},"config":{"compiler":"gcc",|}
      ^ {|"level":"O2","disabled":[]},"action":{"kind":"cost"}}|} );
    ( R.Bench
        {
          b_subject = R.Named "zlib";
          b_config = gcc Config.Og;
          b_action = R.Exec { x_entry = "fuzz_deflate"; x_input = [ 1; 2; 3 ] };
        },
      {|{"v":1,"kind":"bench","subject":{"name":"zlib"},"config":{"compiler":"gcc",|}
      ^ {|"level":"Og","disabled":[]},"action":{"kind":"exec","entry":"fuzz_deflate",|}
      ^ {|"input":[1,2,3]}}|} );
    ( R.Cache_op { o_action = R.Op_stats; o_dir = None },
      {|{"v":1,"kind":"cache","op":"stats","dir":null}|} );
    ( R.Cache_op { o_action = R.Op_clear; o_dir = Some "/tmp/store" },
      {|{"v":1,"kind":"cache","op":"clear","dir":"/tmp/store"}|} );
    ( R.Cache_op { o_action = R.Op_gc; o_dir = None },
      {|{"v":1,"kind":"cache","op":"gc","dir":null}|} );
    ( R.Stats { s_what = R.Counters },
      {|{"v":1,"kind":"stats","what":"counters"}|} );
    ( R.Stats { s_what = R.Suite },
      {|{"v":1,"kind":"stats","what":"suite"}|} );
    ( R.Stats { s_what = R.Server },
      {|{"v":1,"kind":"stats","what":"server"}|} );
    ( R.Experiments { e_job = Api.Job.make ~seed:1 ~corpus:24 () },
      {|{"v":1,"kind":"experiments","job":{"tables":[],"seed":1,"corpus":24,|}
      ^ {|"configs":[],"shard":null}}|} );
    ( R.Experiments
        {
          e_job =
            Api.Job.make ~tables:[ "summary" ]
              ~configs:
                [
                  gcc Config.O2;
                  Config.make ~disabled:[ "sra" ] Config.Clang Config.Og;
                ]
              ~shard:(2, 3) ~seed:1013 ~corpus:24 ();
        },
      {|{"v":1,"kind":"experiments","job":{"tables":["summary"],"seed":1013,|}
      ^ {|"corpus":24,"configs":[{"compiler":"gcc","level":"O2","disabled":[]},|}
      ^ {|{"compiler":"clang","level":"Og","disabled":["sra"]}],"shard":{"index":2,|}
      ^ {|"count":3}}}|} );
    ( R.Merge { m_partials = [ golden_partial ] },
      {|{"v":1,"kind":"merge","partials":[{"v":1,"shard":2,"shards":3,"seed":1013,|}
      ^ {|"corpus":24,"digest":"5f3c9a","configs":["gcc-O2","clang-Og"],"programs":8,|}
      ^ {|"rows":[{"index":9,"program":"synth-0009","family":"synth",|}
      ^ {|"config":"gcc-O2","avail":0.10000000000000001,"cov":0.66666666666666663,|}
      ^ {|"product":1},{"index":12,"program":"fuzz-0012","family":"fuzz",|}
      ^ {|"config":"clang-Og","avail":9.9999999999999995e-08,"cov":0.875,|}
      ^ {|"product":123.456}]}]}|} );
  ]

let response ?(status = Resp.Ok) ?(text = "") ?artifact ?(stats = [])
    ?(exit_code = 0) data =
  { Resp.status; text; artifact; data; stats; exit_code }

let golden_responses =
  [
    ( response Resp.D_none,
      {|{"v":1,"status":"ok","exit":0,"text":"","artifact":null,|}
      ^ {|"data":{"kind":"none"},"stats":[]}|} );
    ( response ~status:(Resp.Error "unknown program \"nope\"") ~exit_code:2
        Resp.D_none,
      {|{"v":1,"status":{"error":"unknown program \"nope\""},"exit":2,"text":"",|}
      ^ {|"artifact":null,"data":{"kind":"none"},"stats":[]}|} );
    ( response ~status:Resp.Overloaded ~exit_code:3 Resp.D_none,
      {|{"v":1,"status":"overloaded","exit":3,"text":"","artifact":null,|}
      ^ {|"data":{"kind":"none"},"stats":[]}|} );
    ( response ~text:"zlib gcc-O2\n\tok\n"
        ~stats:[ ("engine/compile/misses", 1); ("store/compile/hits", 0) ]
        (Resp.D_compiled
           {
             dc_program = "zlib";
             dc_config = "gcc-O2";
             dc_instrs = 1234;
             dc_funcs = 17;
             dc_text_digest = "9e107d9d372bb6826bd81d3542a419d6";
           }),
      {|{"v":1,"status":"ok","exit":0,"text":"zlib gcc-O2\n\tok\n","artifact":null,|}
      ^ {|"data":{"kind":"compiled","program":"zlib","config":"gcc-O2","instrs":1234,|}
      ^ {|"funcs":17,"text_digest":"9e107d9d372bb6826bd81d3542a419d6"},|}
      ^ {|"stats":[{"name":"engine/compile/misses","value":1},|}
      ^ {|{"name":"store/compile/hits","value":0}]}|} );
    ( response
        (Resp.D_ranked
           {
             dr_config = "gcc-O1";
             dr_top = [ ("dce", 12.5, 1.0 /. 3.0); ("licm", -0.25, 2.0) ];
           }),
      {|{"v":1,"status":"ok","exit":0,"text":"","artifact":null,|}
      ^ {|"data":{"kind":"ranked","config":"gcc-O1","top":[{"pass":"dce","pct":12.5,|}
      ^ {|"rank":0.33333333333333331},{"pass":"licm","pct":-0.25,"rank":2}]},|}
      ^ {|"stats":[]}|} );
    ( response
        (Resp.D_tuned
           {
             dt_config = "gcc-O2-d2";
             dt_disabled = [ "dce"; "sra" ];
             dt_debug = 0.734;
             dt_speedup = 1.0625;
           }),
      {|{"v":1,"status":"ok","exit":0,"text":"","artifact":null,|}
      ^ {|"data":{"kind":"tuned","config":"gcc-O2-d2","disabled":["dce","sra"],|}
      ^ {|"debug":0.73399999999999999,"speedup":1.0625},"stats":[]}|} );
    ( response
        (Resp.D_frontier
           {
             df_config = "gcc-O2";
             df_strategy = "hill-climb";
             df_seed = 1;
             df_budget = 12;
             df_evaluated = 11;
             df_dominated = 4;
             df_front = [ ("gcc-O2", 0.5, 1.0); ("gcc-O2-d2", 0.6125, 0.9) ];
           }),
      {|{"v":1,"status":"ok","exit":0,"text":"","artifact":null,|}
      ^ {|"data":{"kind":"frontier","config":"gcc-O2","strategy":"hill-climb",|}
      ^ {|"seed":1,"budget":12,"evaluated":11,"dominated":4,|}
      ^ {|"front":[{"name":"gcc-O2","debug":0.5,"speedup":1},{"name":"gcc-O2-d2",|}
      ^ {|"debug":0.61250000000000004,"speedup":0.90000000000000002}]},"stats":[]}|} );
    ( response ~exit_code:1
        (Resp.D_checked
           {
             dk_programs = 13;
             dk_configs = 8;
             dk_runs = 104;
             dk_skipped = 2;
             dk_failures = 1;
           }),
      {|{"v":1,"status":"ok","exit":1,"text":"","artifact":null,|}
      ^ {|"data":{"kind":"checked","programs":13,"configs":8,"runs":104,"skipped":2,|}
      ^ {|"failures":1},"stats":[]}|} );
    ( response (Resp.D_cost 98765),
      {|{"v":1,"status":"ok","exit":0,"text":"","artifact":null,|}
      ^ {|"data":{"kind":"cost","cost":98765},"stats":[]}|} );
    ( response (Resp.D_counters [ ("vm/runs", 3); ("vm/instrs", 4096) ]),
      {|{"v":1,"status":"ok","exit":0,"text":"","artifact":null,|}
      ^ {|"data":{"kind":"counters","rows":[{"name":"vm/runs","value":3},|}
      ^ {|{"name":"vm/instrs","value":4096}]},"stats":[]}|} );
    ( response ~artifact:"{\"traceEvents\":[]}\n" (Resp.D_partial golden_partial),
      {|{"v":1,"status":"ok","exit":0,"text":"",|}
      ^ {|"artifact":"{\"traceEvents\":[]}\n","data":{"kind":"partial",|}
      ^ {|"partial":{"v":1,"shard":2,"shards":3,"seed":1013,"corpus":24,|}
      ^ {|"digest":"5f3c9a","configs":["gcc-O2","clang-Og"],"programs":8,|}
      ^ {|"rows":[{"index":9,"program":"synth-0009","family":"synth",|}
      ^ {|"config":"gcc-O2","avail":0.10000000000000001,"cov":0.66666666666666663,|}
      ^ {|"product":1},{"index":12,"program":"fuzz-0012","family":"fuzz",|}
      ^ {|"config":"clang-Og","avail":9.9999999999999995e-08,"cov":0.875,|}
      ^ {|"product":123.456}]}},"stats":[]}|} );
  ]

let golden_partials =
  [
    ( golden_partial,
      {|{"v":1,"shard":2,"shards":3,"seed":1013,"corpus":24,"digest":"5f3c9a",|}
      ^ {|"configs":["gcc-O2","clang-Og"],"programs":8,"rows":[{"index":9,|}
      ^ {|"program":"synth-0009","family":"synth","config":"gcc-O2",|}
      ^ {|"avail":0.10000000000000001,"cov":0.66666666666666663,"product":1},|}
      ^ {|{"index":12,"program":"fuzz-0012","family":"fuzz","config":"clang-Og",|}
      ^ {|"avail":9.9999999999999995e-08,"cov":0.875,"product":123.456}]}|} );
    ( { golden_partial with pt_shard = 1; pt_shards = 1; pt_programs = 0; pt_rows = [] },
      {|{"v":1,"shard":1,"shards":1,"seed":1013,"corpus":24,"digest":"5f3c9a",|}
      ^ {|"configs":["gcc-O2","clang-Og"],"programs":0,"rows":[]}|} );
  ]

let test_golden_wire () =
  let pin name to_json of_json golden =
    List.iteri
      (fun i (v, bytes) ->
        let what = Printf.sprintf "%s %d" name i in
        check Alcotest.string (what ^ " encodes to its pinned bytes") bytes
          (to_json v);
        checkb (what ^ " decodes back") true (of_json bytes = Ok v))
      golden
  in
  pin "request" Api.request_to_json Api.request_of_json golden_requests;
  pin "response" Api.response_to_json Api.response_of_json golden_responses;
  pin "partial" Api.partial_to_json Api.partial_of_json golden_partials

(* One defect per document, and the one-line message it earns. *)
let decode_errors =
  let req s = Result.map ignore (Api.request_of_json s)
  and resp s = Result.map ignore (Api.response_of_json s)
  and part s = Result.map ignore (Api.partial_of_json s) in
  let cfg = {|"config":{"compiler":"gcc","level":"O2","disabled":[]}|} in
  let rank fields = Printf.sprintf {|{"v":1,"kind":"rank",%s}|} fields in
  let compile fields =
    Printf.sprintf {|{"v":1,"kind":"compile","subject":{"name":"zlib"},%s,%s}|}
      cfg fields
  in
  let summary = {|"profile":null,"sanitize":false,"view":{"kind":"summary"}|} in
  let row = {|{"index":1,"program":"p","family":"f","config":"c","avail":1,|} in
  let partial ?(shard = 1) ?(rows = "[]") () =
    Printf.sprintf
      {|{"v":1,"shard":%d,"shards":2,"seed":1,"corpus":4,"digest":"d",|}
    shard
    ^ Printf.sprintf {|"configs":["gcc-O2"],"programs":0,"rows":%s}|} rows
  in
  let response ?(status = {|"ok"|}) ?(data = {|{"kind":"none"}|})
      ?(stats = "[]") () =
    Printf.sprintf {|{"v":1,"status":%s,"exit":0,"text":"","artifact":null,|} status
    ^ Printf.sprintf {|"data":%s,"stats":%s}|} data stats
  in
  let config fields = rank (Printf.sprintf {|"config":{%s},"k":3|} fields) in
  let partial_shard = {|invalid partial shard 3/2 (need 1 <= shard <= shards)|} in
  [
    (req, "", {|malformed JSON: unexpected end of input at offset 0|});
    (req, {|{"v":1} trailing|}, {|malformed JSON: trailing garbage at offset 8|});
    (req, {|{"kind":"stats","what":"suite"}|}, {|missing version stamp "v"|});
    (req, {|{"v":"1","kind":"stats","what":"suite"}|}, {|missing version stamp "v"|});
    ( req,
      {|{"v":2,"kind":"stats","what":"suite"}|},
      {|unsupported api version 2 (this build speaks 1)|} );
    (req, {|{"v":1}|}, {|missing field "kind"|});
    (req, {|{"v":1,"kind":"wat"}|}, {|unknown request kind "wat"|});
    (req, rank cfg, {|missing field "k"|});
    (req, rank (cfg ^ {|,"k":"5"|}), {|missing field "k"|});
    (req, rank {|"k":3|}, {|missing field "config"|});
    ( req,
      config {|"compiler":"icc","level":"O2","disabled":[]|},
      {|unknown compiler "icc"|} );
    (req, config {|"compiler":"gcc","level":"O4","disabled":[]|}, {|unknown level "O4"|});
    ( req,
      config {|"compiler":"gcc","level":"O2","disabled":[1]|},
      {|missing field "disabled"|} );
    (req, config {|"compiler":"gcc","disabled":[]|}, {|missing field "level"|});
    ( req,
      compile {|"profile":null,"sanitize":false,"view":{"kind":"x"}|},
      {|unknown view kind "x"|} );
    ( req,
      compile {|"profile":7,"sanitize":false,"view":{"kind":"summary"}|},
      {|missing field "profile"|} );
    ( req,
      compile {|"profile":null,"sanitize":0,"view":{"kind":"summary"}|},
      {|missing field "sanitize"|} );
    ( req,
      {|{"v":1,"kind":"compile","subject":{"name":"f","source":5},|} ^ cfg ^ ","
      ^ summary ^ "}",
      {|missing field "source"|} );
    ( req,
      {|{"v":1,"kind":"search",|} ^ cfg
      ^ {|,"strategy":"greedy","budget":1,"seed":1,"debug_weight":1,|}
      ^ {|"speed_weight":1}|},
      {|unknown search strategy "greedy"|} );
    ( req,
      {|{"v":1,"kind":"bench","subject":{"name":"zlib"},|} ^ cfg
      ^ {|,"action":{"kind":"x"}}|},
      {|unknown bench action "x"|} );
    (req, {|{"v":1,"kind":"cache","op":"x","dir":null}|}, {|unknown cache op "x"|});
    (req, {|{"v":1,"kind":"stats","what":"x"}|}, {|unknown stats selector "x"|});
    ( req,
      {|{"v":1,"kind":"experiments","job":{"tables":[],"seed":1,"corpus":4,|}
      ^ {|"configs":[],"shard":{"index":3,"count":2}}}|},
      {|invalid shard 3/2 (need 1 <= index <= count)|} );
    ( req,
      {|{"v":1,"kind":"merge","partials":[|} ^ partial ~shard:3 () ^ "]}",
      partial_shard );
    (resp, response ~status:"5" (), {|bad status|});
    (resp, response ~status:{|"fine"|} (), {|bad status|});
    (resp, response ~status:{|{"error":5}|} (), {|missing field "error"|});
    (resp, response ~data:{|{"kind":"x"}|} (), {|unknown data kind "x"|});
    (resp, response ~stats:{|[{"name":"a"}]|} (), {|missing field "value"|});
    (part, {|{"v":42}|}, {|unsupported api version 42 (this build speaks 1)|});
    (part, partial ~shard:3 (), partial_shard);
    (part, partial ~rows:("[" ^ row ^ {|"product":1}]|}) (), {|missing field "cov"|});
  ]

let test_decode_errors () =
  List.iter
    (fun (decode, text, msg) ->
      check
        Alcotest.(result unit string)
        ("decoding " ^ text) (Error msg) (decode text))
    decode_errors

(* Decode rules beyond the canonical bytes: the strategy alias, and a
   missing optional key or a null "source" reading as absent. *)
let test_decode_rules () =
  let cfg = {|"config":{"compiler":"gcc","level":"O2","disabled":[]}|} in
  let decodes_to want text =
    checkb ("decoding " ^ text) true (Api.request_of_json text = Ok want)
  in
  decodes_to
    (search Api.Tuning.Hill_climb 12 1 1.0 1.0)
    ({|{"v":1,"kind":"search",|} ^ cfg
    ^ {|,"strategy":"hillclimb","budget":12,"seed":1,"debug_weight":1,|}
    ^ {|"speed_weight":1}|});
  decodes_to (compile R.Summary)
    ({|{"v":1,"kind":"compile","subject":{"name":"zlib","source":null},|} ^ cfg
    ^ {|,"sanitize":false,"view":{"kind":"summary"}}|})

(* ------------------------------------------------------------------ *)
(* Framing torture                                                     *)

let with_socketpair f =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close a with Unix.Unix_error _ -> ());
      try Unix.close b with Unix.Unix_error _ -> ())
    (fun () -> f a b)

let test_framing_roundtrip () =
  with_socketpair (fun a b ->
      List.iter
        (fun payload ->
          Framing.write_frame a payload;
          check Alcotest.string "frame round-trips" payload (Framing.read_frame b))
        [ ""; "x"; String.make 70_000 '\xAB'; "{\"v\":1}"; String.init 256 Char.chr ])

let test_framing_partial_reads () =
  (* Feed a frame one byte at a time from a writer thread: the reader
     must reassemble it regardless of how the bytes trickle in. *)
  with_socketpair (fun a b ->
      let payload = String.init 1500 (fun i -> Char.chr (i mod 256)) in
      let n = String.length payload in
      let wire =
        Bytes.cat (Framing.encode_length n) (Bytes.of_string payload)
      in
      let writer =
        Thread.create
          (fun () ->
            Bytes.iter
              (fun c ->
                ignore (Unix.write a (Bytes.make 1 c) 0 1);
                if Char.code c mod 100 = 0 then Thread.yield ())
              wire)
          ()
      in
      let got = Framing.read_frame b in
      Thread.join writer;
      check Alcotest.string "reassembled" payload got)

let test_framing_oversized_prefix () =
  with_socketpair (fun a b ->
      let huge = Framing.encode_length (Framing.max_frame + 1) in
      ignore (Unix.write a huge 0 4);
      match Framing.read_frame b with
      | _ -> Alcotest.fail "oversized prefix accepted"
      | exception Framing.Oversized n ->
          check Alcotest.int "reported size" (Framing.max_frame + 1) n);
  (* and writing one is refused outright *)
  with_socketpair (fun a _ ->
      match Framing.write_frame a (String.make (Framing.max_frame + 1) ' ') with
      | _ -> Alcotest.fail "oversized write accepted"
      | exception Framing.Oversized _ -> ())

let test_framing_mid_message_disconnect () =
  with_socketpair (fun a b ->
      ignore (Unix.write a (Framing.encode_length 100) 0 4);
      ignore (Unix.write a (Bytes.make 10 'x') 0 10);
      Unix.close a;
      match Framing.read_frame b with
      | _ -> Alcotest.fail "truncated frame accepted"
      | exception Framing.Closed -> ());
  (* header itself truncated *)
  with_socketpair (fun a b ->
      ignore (Unix.write a (Bytes.make 2 '\000') 0 2);
      Unix.close a;
      match Framing.read_frame b with
      | _ -> Alcotest.fail "truncated header accepted"
      | exception Framing.Closed -> ())

let test_framing_clean_eof () =
  with_socketpair (fun a b ->
      Framing.write_frame a "last";
      Unix.close a;
      checkb "first frame" true (Framing.read_frame_opt b = Some "last");
      checkb "then clean EOF" true (Framing.read_frame_opt b = None))

(* ------------------------------------------------------------------ *)
(* Execute semantics                                                   *)

let test_execute_error_response () =
  let ctx = Api.create_ctx () in
  let resp =
    Api.execute ctx
      (R.Compile
         {
           c_subject = R.Named "no-such-program";
           c_config = Config.make Config.Gcc Config.O1;
           c_profile = None;
           c_sanitize = false;
           c_view = R.Summary;
         })
  in
  (match resp.Resp.status with
  | Resp.Error msg ->
      check Alcotest.string "one-line message" "unknown program no-such-program"
        msg
  | _ -> Alcotest.fail "expected an error response");
  check Alcotest.int "exit code" 2 resp.Resp.exit_code;
  (* An inline subject is parsed where its AST is first needed, not
     when the request is read; a bad source still fails every view with
     the message and exit code it always had. *)
  let subject src = R.Inline { in_name = "bad.c"; in_source = src } in
  let config = Config.make Config.Gcc Config.O2 in
  let compile src view =
    R.Compile
      { c_subject = subject src; c_config = config; c_profile = None;
        c_sanitize = false; c_view = view }
  in
  List.iter
    (fun (src, msg) ->
      List.iter
        (fun (view, req) ->
          let resp = Api.execute ctx req in
          check Alcotest.string (view ^ ": " ^ msg) msg
            (match resp.Resp.status with
            | Resp.Error m -> m
            | _ -> "not an error");
          check Alcotest.int (view ^ ": exit code") 2 resp.Resp.exit_code)
        [
          ("summary", compile src R.Summary);
          ("measure", compile src R.Measure);
          ("dwarf-size", compile src R.Dwarf_size);
          ("cost", R.Bench { b_subject = subject src; b_config = config;
                             b_action = R.Cost });
        ])
    [
      ("int main() { return 1 }", "parse error line 1: expected ; but found }");
      ("int main() { return 1; } @", "lex error line 1: unexpected character '@'");
      ("int main() { return x; }", "check error line 1: undeclared variable x");
      ("int f() { return 1; }", "MiniC source must define main()");
    ];
  (* the context stays usable after a failed request *)
  let ok = Api.execute ctx (R.Stats { s_what = R.Suite }) in
  checkb "recovers" true (ok.Resp.status = Resp.Ok)

let test_execute_stats_delta () =
  (* Two identical compile requests on one context: the first pays the
     misses, the second's delta must report hits, not re-count the
     first request's work. *)
  let ctx = Api.create_ctx () in
  let req =
    R.Bench
      {
        b_subject = R.Named "zlib";
        b_config = Config.make Config.Gcc Config.O1;
        b_action = R.Cost;
      }
  in
  let r1 = Api.execute ctx req in
  let r2 = Api.execute ctx req in
  checkb "first ok" true (r1.Resp.status = Resp.Ok);
  check Alcotest.string "same text" r1.Resp.text r2.Resp.text;
  let v name rows = Option.value ~default:0 (List.assoc_opt name rows) in
  checkb "first request misses" true
    (v "engine/bench-cost/misses" r1.Resp.stats >= 1);
  check Alcotest.int "second request pays no miss" 0
    (v "engine/bench-cost/misses" r2.Resp.stats);
  checkb "second request hits" true
    (v "engine/bench-cost/hits" r2.Resp.stats >= 1)

(* ------------------------------------------------------------------ *)
(* Daemon: N clients x M requests, byte-identical to the CLI path      *)

let tmp_socket tag =
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "dt-%s-%d.sock" tag (Unix.getpid ()))

let identity_requests =
  let cfg = Config.make Config.Gcc Config.Og in
  [
    R.Stats { s_what = R.Suite };
    R.Compile
      {
        c_subject = R.Named "zlib";
        c_config = cfg;
        c_profile = None;
        c_sanitize = false;
        c_view = R.Passes;
      };
    R.Compile
      {
        c_subject = R.Named "zlib";
        c_config = cfg;
        c_profile = None;
        c_sanitize = false;
        c_view = R.Summary;
      };
    R.Bench
      {
        b_subject = R.Named "zlib";
        b_config = cfg;
        b_action = R.Exec { x_entry = "fuzz_deflate"; x_input = [ 1; 2; 3 ] };
      };
    R.Compile
      {
        c_subject = R.Named "bzip2";
        c_config = cfg;
        c_profile = None;
        c_sanitize = false;
        c_view = R.Verify;
      };
  ]

let test_daemon_byte_identity () =
  (* Expected bytes: each request through a fresh in-process context —
     exactly what the CLI does without --connect. *)
  let expected =
    List.map
      (fun req ->
        let resp = Api.execute (Api.create_ctx ()) req in
        checkb "cli path ok" true (resp.Resp.status = Resp.Ok);
        resp.Resp.text)
      identity_requests
  in
  let socket = tmp_socket "ident" in
  let server = Api_server.create ~queue_limit:16 ~socket (Api.create_ctx ()) in
  let accept_thread = Api_server.start server in
  let n_clients = 4 in
  let rounds = 3 in
  let results =
    Array.init n_clients (fun _ ->
        Array.make (rounds * List.length identity_requests) "")
  in
  let client i () =
    let c = Api_client.connect ~timeout:60.0 socket in
    let slot = ref 0 in
    for _ = 1 to rounds do
      List.iter
        (fun req ->
          (match Api_client.rpc c req with
          | Ok resp ->
              checkb "daemon ok" true (resp.Resp.status = Resp.Ok);
              results.(i).(!slot) <- resp.Resp.text
          | Error msg -> Alcotest.fail ("rpc failed: " ^ msg));
          incr slot)
        identity_requests
    done;
    Api_client.close c
  in
  let threads =
    List.init n_clients (fun i -> Thread.create (client i) ())
  in
  List.iter Thread.join threads;
  Api_server.stop server;
  Thread.join accept_thread;
  let per_round = List.length identity_requests in
  Array.iteri
    (fun i per_client ->
      Array.iteri
        (fun slot got ->
          let want = List.nth expected (slot mod per_round) in
          check Alcotest.string
            (Printf.sprintf "client %d slot %d matches CLI path" i slot)
            want got)
        per_client)
    results

let test_execute_concurrent_counters () =
  (* Per-request attribution under real parallelism: N domains hammer
     one shared context with disjoint (program, config) pairs, and each
     response's counters (and text) must be byte-equal to the same
     request executed alone on a fresh context — no bleed from whatever
     ran alongside. Disjoint pairs are essential: concurrent duplicate
     keys legitimately flip miss/dedup/hit by arrival order. *)
  let reqs =
    List.map
      (fun (name, level) ->
        R.Compile
          {
            c_subject = R.Named name;
            c_config = Config.make Config.Gcc level;
            c_profile = None;
            c_sanitize = false;
            c_view = R.Summary;
          })
      [
        ("zlib", Config.O1);
        ("bzip2", Config.O2);
        ("libexif", Config.O1);
        ("liblouis", Config.O2);
      ]
  in
  let serialized =
    List.map
      (fun req ->
        let resp = Api.execute (Api.create_ctx ()) req in
        checkb "serialized ok" true (resp.Resp.status = Resp.Ok);
        resp)
      reqs
  in
  let ctx = Api.create_ctx () in
  let doms =
    List.map (fun req -> Domain.spawn (fun () -> Api.execute ctx req)) reqs
  in
  let concurrent = List.map Domain.join doms in
  List.iteri
    (fun i (want, got) ->
      checkb
        (Printf.sprintf "request %d concurrent ok" i)
        true
        (got.Resp.status = Resp.Ok);
      check Alcotest.string
        (Printf.sprintf "request %d text matches serialized run" i)
        want.Resp.text got.Resp.text;
      check
        Alcotest.(list (pair string int))
        (Printf.sprintf "request %d counters match serialized run" i)
        want.Resp.stats got.Resp.stats)
    (List.combine serialized concurrent)

let test_daemon_tcp_identity () =
  (* The TCP transport speaks the identical framing: responses over
     --listen/--connect HOST:PORT are byte-equal to the Unix-socket
     path against the same warm daemon. *)
  let socket = tmp_socket "tcp" in
  let server =
    Api_server.create ~listen:"localhost:0" ~socket (Api.create_ctx ())
  in
  let accept_thread = Api_server.start server in
  let host, port =
    match Api_server.listen_addr server with
    | Some hp -> hp
    | None -> Alcotest.fail "no TCP listener bound"
  in
  checkb "ephemeral port bound" true (port > 0);
  let endpoint = Printf.sprintf "%s:%d" host port in
  List.iter
    (fun req ->
      match
        ( Api_client.oneshot ~timeout:60.0 socket req,
          Api_client.oneshot ~timeout:60.0 endpoint req )
      with
      | Ok a, Ok b ->
          checkb "unix ok" true (a.Resp.status = Resp.Ok);
          checkb "tcp ok" true (b.Resp.status = Resp.Ok);
          check Alcotest.string "tcp text matches unix text" a.Resp.text
            b.Resp.text
      | Error msg, _ -> Alcotest.fail ("unix rpc failed: " ^ msg)
      | _, Error msg -> Alcotest.fail ("tcp rpc failed: " ^ msg))
    identity_requests;
  Api_server.stop server;
  Thread.join accept_thread

let test_daemon_overloaded () =
  (* Deterministic backpressure: park the execute gate so the first
     admitted request holds its slot inside execute, then a second
     concurrent request must be refused with Overloaded immediately —
     not queued, not hung. *)
  let ctx = Api.create_ctx () in
  let socket = tmp_socket "load" in
  let server = Api_server.create ~queue_limit:1 ~socket ctx in
  let accept_thread = Api_server.start server in
  let gate = Mutex.create () in
  Mutex.lock gate;
  Api.execute_gate :=
    (fun () ->
      Mutex.lock gate;
      Mutex.unlock gate);
  let slow_result = ref None in
  let slow =
    Thread.create
      (fun () ->
        slow_result := Some (Api_client.oneshot socket (R.Stats { s_what = R.Suite })))
      ()
  in
  (* wait until the slow request is admitted (in_flight = 1) *)
  let rec wait_admitted n =
    let in_flight =
      Option.value ~default:0
        (List.assoc_opt "serve/in_flight" (Api_server.counters server))
    in
    if in_flight < 1 then begin
      if n > 2000 then Alcotest.fail "request never admitted";
      Thread.yield ();
      Unix.sleepf 0.005;
      wait_admitted (n + 1)
    end
  in
  wait_admitted 0;
  (match Api_client.oneshot ~timeout:30.0 socket (R.Stats { s_what = R.Suite }) with
  | Ok resp ->
      checkb "refused with overloaded" true (resp.Resp.status = Resp.Overloaded);
      checkb "non-zero exit" true (resp.Resp.exit_code <> 0)
  | Error msg -> Alcotest.fail ("overload probe failed: " ^ msg));
  Mutex.unlock gate;
  Thread.join slow;
  Api.execute_gate := (fun () -> ());
  (match !slow_result with
  | Some (Ok resp) -> checkb "parked request completes" true (resp.Resp.status = Resp.Ok)
  | _ -> Alcotest.fail "parked request lost");
  Api_server.stop server;
  Thread.join accept_thread

let test_daemon_serial () =
  (* The execution model: however many clients send at once, one
     request executes at a time, and on the main domain — the one
     domain Engine.Pool.map fans out from, which lets serve --jobs N
     spread a request's own sweeps. The gate holds each request for
     20 ms, so any overlap would show. *)
  let socket = tmp_socket "serial" in
  let server = Api_server.create ~queue_limit:16 ~socket (Api.create_ctx ()) in
  let accept_thread = Api_server.start server in
  let inside = Atomic.make 0 and most = Atomic.make 0 in
  let off_main = Atomic.make 0 and answered = Atomic.make 0 in
  Api.execute_gate :=
    (fun () ->
      let n = Atomic.fetch_and_add inside 1 + 1 in
      let rec raise_most () =
        let m = Atomic.get most in
        if n > m && not (Atomic.compare_and_set most m n) then raise_most ()
      in
      raise_most ();
      if not (Domain.is_main_domain ()) then Atomic.incr off_main;
      Unix.sleepf 0.02;
      Atomic.decr inside);
  Fun.protect ~finally:(fun () -> Api.execute_gate := fun () -> ())
  @@ fun () ->
  let client () =
    let c = Api_client.connect ~timeout:60.0 socket in
    for _ = 1 to 3 do
      match Api_client.rpc c (R.Stats { s_what = R.Suite }) with
      | Ok resp when resp.Resp.status = Resp.Ok -> Atomic.incr answered
      | _ -> ()
    done;
    Api_client.close c
  in
  List.iter Thread.join (List.init 4 (fun _ -> Thread.create client ()));
  Api_server.stop server;
  Thread.join accept_thread;
  check Alcotest.int "every request answered" 12 (Atomic.get answered);
  check Alcotest.int "at most one request executing" 1 (Atomic.get most);
  check Alcotest.int "requests executed off the main domain" 0
    (Atomic.get off_main)

let test_daemon_protocol_error () =
  (* A frame that is not a valid request must produce an error
     response, and the session must survive for the next frame. *)
  let socket = tmp_socket "proto" in
  let server = Api_server.create ~socket (Api.create_ctx ()) in
  let accept_thread = Api_server.start server in
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX socket);
  Framing.write_frame fd "this is not json";
  (match Api.response_of_json (Framing.read_frame fd) with
  | Ok resp -> checkb "error status" true
      (match resp.Resp.status with Resp.Error _ -> true | _ -> false)
  | Error msg -> Alcotest.fail ("bad error response: " ^ msg));
  Framing.write_frame fd
    (Api.request_to_json (R.Stats { s_what = R.Suite }));
  (match Api.response_of_json (Framing.read_frame fd) with
  | Ok resp -> checkb "session survives" true (resp.Resp.status = Resp.Ok)
  | Error msg -> Alcotest.fail ("bad follow-up response: " ^ msg));
  (* Hostile nesting is refused at the reader's depth limit. *)
  Framing.write_frame fd (String.make (1024 * 1024) '[');
  (match Api.response_of_json (Framing.read_frame fd) with
  | Ok { Resp.status = Resp.Error msg; _ } ->
      let limit = Printf.sprintf "nesting deeper than %d" Util.Json.max_depth in
      let n = String.length limit in
      let rec has i =
        i + n <= String.length msg && (String.sub msg i n = limit || has (i + 1))
      in
      checkb ("error names the depth limit: " ^ msg) true (has 0)
  | Ok _ -> Alcotest.fail "deeply nested frame accepted"
  | Error msg -> Alcotest.fail ("bad error response: " ^ msg));
  Framing.write_frame fd
    (Api.request_to_json (R.Stats { s_what = R.Suite }));
  (match Api.response_of_json (Framing.read_frame fd) with
  | Ok resp -> checkb "session survives nesting" true (resp.Resp.status = Resp.Ok)
  | Error msg -> Alcotest.fail ("bad follow-up response: " ^ msg));
  Unix.close fd;
  Api_server.stop server;
  Thread.join accept_thread

let tests =
  [
    Alcotest.test_case "version stamp required" `Quick test_version_missing;
    Alcotest.test_case "malformed JSON rejected" `Quick test_malformed_json;
    QCheck_alcotest.to_alcotest qcheck_request_roundtrip;
    QCheck_alcotest.to_alcotest qcheck_response_roundtrip;
    QCheck_alcotest.to_alcotest qcheck_unknown_fields_tolerated;
    QCheck_alcotest.to_alcotest qcheck_version_rejected;
    QCheck_alcotest.to_alcotest qcheck_json_string_roundtrip;
    QCheck_alcotest.to_alcotest qcheck_partial_roundtrip;
    QCheck_alcotest.to_alcotest qcheck_partial_unknown_fields;
    QCheck_alcotest.to_alcotest qcheck_partial_version_rejected;
    Alcotest.test_case "partial decoder rejects bad shard arithmetic" `Quick
      test_partial_invalid_shard;
    Alcotest.test_case "golden wire bytes" `Quick test_golden_wire;
    Alcotest.test_case "single-defect decode errors" `Quick test_decode_errors;
    Alcotest.test_case "decode rules" `Quick test_decode_rules;
    Alcotest.test_case "framing round-trip" `Quick test_framing_roundtrip;
    Alcotest.test_case "framing partial reads" `Quick test_framing_partial_reads;
    Alcotest.test_case "framing oversized prefix" `Quick
      test_framing_oversized_prefix;
    Alcotest.test_case "framing mid-message disconnect" `Quick
      test_framing_mid_message_disconnect;
    Alcotest.test_case "framing clean EOF" `Quick test_framing_clean_eof;
    Alcotest.test_case "execute turns failures into error responses" `Quick
      test_execute_error_response;
    Alcotest.test_case "per-request counter deltas" `Quick
      test_execute_stats_delta;
    Alcotest.test_case "concurrent executes keep per-request counters" `Quick
      test_execute_concurrent_counters;
    Alcotest.test_case "daemon byte-identical to CLI path (4x3x5)" `Quick
      test_daemon_byte_identity;
    Alcotest.test_case "daemon TCP transport byte-identical to unix" `Quick
      test_daemon_tcp_identity;
    Alcotest.test_case "daemon backpressure: overloaded, not hung" `Quick
      test_daemon_overloaded;
    Alcotest.test_case "daemon executes one request at a time" `Quick
      test_daemon_serial;
    Alcotest.test_case "daemon survives protocol garbage" `Quick
      test_daemon_protocol_error;
  ]
