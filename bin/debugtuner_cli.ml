(* The DebugTuner command-line interface.

     debugtuner compile     -p libpng -c gcc -l O2 [-d pass]... [--profile F]
     debugtuner measure     -p libpng -c gcc -l O2 [-d pass]...
     debugtuner rank        -c gcc -l O2 [-k 10]
     debugtuner tune        -c gcc -l O1 -y 5
     debugtuner search      -c gcc -l O2 --strategy hill-climb --budget 64
     debugtuner passes      -c clang -l O3
     debugtuner suite
     debugtuner run         -p zlib -e fuzz_deflate -i 1,2,3
     debugtuner trace       -p zlib -l O2 -o trace.json [--against old.json]
     debugtuner debug       -p zlib -l Og "break 12" "run 1,2" "print x" c
     debugtuner dump        -p zlib -l O2 [-s functions|lines|locs]
     debugtuner verify      -p zlib -l O3
     debugtuner disasm      -p zlib -l O2 [-f func]
     debugtuner dwarf-size  -p zlib -c gcc
     debugtuner sample      -p 505.mcf -l O2 [-o mcf.prof]
     debugtuner profile     -p zlib -O2 --pipeline gcc [--trace out.json]
     debugtuner pass-trace  -p zlib -l O2
     debugtuner value-check -p zlib -l Og
     debugtuner stats       [counters|suite|server]
     debugtuner experiments --corpus 10000 [--shard 2/4 --partial-dir P]
     debugtuner merge       --partial-dir P
     debugtuner serve       --socket /tmp/dt.sock [--queue-limit 8]

   Every subcommand parses its flags into one [Api.Request.t] and
   dispatches through the single [Api.execute] — in-process by
   default, or in a running daemon with --connect PATH (the daemon's
   caches are shared across all clients, so warm requests are cheap).
   Programs are the built-in test-suite / SPEC-analog / selfcomp
   sources (see `debugtuner suite`), or a path to a MiniC file (read
   client-side; the daemon never touches this machine's paths). *)

open Cmdliner

let die_code code fmt =
  Printf.ksprintf
    (fun s ->
      Printf.eprintf "debugtuner: %s\n" s;
      exit (if code = 0 then 2 else code))
    fmt

let die fmt = die_code 2 fmt

let read_file path =
  match open_in_bin path with
  | exception Sys_error msg -> die "%s" msg
  | ic ->
      let n = in_channel_length ic in
      let s = really_input_string ic n in
      close_in ic;
      s

let write_file path contents =
  match open_out_bin path with
  | exception Sys_error msg -> die "%s" msg
  | oc ->
      output_string oc contents;
      close_out oc

let parse_input_list s =
  if s = "" then []
  else
    String.split_on_char ',' s
    |> List.map (fun v ->
           match int_of_string_opt (String.trim v) with
           | Some i -> i
           | None -> die "not an integer input: %s" v)

(* ------------------------------------------------------------------ *)
(* Shared arguments                                                    *)

let compiler_conv =
  Arg.conv
    ( (fun s ->
        match String.lowercase_ascii s with
        | "gcc" -> Ok Debugtuner.Config.Gcc
        | "clang" -> Ok Debugtuner.Config.Clang
        | _ -> Error (`Msg "compiler must be gcc or clang")),
      fun ppf c ->
        Format.pp_print_string ppf (Debugtuner.Config.compiler_name c) )

let level_conv =
  Arg.conv
    ( (fun s ->
        match String.uppercase_ascii s with
        | "O0" -> Ok Debugtuner.Config.O0
        | "OG" -> Ok Debugtuner.Config.Og
        | "O1" -> Ok Debugtuner.Config.O1
        | "O2" -> Ok Debugtuner.Config.O2
        | "O3" -> Ok Debugtuner.Config.O3
        | _ -> Error (`Msg "level must be O0, Og, O1, O2 or O3")),
      fun ppf l -> Format.pp_print_string ppf (Debugtuner.Config.level_name l)
    )

let compiler_arg =
  Arg.(
    value
    & opt compiler_conv Debugtuner.Config.Gcc
    & info [ "c"; "compiler" ] ~docv:"COMPILER" ~doc:"Pipeline family: gcc or clang.")

let level_arg =
  Arg.(
    value
    & opt level_conv Debugtuner.Config.O2
    & info [ "l"; "level" ] ~docv:"LEVEL" ~doc:"Optimization level (O0, Og, O1, O2, O3).")

let disabled_arg =
  Arg.(
    value & opt_all string []
    & info [ "d"; "disable" ] ~docv:"PASS"
        ~doc:"Disable every instance of $(docv) (repeatable).")

let program_arg =
  Arg.(
    value & opt string "libpng"
    & info [ "p"; "program" ] ~docv:"PROGRAM"
        ~doc:
          "A built-in program name (see $(b,debugtuner suite)) or a path to \
           a MiniC source file.")

(* A file path becomes an inline subject — the source travels in the
   request, so a daemon serves it without reading this machine's
   filesystem. *)
let subject_of name : Api.Request.subject =
  if Sys.file_exists name then
    Api.Request.Inline
      { in_name = Filename.basename name; in_source = read_file name }
  else Api.Request.Named name

let config compiler level disabled =
  Debugtuner.Config.make ~disabled compiler level

(* Adapters from the shared option declarations (Util.Cliopts — one
   source of truth with the bench harness) to cmdliner terms. *)
let cliopt_name (s : Util.Cliopts.spec) =
  String.sub s.Util.Cliopts.o_name 2 (String.length s.Util.Cliopts.o_name - 2)

let cliopt_flag (s : Util.Cliopts.spec) =
  Arg.(value & flag & info [ cliopt_name s ] ~doc:s.Util.Cliopts.o_doc)

let cliopt_file (s : Util.Cliopts.spec) =
  Arg.(
    value
    & opt (some string) None
    & info [ cliopt_name s ]
        ?docv:s.Util.Cliopts.o_docv ~doc:s.Util.Cliopts.o_doc)

let cliopt_int (s : Util.Cliopts.spec) default =
  Arg.(
    value & opt int default
    & info [ cliopt_name s ]
        ?docv:s.Util.Cliopts.o_docv ~doc:s.Util.Cliopts.o_doc)

let cliopt_float_opt (s : Util.Cliopts.spec) =
  Arg.(
    value
    & opt (some float) None
    & info [ cliopt_name s ]
        ?docv:s.Util.Cliopts.o_docv ~doc:s.Util.Cliopts.o_doc)

(* ------------------------------------------------------------------ *)
(* Transport: every subcommand executes its request either in-process
   or in a daemon (--connect PATH), through the same Api.execute.      *)

type transport = { tr_connect : string option; tr_timeout : float option }

let transport_term =
  let make connect timeout = { tr_connect = connect; tr_timeout = timeout } in
  Term.(
    const make
    $ cliopt_file Util.Cliopts.connect
    $ cliopt_float_opt Util.Cliopts.timeout)

let dispatch ?store ?workers (tr : transport) (req : Api.Request.t) :
    Api.Response.t =
  match tr.tr_connect with
  | Some path -> (
      match Api_client.oneshot ?timeout:tr.tr_timeout path req with
      | Ok resp -> resp
      | Error msg -> die "%s" msg)
  | None -> Api.execute (Api.create_ctx ?workers ?store ()) req

(* Surface failures the same way everywhere: one line on stderr,
   non-zero exit — never an exception trace (Api.execute catches). *)
let check_status (resp : Api.Response.t) =
  match resp.Api.Response.status with
  | Api.Response.Ok -> ()
  | Api.Response.Error msg -> die_code resp.Api.Response.exit_code "%s" msg
  | Api.Response.Overloaded ->
      die_code resp.Api.Response.exit_code
        "server overloaded (admission queue full), try again"

let finish (resp : Api.Response.t) =
  if resp.Api.Response.exit_code <> 0 then exit resp.Api.Response.exit_code

(* Run a request and print its canonical text; the common case. *)
let simple ?store tr req =
  let resp = dispatch ?store tr req in
  check_status resp;
  print_string resp.Api.Response.text;
  finish resp

let artifact_of (resp : Api.Response.t) =
  match resp.Api.Response.artifact with
  | Some a -> a
  | None -> die "server returned no artifact"

(* ------------------------------------------------------------------ *)
(* compile: show binary statistics                                     *)

let compile_req ?(profile = None) ?(sanitize = false) program compiler level
    disabled view =
  Api.Request.Compile
    {
      c_subject = subject_of program;
      c_config = config compiler level disabled;
      c_profile = profile;
      c_sanitize = sanitize;
      c_view = view;
    }

let compile_cmd =
  let profile_arg =
    Arg.(
      value & opt (some string) None
      & info [ "profile" ] ~docv:"FILE"
          ~doc:"AutoFDO text profile to optimize with (see $(b,sample)).")
  in
  let run program compiler level disabled profile_file tr =
    let profile = Option.map read_file profile_file in
    simple tr
      (compile_req ~profile program compiler level disabled
         Api.Request.Summary)
  in
  Cmd.v
    (Cmd.info "compile" ~doc:"Compile a program and print binary statistics.")
    Term.(
      const run $ program_arg $ compiler_arg $ level_arg $ disabled_arg
      $ profile_arg $ transport_term)

(* ------------------------------------------------------------------ *)
(* measure: the four metric methods                                    *)

let measure_cmd =
  let run program compiler level disabled tr =
    simple tr (compile_req program compiler level disabled Api.Request.Measure)
  in
  Cmd.v
    (Cmd.info "measure"
       ~doc:"Measure debug-information quality of a configuration.")
    Term.(
      const run $ program_arg $ compiler_arg $ level_arg $ disabled_arg
      $ transport_term)

(* ------------------------------------------------------------------ *)
(* rank: the DebugTuner sweep                                          *)

let rank_cmd =
  let k_arg =
    Arg.(value & opt int 10 & info [ "k" ] ~docv:"K" ~doc:"Entries to print.")
  in
  let run compiler level k tr =
    simple tr
      (Api.Request.Rank
         { r_config = Debugtuner.Config.make compiler level; r_k = k })
  in
  Cmd.v
    (Cmd.info "rank"
       ~doc:"Rank a level's passes by debug-information impact (Tables V/VI).")
    Term.(
      const run $ compiler_arg $ level_arg $ k_arg $ transport_term)

(* ------------------------------------------------------------------ *)
(* tune: build and evaluate an Ox-dy configuration                     *)

let tune_cmd =
  let y_arg =
    Arg.(value & opt int 5 & info [ "y" ] ~docv:"Y" ~doc:"Passes to disable.")
  in
  let run compiler level y tr =
    simple tr
      (Api.Request.Tune
         { t_config = Debugtuner.Config.make compiler level; t_y = y })
  in
  Cmd.v
    (Cmd.info "tune"
       ~doc:"Build an Ox-dy configuration and report its debug/perf trade.")
    Term.(
      const run $ compiler_arg $ level_arg $ y_arg $ transport_term)

(* ------------------------------------------------------------------ *)
(* search: Pareto-front search over the 2^N disable-set space          *)

let search_cmd =
  let strategy_conv =
    let parse s =
      match Debugtuner.Tuning.strategy_of_string s with
      | Some st -> Ok st
      | None ->
          Error
            (`Msg
               (Printf.sprintf
                  "unknown strategy %S (expected random, hill-climb or bandit)"
                  s))
    in
    Arg.conv
      ( parse,
        fun ppf st ->
          Format.pp_print_string ppf (Debugtuner.Tuning.strategy_name st) )
  in
  let strategy_arg =
    Arg.(
      value
      & opt strategy_conv Debugtuner.Tuning.Hill_climb
      & info [ "strategy" ] ~docv:"STRATEGY"
          ~doc:"Search strategy: $(b,random), $(b,hill-climb) or $(b,bandit).")
  in
  let budget_arg =
    Arg.(
      value & opt int 64
      & info [ "budget" ] ~docv:"N" ~doc:"Candidate evaluation budget.")
  in
  let seed_arg =
    Arg.(
      value & opt int 1
      & info [ "s"; "seed" ] ~docv:"SEED" ~doc:"Root seed of the search.")
  in
  let debug_weight_arg =
    Arg.(
      value & opt float 1.0
      & info [ "debug-weight" ] ~docv:"W"
          ~doc:"Objective weight on the debug product.")
  in
  let speed_weight_arg =
    Arg.(
      value & opt float 1.0
      & info [ "speed-weight" ] ~docv:"W"
          ~doc:"Objective weight on the speedup.")
  in
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE"
          ~doc:"Write the canonical frontier JSON here.")
  in
  let run compiler level strategy budget seed debug_weight speed_weight out
      cache_dir no_cache jobs tr =
    let store =
      if no_cache then None
      else Some (Debugtuner.Measure_engine.open_store ?dir:cache_dir ())
    in
    let resp =
      dispatch ?store ~workers:jobs tr
        (Api.Request.Search
           {
             se_config = Debugtuner.Config.make compiler level;
             se_strategy = strategy;
             se_budget = budget;
             se_seed = seed;
             se_debug_weight = debug_weight;
             se_speed_weight = speed_weight;
           })
    in
    check_status resp;
    print_string resp.Api.Response.text;
    (match out with
    | None -> ()
    | Some file ->
        write_file file (artifact_of resp ^ "\n");
        Printf.printf "frontier written to %s\n" file);
    finish resp
  in
  Cmd.v
    (Cmd.info "search"
       ~doc:
         "Search the level's 2^N pass-disable space for the debug/performance \
          Pareto front. Strictly seeded: equal (strategy, budget, seed) runs \
          print byte-identical frontiers at any $(b,--jobs) setting, and a \
          persistent cache ($(b,--cache-dir)) makes killed searches resume \
          where they stopped.")
    Term.(
      const run $ compiler_arg $ level_arg $ strategy_arg $ budget_arg
      $ seed_arg $ debug_weight_arg $ speed_weight_arg $ out_arg
      $ cliopt_file Util.Cliopts.cache_dir
      $ cliopt_flag Util.Cliopts.no_cache
      $ cliopt_int Util.Cliopts.jobs 1
      $ transport_term)

(* ------------------------------------------------------------------ *)
(* trace: JSON export + offline comparison                             *)

let entry_opt_arg =
  Arg.(
    value & opt (some string) None
    & info [ "e"; "entry" ] ~docv:"FUNC"
        ~doc:"Entry function (default: the program's first harness).")

let trace_cmd =
  let input_arg =
    Arg.(
      value & opt string ""
      & info [ "i"; "input" ] ~docv:"INTS"
          ~doc:"Comma-separated input values.")
  in
  let out_arg =
    Arg.(
      value & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Write the JSON here.")
  in
  let diff_arg =
    Arg.(
      value & opt (some string) None
      & info [ "against" ] ~docv:"FILE"
          ~doc:"Compare against a previously exported trace.")
  in
  let run program compiler level disabled entry input out against tr =
    let resp =
      dispatch tr
        (compile_req program compiler level disabled
           (Api.Request.Trace
              { t_entry = entry; t_input = parse_input_list input }))
    in
    check_status resp;
    print_string resp.Api.Response.text;
    let json = artifact_of resp in
    let t = Trace_json.of_string json in
    (match out with
    | Some file ->
        write_file file json;
        Printf.printf "trace written to %s (%d stepped lines)\n" file
          (List.length (Debugger.stepped_lines t))
    | None -> print_string json);
    (match against with
    | None -> ()
    | Some file ->
        let base = Trace_json.of_string (read_file file) in
        let d = Trace_json.compare_traces base t in
        Printf.printf "vs %s:\n  lines lost: [%s]\n  lines gained: [%s]\n"
          file
          (String.concat "; " (List.map string_of_int d.Trace_json.lines_lost))
          (String.concat "; " (List.map string_of_int d.Trace_json.lines_gained));
        List.iter
          (fun (line, vars) ->
            Printf.printf "  line %d lost vars: %s\n" line
              (String.concat ", " (List.map Ir.var_to_string vars)))
          d.Trace_json.vars_lost);
    finish resp
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Run a debug session and export the trace as JSON (optionally \
          diffing against a previous export).")
    Term.(
      const run $ program_arg $ compiler_arg $ level_arg $ disabled_arg
      $ entry_opt_arg $ input_arg $ out_arg $ diff_arg $ transport_term)

(* ------------------------------------------------------------------ *)
(* dump / verify: the dwarfdump analog                                 *)

let dump_cmd =
  let section_arg =
    Arg.(
      value & opt_all string []
      & info [ "s"; "section" ] ~docv:"SECTION"
          ~doc:
            "Section to print: functions, lines or locs (repeatable; \
             default all).")
  in
  let run program compiler level disabled sections tr =
    simple tr
      (compile_req program compiler level disabled (Api.Request.Dump sections))
  in
  Cmd.v
    (Cmd.info "dump"
       ~doc:
         "Pretty-print a binary's DWARF-like sections (the dwarfdump \
          analog).")
    Term.(
      const run $ program_arg $ compiler_arg $ level_arg $ disabled_arg
      $ section_arg $ transport_term)

let verify_cmd =
  let run program compiler level disabled tr =
    simple tr (compile_req program compiler level disabled Api.Request.Verify)
  in
  Cmd.v
    (Cmd.info "verify"
       ~doc:
         "Check the structural integrity of a binary's debug info (the \
          llvm-dwarfdump --verify analog); exits 1 on errors.")
    Term.(
      const run $ program_arg $ compiler_arg $ level_arg $ disabled_arg
      $ transport_term)

(* ------------------------------------------------------------------ *)
(* value-check: the dynamic value-soundness oracle                     *)

let value_check_cmd =
  let input_arg =
    Arg.(
      value & opt string ""
      & info [ "i"; "input" ] ~docv:"INTS" ~doc:"Comma-separated inputs.")
  in
  let run program compiler level disabled entry input tr =
    simple tr
      (compile_req program compiler level disabled
         (Api.Request.Value_check
            { v_entry = entry; v_input = parse_input_list input }))
  in
  Cmd.v
    (Cmd.info "value-check"
       ~doc:
         "Compare every value the debugger would display against the           reference interpreter (the dynamic soundness oracle); exits 1 on           O0 mismatches.")
    Term.(
      const run $ program_arg $ compiler_arg $ level_arg $ disabled_arg
      $ entry_opt_arg $ input_arg $ transport_term)

(* ------------------------------------------------------------------ *)
(* pass-trace: per-pass IR statistics (the -fdump-tree-all analog)     *)

let pass_trace_cmd =
  let run program compiler level disabled tr =
    simple tr
      (compile_req program compiler level disabled Api.Request.Pass_trace)
  in
  Cmd.v
    (Cmd.info "pass-trace"
       ~doc:
         "Replay the IR pipeline and print per-pass statistics — where           instructions, debug bindings and line attributions go (the           -fdump-tree-all analog).")
    Term.(
      const run $ program_arg $ compiler_arg $ level_arg $ disabled_arg
      $ transport_term)

(* ------------------------------------------------------------------ *)
(* sample: collect an AutoFDO profile and write the text format        *)

let sample_cmd =
  let period_arg =
    Arg.(
      value & opt int 211
      & info [ "period" ] ~docv:"CYCLES" ~doc:"Sampling period in cycles.")
  in
  let out_arg =
    Arg.(
      value & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Write the profile here.")
  in
  let run program compiler level disabled entry period out tr =
    let resp =
      dispatch tr
        (compile_req program compiler level disabled
           (Api.Request.Sample { s_entry = entry; s_period = period }))
    in
    check_status resp;
    print_string resp.Api.Response.text;
    let text = artifact_of resp in
    (match out with
    | Some file ->
        write_file file text;
        Printf.printf "profile written to %s\n" file
    | None -> print_string text);
    finish resp
  in
  Cmd.v
    (Cmd.info "sample"
       ~doc:
         "Run a binary under PC sampling and emit the AutoFDO text profile           (the perf + create_llvm_prof analog). Feed it back with           $(b,compile --profile).")
    Term.(
      const run $ program_arg $ compiler_arg $ level_arg $ disabled_arg
      $ entry_opt_arg $ period_arg $ out_arg $ transport_term)

(* ------------------------------------------------------------------ *)
(* profile: per-pass self-time of one compilation (the observability
   layer's front door)                                                 *)

let profile_cmd =
  let pipeline_arg =
    Arg.(
      value
      & opt compiler_conv Debugtuner.Config.Gcc
      & info [ "pipeline" ] ~docv:"FAMILY"
          ~doc:"Pipeline family to profile: gcc or clang.")
  in
  let o_arg =
    (* Short-only so `-O2` parses as the glued value "2" of option -O,
       matching compiler-driver muscle memory; the conv therefore
       accepts both the bare suffix ("2", "g") and the full spelling
       ("O2", "Og"). *)
    let olevel_conv =
      Arg.conv
        ( (fun s ->
            match String.uppercase_ascii s with
            | "0" | "O0" -> Ok Debugtuner.Config.O0
            | "G" | "OG" -> Ok Debugtuner.Config.Og
            | "1" | "O1" -> Ok Debugtuner.Config.O1
            | "2" | "O2" -> Ok Debugtuner.Config.O2
            | "3" | "O3" -> Ok Debugtuner.Config.O3
            | _ -> Error (`Msg "level must be 0, g, 1, 2 or 3")),
          fun ppf l ->
            Format.pp_print_string ppf (Debugtuner.Config.level_name l) )
    in
    Arg.(
      value
      & opt olevel_conv Debugtuner.Config.O2
      & info [ "O" ] ~docv:"LEVEL"
          ~doc:"Optimization level: -O0, -Og, -O1, -O2, -O3.")
  in
  let run program pipeline level disabled trace sanitize stats tr =
    let resp =
      dispatch tr
        (Api.Request.Profile
           {
             p_subject = subject_of program;
             p_config = Debugtuner.Config.make ~disabled pipeline level;
             p_sanitize = sanitize;
             p_stats = stats;
             p_trace = trace <> None;
           })
    in
    check_status resp;
    print_string resp.Api.Response.text;
    (match trace with
    | None -> ()
    | Some file -> (
        let js = artifact_of resp in
        write_file file js;
        (* The executor already validated span coverage; re-validate
           the bytes we just wrote before declaring victory. *)
        match Obs.validate_chrome js with
        | Error msg ->
            Printf.eprintf "trace validation FAILED: %s\n" msg;
            exit 1
        | Ok v ->
            Printf.printf
              "trace written to %s (%d events, %d named spans, validated)\n"
              file v.Obs.v_events
              (List.length v.Obs.v_spans)));
    finish resp
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Compile once with the observability layer on and print the           per-pass self-time table (wall time and IR size / debug-info           deltas per pass). With $(b,--trace), also write and validate a           Chrome trace_event JSON of the whole compilation.")
    Term.(
      const run $ program_arg $ pipeline_arg $ o_arg $ disabled_arg
      $ cliopt_file Util.Cliopts.trace
      $ cliopt_flag Util.Cliopts.sanitize
      $ cliopt_flag Util.Cliopts.stats
      $ transport_term)

(* ------------------------------------------------------------------ *)
(* disasm: objdump -dl analog                                          *)

let disasm_cmd =
  let func_arg =
    Arg.(
      value & opt (some string) None
      & info [ "f"; "function" ] ~docv:"FUNC" ~doc:"Only this function.")
  in
  let run program compiler level disabled func tr =
    simple tr
      (compile_req program compiler level disabled (Api.Request.Disasm func))
  in
  Cmd.v
    (Cmd.info "disasm"
       ~doc:
         "Disassemble a binary with interleaved source lines (the objdump           -dl analog).")
    Term.(
      const run $ program_arg $ compiler_arg $ level_arg $ disabled_arg
      $ func_arg $ transport_term)

(* ------------------------------------------------------------------ *)
(* dwarf-size: encoded debug-info sizes across levels                  *)

let dwarf_size_cmd =
  let run program compiler tr =
    simple tr (compile_req program compiler Debugtuner.Config.O2 []
                 Api.Request.Dwarf_size)
  in
  Cmd.v
    (Cmd.info "dwarf-size"
       ~doc:
         "Encode the debug info with the DWARF wire formats (LEB128,           line-number program, location expressions) and report section           sizes per optimization level.")
    Term.(const run $ program_arg $ compiler_arg $ transport_term)

(* ------------------------------------------------------------------ *)
(* debug: scripted debugger sessions (gdb -x analog)                   *)

let debug_cmd =
  let script_arg =
    Arg.(
      value & opt (some string) None
      & info [ "x"; "script" ] ~docv:"FILE"
          ~doc:"Read commands from $(docv), one per line ('#' comments).")
  in
  let commands_arg =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"COMMAND"
          ~doc:
            "Debugger commands, e.g. 'break 6' 'run 1,2' 'print x' \
             'continue'.")
  in
  let run program compiler level disabled entry script commands tr =
    let commands =
      match script with
      | None -> commands
      | Some file ->
          String.split_on_char '\n' (read_file file)
          |> List.map String.trim
          |> List.filter (fun l -> l <> "" && l.[0] <> '#')
    in
    simple tr
      (compile_req program compiler level disabled
         (Api.Request.Debug { d_entry = entry; d_commands = commands }))
  in
  Cmd.v
    (Cmd.info "debug"
       ~doc:
         "Replay a scripted debugger session against an optimized binary \
          (the gdb batch-mode analog).")
    Term.(
      const run $ program_arg $ compiler_arg $ level_arg $ disabled_arg
      $ entry_opt_arg $ script_arg $ commands_arg $ transport_term)

(* ------------------------------------------------------------------ *)
(* check: pipeline sanitizer + differential oracle                      *)

let check_cmd =
  let fuzz_arg =
    Arg.(
      value & opt int 0
      & info [ "fuzz" ] ~docv:"N"
          ~doc:
            "Also run $(docv) synthetic programs through the differential \
             matrix (in addition to the suite).")
  in
  let seed_arg =
    Arg.(
      value & opt int 1
      & info [ "s"; "seed" ] ~docv:"SEED"
          ~doc:"First seed for the synthetic programs.")
  in
  let suite_arg =
    Arg.(
      value & flag
      & info [ "no-suite" ]
          ~doc:"Skip the built-in suite; only run the --fuzz programs.")
  in
  let one_program_arg =
    Arg.(
      value & opt (some string) None
      & info [ "p"; "program" ] ~docv:"PROGRAM"
          ~doc:"Check only this program (name or MiniC file path).")
  in
  let run program fuzz seed no_suite cache_dir no_cache json tr =
    (* The oracle's persistent verdict cache is opt-in: only an explicit
       --cache-dir (and no --no-cache) turns it on, so plain [check]
       stays stateless. Warm hits replay the cached sanitizer-counter
       deltas, keeping stdout byte-identical to a cold run. *)
    let store =
      match cache_dir with
      | Some dir when not no_cache ->
          Some (Debugtuner.Measure_engine.open_store ~dir ())
      | _ -> None
    in
    let resp =
      dispatch ?store tr
        (Api.Request.Check
           {
             k_subject = Option.map subject_of program;
             k_fuzz = fuzz;
             k_seed = seed;
             k_suite = not no_suite;
           })
    in
    check_status resp;
    print_string resp.Api.Response.text;
    (match json with
    | None -> ()
    | Some file ->
        (* Counters to a side file — store activity is run-dependent
           (cold vs warm), so it must never reach the byte-stable
           stdout. Only the oracle's own rows of the request's counters
           belong here: its store and sanitizer rows. *)
        let rows =
          List.filter
            (fun (n, _) ->
              let pre p =
                String.length n >= String.length p
                && String.sub n 0 (String.length p) = p
              in
              pre "store/" || pre "sanitize/")
            resp.Api.Response.stats
        in
        write_file file
          ("[\n  "
          ^ String.concat ",\n  " (Util.Cliopts.kv_json_rows rows)
          ^ "\n]\n"));
    finish resp
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Run the pipeline sanitizer and the differential oracle: every \
          program is interpreted (ground truth) and executed at O0-O3 under \
          both pipelines with per-pass checking on; failing synthetic \
          programs are shrunk before reporting. Exits 1 on any failure. With \
          --cache-dir, verdicts persist across runs (warm runs are \
          near-instant and byte-identical).")
    Term.(
      const run $ one_program_arg $ fuzz_arg $ seed_arg $ suite_arg
      $ cliopt_file Util.Cliopts.cache_dir
      $ cliopt_flag Util.Cliopts.no_cache
      $ cliopt_file Util.Cliopts.json
      $ transport_term)

(* ------------------------------------------------------------------ *)
(* cache: inspect and maintain the persistent artifact store            *)

let cache_cmd =
  let action_arg =
    Arg.(
      required
      & pos 0
          (some
             (enum
                [
                  ("stats", Api.Request.Op_stats);
                  ("clear", Api.Request.Op_clear);
                  ("gc", Api.Request.Op_gc);
                ]))
          None
      & info [] ~docv:"ACTION"
          ~doc:
            "$(docv) is one of: $(b,stats) (entry/byte counts per cache), \
             $(b,clear) (remove every entry), $(b,gc) (drop stale/corrupt \
             entries, enforce the size bound, remove abandoned temp files).")
  in
  let run action cache_dir tr =
    simple tr (Api.Request.Cache_op { o_action = action; o_dir = cache_dir })
  in
  Cmd.v
    (Cmd.info "cache"
       ~doc:
         "Inspect or maintain the persistent artifact cache (default _cache, \
          or $(b,DEBUGTUNER_CACHE), or --cache-dir).")
    Term.(
      const run $ action_arg $ cliopt_file Util.Cliopts.cache_dir
      $ transport_term)

(* ------------------------------------------------------------------ *)
(* passes / suite / run / stats                                        *)

let passes_cmd =
  let run compiler level tr =
    simple tr (compile_req "libpng" compiler level [] Api.Request.Passes)
  in
  Cmd.v
    (Cmd.info "passes" ~doc:"List the toggleable passes of a level.")
    Term.(const run $ compiler_arg $ level_arg $ transport_term)

let suite_cmd =
  let run tr = simple tr (Api.Request.Stats { s_what = Api.Request.Suite }) in
  Cmd.v
    (Cmd.info "suite" ~doc:"List the built-in programs.")
    Term.(const run $ transport_term)

let stats_cmd =
  let what_arg =
    Arg.(
      value
      & pos 0
          (enum
             [
               ("counters", Api.Request.Counters);
               ("suite", Api.Request.Suite);
               ("server", Api.Request.Server);
             ])
          Api.Request.Counters
      & info [] ~docv:"WHAT"
          ~doc:
            "$(docv) is $(b,counters) (the unified counter table), \
             $(b,suite) (the built-in programs) or $(b,server) (live \
             daemon counters; use with --connect).")
  in
  let run what tr = simple tr (Api.Request.Stats { s_what = what }) in
  Cmd.v
    (Cmd.info "stats"
       ~doc:
         "Print the unified counter table of the executing process — \
          in-process, or a daemon's with $(b,--connect).")
    Term.(const run $ what_arg $ transport_term)

let run_cmd =
  let entry_arg =
    Arg.(
      value & opt string "main"
      & info [ "e"; "entry" ] ~docv:"FUNC" ~doc:"Entry function.")
  in
  let input_arg =
    Arg.(
      value & opt string ""
      & info [ "i"; "input" ] ~docv:"INTS"
          ~doc:"Comma-separated input values for input().")
  in
  let run program compiler level disabled entry input tr =
    simple tr
      (Api.Request.Bench
         {
           b_subject = subject_of program;
           b_config = config compiler level disabled;
           b_action =
             Api.Request.Exec
               { x_entry = entry; x_input = parse_input_list input };
         })
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Compile and execute a program on the VM.")
    Term.(
      const run $ program_arg $ compiler_arg $ level_arg $ disabled_arg
      $ entry_arg $ input_arg $ transport_term)

(* ------------------------------------------------------------------ *)
(* experiments / merge: the sharded corpus runner                      *)

(* Both front-ends (this CLI and the bench harness) route --shard
   through the one strict parser in Util.Cliopts. *)
let shard_conv =
  Arg.conv
    ( (fun s ->
        match Util.Cliopts.parse_shard s with
        | Ok pair -> Ok pair
        | Error msg -> Error (`Msg msg)),
      fun ppf (i, n) -> Format.fprintf ppf "%d/%d" i n )

let shard_arg =
  Arg.(
    value
    & opt (some shard_conv) None
    & info
        [ cliopt_name Util.Cliopts.shard ]
        ?docv:Util.Cliopts.shard.Util.Cliopts.o_docv
        ~doc:Util.Cliopts.shard.Util.Cliopts.o_doc)

let partial_dir_arg = cliopt_file Util.Cliopts.partial_dir

(* "gcc-O2", "clang-Og", ... — Config.name spellings. *)
let config_spec_conv =
  let parse s =
    match String.index_opt s '-' with
    | None -> Error (`Msg (Printf.sprintf "bad config %S (expected e.g. gcc-O2)" s))
    | Some dash -> (
        let comp = String.sub s 0 dash
        and level = String.sub s (dash + 1) (String.length s - dash - 1) in
        let compiler =
          match String.lowercase_ascii comp with
          | "gcc" -> Some Debugtuner.Config.Gcc
          | "clang" -> Some Debugtuner.Config.Clang
          | _ -> None
        and level =
          match String.uppercase_ascii level with
          | "O0" -> Some Debugtuner.Config.O0
          | "OG" -> Some Debugtuner.Config.Og
          | "O1" -> Some Debugtuner.Config.O1
          | "O2" -> Some Debugtuner.Config.O2
          | "O3" -> Some Debugtuner.Config.O3
          | _ -> None
        in
        match (compiler, level) with
        | Some c, Some l -> Ok (Debugtuner.Config.make c l)
        | _ ->
            Error
              (`Msg (Printf.sprintf "bad config %S (expected e.g. gcc-O2)" s)))
  in
  Arg.conv
    (parse, fun ppf c -> Format.pp_print_string ppf (Debugtuner.Config.name c))

let partial_file dir (i, n) =
  Filename.concat dir (Printf.sprintf "shard-%d-of-%d.json" i n)

let ensure_dir dir =
  if not (Sys.file_exists dir) then
    try Unix.mkdir dir 0o755
    with Unix.Unix_error (Unix.EEXIST, _, _) -> ()

let experiments_cmd =
  let seed_arg =
    Arg.(
      value & opt int 1
      & info [ "s"; "seed" ] ~docv:"SEED"
          ~doc:"Seed of the corpus generator (shards must agree).")
  in
  let corpus_arg = cliopt_int Util.Cliopts.corpus 100 in
  let configs_arg =
    Arg.(
      value & opt_all config_spec_conv []
      & info [ "config" ] ~docv:"CONFIG"
          ~doc:
            "Configuration to measure, e.g. gcc-O2 (repeatable, in \
             presentation order; default: the full standard set).")
  in
  let only_arg =
    Arg.(
      value & opt_all string []
      & info [ "only" ] ~docv:"TABLE"
          ~doc:"Render only this table: summary or families (repeatable).")
  in
  let run seed corpus configs only shard partial_dir cache_dir no_cache jobs
      tr =
    let store =
      if no_cache then None
      else Some (Debugtuner.Measure_engine.open_store ?dir:cache_dir ())
    in
    let job =
      Api.Job.make ~tables:only ~configs ~seed ~corpus ?shard ()
    in
    let resp =
      dispatch ?store ~workers:jobs tr (Api.Request.Experiments { e_job = job })
    in
    check_status resp;
    print_string resp.Api.Response.text;
    (match (shard, resp.Api.Response.data) with
    | Some pair, Api.Response.D_partial p ->
        (* The partial file is written client-side: the transport owns
           file I/O, a daemon never touches this machine's paths. *)
        let dir = Option.value partial_dir ~default:"." in
        ensure_dir dir;
        let file = partial_file dir pair in
        write_file file (Api.partial_to_json p ^ "\n");
        Printf.printf "partial written to %s\n" file
    | Some _, _ -> die "server returned no shard partial"
    | None, _ -> ());
    finish resp
  in
  Cmd.v
    (Cmd.info "experiments"
       ~doc:
         "Measure the generated experiment corpus (synthetic sweeps, fuzz \
          programs, self-compilation subjects) at a configuration set and \
          print the summary tables. With $(b,--shard) I/N, process only \
          one slice and write a partial JSON to $(b,--partial-dir) — run \
          one process per shard against a shared cache directory, then \
          fold the partials with $(b,debugtuner merge) (byte-identical to \
          the single-process run). Interrupted runs resume warm from the \
          cache.")
    Term.(
      const run $ seed_arg $ corpus_arg $ configs_arg $ only_arg $ shard_arg
      $ partial_dir_arg
      $ cliopt_file Util.Cliopts.cache_dir
      $ cliopt_flag Util.Cliopts.no_cache
      $ cliopt_int Util.Cliopts.jobs 1
      $ transport_term)

let merge_cmd =
  let files_arg =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"PARTIAL"
          ~doc:"Shard partial JSON files (alternative to --partial-dir).")
  in
  let out_arg =
    Arg.(
      value & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE"
          ~doc:"Write the merged tables here instead of stdout.")
  in
  let run files partial_dir out tr =
    let from_dir =
      match partial_dir with
      | None -> []
      | Some dir -> (
          match Sys.readdir dir with
          | exception Sys_error msg -> die "%s" msg
          | names ->
              Array.to_list names
              |> List.filter (fun n -> Filename.check_suffix n ".json")
              |> List.sort compare
              |> List.map (Filename.concat dir))
    in
    let files = from_dir @ files in
    if files = [] then die "nothing to merge: pass partial files or --partial-dir";
    let partials =
      List.map
        (fun f ->
          match Api.partial_of_json (read_file f) with
          | Ok p -> p
          | Error msg -> die "%s: %s" f msg)
        files
    in
    let resp = dispatch tr (Api.Request.Merge { m_partials = partials }) in
    check_status resp;
    (match out with
    | None -> print_string resp.Api.Response.text
    | Some file ->
        write_file file resp.Api.Response.text;
        Printf.printf "merged tables written to %s\n" file);
    finish resp
  in
  Cmd.v
    (Cmd.info "merge"
       ~doc:
         "Fold per-shard partial JSON files (from $(b,experiments --shard)) \
          into the final corpus tables. Refuses incomplete or inconsistent \
          shard sets; the output is byte-identical to an unsharded run of \
          the same job.")
    Term.(
      const run $ files_arg $ partial_dir_arg $ out_arg $ transport_term)

(* ------------------------------------------------------------------ *)
(* serve: the persistent daemon                                        *)

let serve_cmd =
  let socket_arg =
    Arg.(
      required
      & opt (some string) None
      & info
          [ cliopt_name Util.Cliopts.socket ]
          ?docv:Util.Cliopts.socket.Util.Cliopts.o_docv
          ~doc:Util.Cliopts.socket.Util.Cliopts.o_doc)
  in
  let jobs_arg = cliopt_int Util.Cliopts.jobs 1 in
  let run socket listen queue_limit jobs cache_dir no_cache =
    let store =
      if no_cache then None
      else Some (Debugtuner.Measure_engine.open_store ?dir:cache_dir ())
    in
    let ctx = Api.create_ctx ~workers:jobs ?store () in
    let server =
      try Api_server.create ~queue_limit ?listen ~socket ctx with
      | Unix.Unix_error (err, _, _) ->
          die "cannot listen on %s: %s" socket (Unix.error_message err)
      | Invalid_argument msg -> die "%s" msg
    in
    (* SIGINT/SIGTERM close the listeners; serve returns and we clean
       up on the main flow (no joins inside the signal handler). *)
    let on_signal _ = Api_server.interrupt server in
    Sys.set_signal Sys.sigint (Sys.Signal_handle on_signal);
    Sys.set_signal Sys.sigterm (Sys.Signal_handle on_signal);
    (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
     with Invalid_argument _ -> ());
    Printf.printf "debugtuner: serving on %s (queue limit %d, %d worker%s)\n%!"
      socket queue_limit jobs
      (if jobs = 1 then "" else "s");
    (match Api_server.listen_addr server with
    | None -> ()
    | Some (host, port) ->
        (* the actual bound port (ephemeral with --listen HOST:0) *)
        Printf.printf "debugtuner: listening on %s:%d\n%!" host port);
    Api_server.serve server;
    Api_server.stop server;
    Printf.printf "debugtuner: daemon stopped\n%!"
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the persistent service daemon: length-prefixed JSON \
          requests over a Unix-domain socket (plus TCP with --listen), \
          every cache shared process-wide across all clients, requests \
          executing one at a time (--jobs sizes each request's engine \
          worker pool). Drive it with --connect on any subcommand. \
          Bounded admission: beyond --queue-limit concurrent requests, \
          clients get an immediate 'overloaded' response.")
    Term.(
      const run $ socket_arg
      $ cliopt_file Util.Cliopts.listen
      $ cliopt_int Util.Cliopts.queue_limit 8
      $ jobs_arg
      $ cliopt_file Util.Cliopts.cache_dir
      $ cliopt_flag Util.Cliopts.no_cache)

let () =
  let info =
    Cmd.info "debugtuner" ~version:"1.0.0"
      ~doc:
        "Measure and tune the debug-information quality of optimized \
         binaries (DebugTuner reproduction)."
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [ compile_cmd; measure_cmd; rank_cmd; tune_cmd; search_cmd; passes_cmd; suite_cmd; run_cmd; trace_cmd; dump_cmd; verify_cmd; debug_cmd; dwarf_size_cmd; disasm_cmd; sample_cmd; profile_cmd; pass_trace_cmd; value_check_cmd; check_cmd; cache_cmd; stats_cmd; experiments_cmd; merge_cmd; serve_cmd ]))
