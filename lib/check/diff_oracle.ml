(** The differential oracle: every program is a compiler test.

    Ground truth is the MiniC source interpreter ([Minic.Interp]); the
    candidate is the full toolchain — compile at O0–O3 under both the
    Gcc_like and Clang_like pipelines (sanitizer on, so every pass
    boundary is also validated) and execute on the VM. Any divergence in
    the output sequence is a miscompile; any sanitizer trip is
    debug-info corruption; both are reported with the offending
    program/config/input. Failing *synthetic* programs are first shrunk
    line-by-line with the ddmin machinery in {!Cmin.shrink_list} so the
    report carries a minimal reproducer.

    This is the repo's analog of the differential setups in "Who's
    Debugging the Debuggers?" — except it runs in-process, over the
    whole suite, as part of tier-1 tests. *)

module C = Debugtuner.Config
module T = Debugtuner.Toolchain

type fail_kind =
  | Mismatch of { expected : int list; actual : int list }
      (** VM output diverged from the interpreter *)
  | Vm_timeout  (** interpreter finished, VM exhausted its budget *)
  | Sanitizer of { pass : string; detail : string }
      (** a pass boundary check fired during compilation *)
  | Compile_error of string  (** the toolchain raised *)

type failure = {
  f_program : string;
  f_config : string;
  f_entry : string;
  f_input : int list;
  f_kind : fail_kind;
  f_shrunk : string option;  (** minimized source (synthetic programs) *)
}

type report = {
  r_programs : int;
  r_configs : int;
  r_runs : int;  (** (program, harness, input, config) executions *)
  r_skipped : int;  (** inputs with no ground truth (interp step limit) *)
  r_failures : failure list;
}

(** The full differential matrix: {O0..O3} x {Gcc_like, Clang_like}. *)
let configs () =
  List.concat_map
    (fun level -> [ C.make C.Gcc level; C.make C.Clang level ])
    [ C.O0; C.O1; C.O2; C.O3 ]

let ints l = "[" ^ String.concat ";" (List.map string_of_int l) ^ "]"

let fail_kind_to_string = function
  | Mismatch { expected; actual } ->
      Printf.sprintf "output mismatch: interp=%s vm=%s" (ints expected)
        (ints actual)
  | Vm_timeout -> "vm timed out where the interpreter finished"
  | Sanitizer { pass; detail } ->
      Printf.sprintf "sanitizer: pass '%s': %s" pass detail
  | Compile_error msg -> Printf.sprintf "compile error: %s" msg

let failure_to_string f =
  Printf.sprintf "%s %s entry=%s input=%s: %s%s" f.f_program f.f_config
    f.f_entry (ints f.f_input)
    (fail_kind_to_string f.f_kind)
    (match f.f_shrunk with
    | Some src ->
        Printf.sprintf "\n  shrunk reproducer (%d lines):\n%s"
          (List.length (String.split_on_char '\n' src))
          (String.concat "\n"
             (List.map (fun l -> "    " ^ l) (String.split_on_char '\n' src)))
    | None -> "")

(* ------------------------------------------------------------------ *)
(* One differential run                                                *)

let interp_budget = 2_000_000
let vm_budget = 8_000_000

(** [reference ast ~entry ~input] is the interpreter's verdict:
    [Some output], or [None] past the step budget (no ground truth — the
    caller skips the input). *)
let reference ast ~entry ~input =
  match Minic.Interp.run ~max_steps:interp_budget ast ~entry ~input with
  | out -> Some out
  | exception Minic.Interp.Step_limit -> None

(** [run_one ast ~roots ~entry ~input cfg ~expected] compiles (sanitizer
    on) and executes one configuration against the interpreter's
    [expected] output. [None] = agreement. *)
let run_one ast ~roots ~entry ~input (cfg : C.t) ~expected =
  Obs.count "oracle/runs";
  match
    T.compile ast ~config:cfg ~roots
      ~options:(T.Options.make ~sanitize:true ())
  with
  | exception Sanitize.Check_failed { pass; invariant = _; detail } ->
      Some (Sanitizer { pass; detail })
  | exception e -> Some (Compile_error (Printexc.to_string e))
  | bin -> (
      let res =
        Vm.run bin ~entry ~input { Vm.default_opts with max_instrs = vm_budget }
      in
      if res.Vm.timed_out then Some Vm_timeout
      else
        match res.Vm.output = expected with
        | true -> None
        | false -> Some (Mismatch { expected; actual = res.Vm.output }))

(* ------------------------------------------------------------------ *)
(* Persistent verdict cache                                            *)

(* With a store, each program's whole differential verdict — failures,
   run counts and the sanitizer rows its own compiles produced (read
   from a {!Util.Counters.scoped} scope, so work running alongside it in
   the process never leaks in) — is cached on a content address of
   everything the verdict depends on, in the store's ["oracle"] cache
   through an {!Engine.Memo}. Warm hits replay those rows, so a warm
   [check] prints byte-identical output, counters included. *)

let verdict_key tag payload =
  Digest.to_hex
    (Digest.string
       (Marshal.to_string
          ( tag,
            payload,
            interp_budget,
            vm_budget,
            List.map C.fingerprint (configs ()),
            (* Verdicts must never cross VM cores: a cached verdict
               computed by one core could otherwise mask a divergence in
               the other. *)
            Vm.active_core () )
          []))

let cached store ~key (f : unit -> 'a) : 'a =
  match store with
  | None -> f ()
  | Some store -> (
      let memo = Engine.Memo.create ~store ~name:"oracle" () in
      match Engine.Memo.find_opt memo key with
      | Some (v, delta) ->
          List.iter (fun (name, n) -> Util.Counters.bump ~n name) delta;
          v
      | None ->
          let v, rows = Util.Counters.scoped f in
          let delta =
            List.filter
              (fun (name, _) -> String.starts_with ~prefix:"sanitize/" name)
              rows
          in
          Engine.Memo.add memo key (v, delta);
          v)

(* ------------------------------------------------------------------ *)
(* Suite programs                                                      *)

(** [check_program p] runs the whole differential matrix over every
    harness and seed input of a suite program. Returns failures (empty =
    clean) and the number of (runs, skipped-for-no-ground-truth). With
    [store], the verdict is served from the persistent cache when the
    program, inputs, configurations and budgets are unchanged. *)
let check_program ?store (p : Suite_types.sprogram) :
    failure list * (int * int) =
  cached store
    ~key:
      (verdict_key "program" (p.Suite_types.p_source, p.Suite_types.p_harnesses))
  @@ fun () ->
  Obs.Span.wrap "oracle:program" ~args:[ ("program", p.Suite_types.p_name) ]
  @@ fun () ->
  let ast = Suite_types.ast p in
  let roots = Suite_types.roots p in
  let runs = ref 0 and skipped = ref 0 in
  let failures = ref [] in
  List.iter
    (fun (h : Suite_types.harness) ->
      List.iter
        (fun input ->
          match reference ast ~entry:h.Suite_types.h_entry ~input with
          | None -> incr skipped
          | Some expected ->
              List.iter
                (fun cfg ->
                  incr runs;
                  match
                    run_one ast ~roots ~entry:h.Suite_types.h_entry ~input cfg
                      ~expected
                  with
                  | None -> ()
                  | Some kind ->
                      failures :=
                        {
                          f_program = p.Suite_types.p_name;
                          f_config = C.name cfg;
                          f_entry = h.Suite_types.h_entry;
                          f_input = input;
                          f_kind = kind;
                          f_shrunk = None;
                        }
                        :: !failures)
                (configs ()))
        h.Suite_types.h_seeds)
    p.Suite_types.p_harnesses;
  (List.rev !failures, (!runs, !skipped))

(** [check_suite ()] sweeps every [Programs.all] program. *)
let check_suite ?store () : report =
  let runs = ref 0 and skipped = ref 0 in
  let failures = ref [] in
  List.iter
    (fun p ->
      let fs, (r, s) = check_program ?store p in
      runs := !runs + r;
      skipped := !skipped + s;
      failures := !failures @ [ fs ])
    Programs.all;
  {
    r_programs = List.length Programs.all;
    r_configs = List.length (configs ());
    r_runs = !runs;
    r_skipped = !skipped;
    r_failures = List.concat !failures;
  }

(* ------------------------------------------------------------------ *)
(* Synthetic programs + shrinking                                      *)

(* Deterministic small input set for synthetic mains (which read via
   input()/eof() and so accept any vector). *)
let synth_inputs = [ []; [ 3; 1; 4; 1; 5; 9; 2; 6 ] ]

(** Does [source] still exhibit a failure for [cfg]/[input]? Used as the
    ddmin predicate: the candidate must still parse/typecheck, still
    have a ground truth, and still fail the same configuration (any
    failure kind counts — the bug may shift shape while shrinking, which
    is fine for a reproducer). *)
let source_still_fails source (cfg : C.t) ~input =
  try
    let ast = Minic.Typecheck.parse_and_check source in
    match reference ast ~entry:"main" ~input with
    | None -> false
    | Some expected ->
        run_one ast ~roots:[ "main" ] ~entry:"main" ~input cfg ~expected
        <> None
  with _ -> false

(** [shrink_source source cfg ~input] minimizes a failing synthetic
    program line-by-line with {!Cmin.shrink_list}. *)
let shrink_source source (cfg : C.t) ~input =
  let lines = String.split_on_char '\n' source in
  let still_interesting ls =
    source_still_fails (String.concat "\n" ls) cfg ~input
  in
  if not (still_interesting lines) then None
  else Some (String.concat "\n" (Cmin.shrink_list ~still_interesting lines))

(** [check_synth ~seed] runs one synthetic program through the matrix,
    shrinking any failure before reporting it. *)
let check_synth ?store ~seed () : failure list * (int * int) =
  let name = Printf.sprintf "synth-%d" seed in
  Obs.Span.wrap "oracle:synth" ~args:[ ("program", name) ] @@ fun () ->
  let source = Synth.generate ~seed in
  cached store ~key:(verdict_key "synth" (source, synth_inputs)) @@ fun () ->
  let ast = Minic.Typecheck.parse_and_check source in
  let runs = ref 0 and skipped = ref 0 in
  let failures = ref [] in
  List.iter
    (fun input ->
      match reference ast ~entry:"main" ~input with
      | None -> incr skipped
      | Some expected ->
          List.iter
            (fun cfg ->
              incr runs;
              match
                run_one ast ~roots:[ "main" ] ~entry:"main" ~input cfg ~expected
              with
              | None -> ()
              | Some kind ->
                  failures :=
                    {
                      f_program = name;
                      f_config = C.name cfg;
                      f_entry = "main";
                      f_input = input;
                      f_kind = kind;
                      f_shrunk = shrink_source source cfg ~input;
                    }
                    :: !failures)
            (configs ()))
    synth_inputs;
  (List.rev !failures, (!runs, !skipped))

(** [fuzz ~count ~seed] runs [count] synthetic programs (seeds [seed] to
    [seed + count - 1]) through the full differential matrix.
    Deterministic for a given [(count, seed)]. *)
let fuzz ?store ~count ~seed () : report =
  let runs = ref 0 and skipped = ref 0 in
  let failures = ref [] in
  for s = seed to seed + count - 1 do
    let fs, (r, sk) = check_synth ?store ~seed:s () in
    runs := !runs + r;
    skipped := !skipped + sk;
    failures := !failures @ [ fs ]
  done;
  {
    r_programs = count;
    r_configs = List.length (configs ());
    r_runs = !runs;
    r_skipped = !skipped;
    r_failures = List.concat !failures;
  }

(* ------------------------------------------------------------------ *)
(* Reporting                                                           *)

let report_lines (r : report) =
  Printf.sprintf
    "differential oracle: %d program(s) x %d config(s), %d run(s), %d \
     skipped (no ground truth), %d failure(s)"
    r.r_programs r.r_configs r.r_runs r.r_skipped
    (List.length r.r_failures)
  :: List.map failure_to_string r.r_failures

let report_to_string r = String.concat "\n" (report_lines r)
let clean r = r.r_failures = []
