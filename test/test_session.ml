(** Tests for the scripted debugger session (the gdb batch-mode
    analog). A small fixed program with known line numbers is debugged
    at O0, where behaviour is fully predictable, plus cross-level
    checks that optimization shows through the session exactly as the
    paper describes (lines disappear from the line table, variables go
    optimized-out). *)

module C = Debugtuner.Config
module T = Debugtuner.Toolchain

(* Line numbers:                                    1234567890123 *)
let src =
  String.concat "\n"
    [
      "int helper(int a) {" (* 1 *);
      "  int b = a * 2;" (* 2 *);
      "  return b + 1;" (* 3 *);
      "}" (* 4 *);
      "int main() {" (* 5 *);
      "  int x = input();" (* 6 *);
      "  int y = helper(x);" (* 7 *);
      "  int arr[3];" (* 8 *);
      "  arr[0] = y;" (* 9 *);
      "  arr[1] = y + 1;" (* 10 *);
      "  arr[2] = 9;" (* 11 *);
      "  output(y);" (* 12 *);
      "  return 0;" (* 13 *);
      "}";
    ]

let compile level =
  let ast = Minic.Typecheck.parse_and_check src in
  T.compile ast ~config:(C.make C.Gcc level) ~roots:[ "main" ]

let session level = Session.create (compile level) ~entry:"main"

let one s cmd =
  match Session.exec s cmd with
  | [ line ] -> line
  | lines -> String.concat "\n" lines

let test_break_run_print () =
  let s = session C.O0 in
  let b = one s "break 7" in
  Alcotest.(check bool) "break arms locations" true
    (String.length b > 0 && b.[0] = 'b');
  Alcotest.(check string) "stops at the breakpoint"
    "breakpoint 7, stopped at main, line 7" (one s "run 21");
  Alcotest.(check string) "x has its input value" "x = 21" (one s "print x");
  Alcotest.(check string) "y not yet assigned" "y = 0" (one s "print y");
  Alcotest.(check string) "unknown symbol"
    "no symbol \"nope\" in current context" (one s "print nope")

let test_step_into_and_finish () =
  let s = session C.O0 in
  ignore (Session.exec s "break 7");
  ignore (Session.exec s "run 21");
  Alcotest.(check string) "step enters the callee"
    "stopped at helper, line 1" (one s "step");
  Alcotest.(check string) "another step reaches the body"
    "stopped at helper, line 2" (one s "step");
  Alcotest.(check (list string))
    "backtrace shows the call site"
    [ "#0 helper at line 2"; "#1 main at line 7 (call site)" ]
    (Session.exec s "bt");
  let fin = one s "finish" in
  Alcotest.(check bool) "finish returns to main" true
    (String.length fin >= 4
    && String.sub fin (String.length fin - 4) 4 = "ne 7")

let test_next_steps_over () =
  let s = session C.O0 in
  ignore (Session.exec s "break 7");
  ignore (Session.exec s "run 5");
  (* next must not stop inside helper *)
  Alcotest.(check string) "next skips the call"
    "stopped at main, line 9" (one s "next")

(* The stopped line's own locations are held back, not the breakpoints
   of the function it calls; a continue from the callee stops again at
   line 7's post-call location, which line 7's breakpoint also arms. *)
let test_continue_stops_in_callee () =
  Alcotest.(check string) "continue from main stops inside helper"
    (String.concat "\n"
       [
         "(dbg) break 7";
         "breakpoint at line 7 (3 locations)";
         "(dbg) break 2";
         "breakpoint at line 2 (3 locations)";
         "(dbg) run 21";
         "breakpoint 7, stopped at main, line 7";
         "(dbg) continue";
         "breakpoint 2, stopped at helper, line 2";
         "(dbg) continue";
         "breakpoint 7, stopped at main, line 7";
         "(dbg) continue";
         "[program exited; output: [43]]";
         "";
       ])
    (Session.script (compile C.O0) ~entry:"main"
       [ "break 7"; "break 2"; "run 21"; "continue"; "continue"; "continue" ])

let test_next_stops_in_callee () =
  Alcotest.(check string) "next over a call stops at a breakpoint inside it"
    (String.concat "\n"
       [
         "(dbg) break 7";
         "breakpoint at line 7 (3 locations)";
         "(dbg) break 2";
         "breakpoint at line 2 (3 locations)";
         "(dbg) run 21";
         "breakpoint 7, stopped at main, line 7";
         "(dbg) next";
         "breakpoint 2, stopped at helper, line 2";
         "";
       ])
    (Session.script (compile C.O0) ~entry:"main"
       [ "break 7"; "break 2"; "run 21"; "next" ])

(* A run of an entry the binary lacks answers a line, like any runtime
   error, and leaves the session not running. *)
let test_run_missing_entry () =
  Alcotest.(check string) "missing entry"
    (String.concat "\n"
       [
         "(dbg) run";
         "[runtime error: no entry function nope]";
         "(dbg) continue";
         "the program is not running (use: run [inputs])";
         "";
       ])
    (Session.script (compile C.O0) ~entry:"nope" [ "run"; "continue" ])

let test_array_and_locals () =
  let s = session C.O0 in
  ignore (Session.exec s "break 12");
  ignore (Session.exec s "run 21");
  Alcotest.(check string) "array printed elementwise" "arr = {43, 44, 9}"
    (one s "print arr");
  let locals = Session.exec s "info locals" in
  List.iter
    (fun expected ->
      Alcotest.(check bool) (expected ^ " listed") true
        (List.mem expected locals))
    [ "arr = {43, 44, 9}"; "x = 21"; "y = 43" ]

let test_continue_to_exit () =
  let s = session C.O0 in
  ignore (Session.exec s "break 7");
  ignore (Session.exec s "run 21");
  Alcotest.(check string) "exit reports the output"
    "[program exited; output: [43]]" (one s "continue");
  Alcotest.(check string) "session ends"
    "the program is not running (use: run [inputs])" (one s "print x")

let test_tbreak_clears () =
  let s = session C.O0 in
  ignore (Session.exec s "tbreak 9");
  ignore (Session.exec s "break 10");
  ignore (Session.exec s "run 1");
  (* first stop: the temporary breakpoint at 9 *)
  let remaining = one s "info breakpoints" in
  Alcotest.(check bool) "line 10 still armed, 9 gone" true
    (String.length remaining >= 7
    && String.sub remaining 0 7 = "line 10"
    && not
         (List.exists
            (fun l -> String.length l >= 6 && String.sub l 0 6 = "line 9")
            (Session.exec s "info breakpoints")))

let test_delete () =
  let s = session C.O0 in
  ignore (Session.exec s "break 9");
  Alcotest.(check string) "delete removes" "deleted breakpoint at line 9"
    (one s "delete 9");
  Alcotest.(check string) "delete is idempotent-ish"
    "no breakpoint at line 9" (one s "delete 9");
  ignore (Session.exec s "run 1");
  Alcotest.(check string) "run goes straight to exit"
    "[program exited; output: [3]]"
    (match Session.exec s "info breakpoints" with
    | [ "no breakpoints" ] -> "[program exited; output: [3]]"
    | other -> String.concat "\n" other)

let test_restart () =
  let s = session C.O0 in
  ignore (Session.exec s "break 12");
  ignore (Session.exec s "run 21");
  Alcotest.(check string) "first run" "y = 43" (one s "print y");
  ignore (Session.exec s "run 1");
  Alcotest.(check string) "restart with new input" "y = 3" (one s "print y")

let test_unknown_command () =
  let s = session C.O0 in
  Alcotest.(check string) "graceful error" "unknown command: teleport"
    (one s "teleport")

let test_optimization_shows () =
  (* At O2 the helper call is inlined and several lines vanish from the
     line table; the session surfaces that as un-breakpointable lines —
     the Figure 1 scenario. *)
  let s0 = session C.O0 and s2 = session C.O2 in
  let breakable s line =
    match Session.exec s (Printf.sprintf "break %d" line) with
    | [ msg ] -> String.length msg >= 10 && String.sub msg 0 10 = "breakpoint"
    | _ -> false
  in
  let lines = [ 2; 6; 7; 9; 10; 11; 12 ] in
  let b0 = List.length (List.filter (breakable s0) lines) in
  let b2 = List.length (List.filter (breakable s2) lines) in
  Alcotest.(check int) "every line breakable at O0" (List.length lines) b0;
  Alcotest.(check bool)
    (Printf.sprintf "optimization loses breakpointable lines (%d < %d)" b2 b0)
    true (b2 < b0)

let test_script_transcript () =
  let bin = compile C.O0 in
  let t =
    Session.script bin ~entry:"main" [ "break 12"; "run 2"; "print y"; "quit" ]
  in
  List.iter
    (fun affix ->
      Alcotest.(check bool) ("transcript has " ^ affix) true
        (let n = String.length affix and m = String.length t in
         let rec go i = i + n <= m && (String.sub t i n = affix || go (i + 1)) in
         go 0))
    [ "(dbg) break 12"; "breakpoint 12, stopped at main, line 12"; "y = 5" ]

let test_runtime_budget () =
  (* An infinite loop must surface as a timeout, not hang the session. *)
  let src = "int main() { int i = 0; while (1 < 2) { i = i + 1; } return i; }" in
  let ast = Minic.Typecheck.parse_and_check src in
  let bin = T.compile ast ~config:(C.make C.Gcc C.O0) ~roots:[ "main" ] in
  let s = Session.create bin ~entry:"main" in
  Alcotest.(check string) "timeout reported" "[program timed out]"
    (match Session.exec s "run" with
    | [ l ] -> l
    | ls -> String.concat "\n" ls)

let test_break_matches_trace_steppable () =
  (* The session's break command and the measurement pipeline's notion
     of steppable lines must agree: break succeeds exactly on the lines
     the line table exposes. *)
  let bin = compile C.O2 in
  let steppable = Dwarfish.steppable_lines bin.Emit.debug in
  for line = 1 to 14 do
    let s = Session.create bin ~entry:"main" in
    let ok =
      match Session.exec s (Printf.sprintf "break %d" line) with
      | [ msg ] ->
          String.length msg >= 10 && String.sub msg 0 10 = "breakpoint"
      | _ -> false
    in
    Alcotest.(check bool)
      (Printf.sprintf "line %d breakable iff steppable" line)
      (List.mem line steppable) ok
  done

let test_watchpoint () =
  let s = session C.O0 in
  ignore (Session.exec s "break 6");
  ignore (Session.exec s "run 21");
  Alcotest.(check string) "unknown symbol rejected"
    "no symbol \"zzz\" in the debug info" (one s "watch zzz");
  let msg = one s "watch y" in
  Alcotest.(check bool) "watch accepted" true
    (String.length msg >= 10 && String.sub msg 0 10 = "watchpoint");
  (* y is assigned at line 7 (the call's result); continuing must stop
     on the write, not at a breakpoint. *)
  let out = Session.exec s "continue" in
  Alcotest.(check bool) "stops on the value change" true
    (match out with
    | first :: rest ->
        first = "watchpoint: y"
        && List.exists (fun l -> l = "  new = 43") rest
    | [] -> false);
  Alcotest.(check string) "y now readable" "y = 43" (one s "print y")

let test_watchpoint_baseline_and_unwatch () =
  let s = session C.O0 in
  ignore (Session.exec s "watch x") (* before run: baseline not visible *);
  ignore (Session.exec s "break 12");
  let out = Session.exec s "run 9" in
  (* x = input() changes 0 -> 9 early, so the watchpoint fires before
     the breakpoint at 12. *)
  Alcotest.(check bool) "watch fires before the breakpoint" true
    (match out with "watchpoint: x" :: _ -> true | _ -> false);
  Alcotest.(check string) "unwatch removes" "deleted watchpoint on x"
    (one s "unwatch x");
  Alcotest.(check string) "info empty" "no watchpoints"
    (one s "info watchpoints");
  Alcotest.(check string) "continue reaches the breakpoint"
    "breakpoint 12, stopped at main, line 12" (one s "continue")

let loop_src =
  String.concat "\n"
    [
      "int main() {" (* 1 *);
      "  int total = 0;" (* 2 *);
      "  int i = 0;" (* 3 *);
      "  while (i < 5) {" (* 4 *);
      "    total = total + i * 10;" (* 5 *);
      "    i = i + 1;" (* 6 *);
      "  }" (* 7 *);
      "  output(total);" (* 8 *);
      "  return total;" (* 9 *);
      "}";
    ]

let test_conditional_breakpoint () =
  let ast = Minic.Typecheck.parse_and_check loop_src in
  let bin = T.compile ast ~config:(C.make C.Gcc C.O0) ~roots:[ "main" ] in
  let s = Session.create bin ~entry:"main" in
  let msg = one s "break 5 if i == 3" in
  Alcotest.(check bool) "condition echoed" true
    (String.length msg > 3
    && String.sub msg (String.length msg - 6) 6 = "i == 3");
  ignore (Session.exec s "run");
  (* Stopped only on the fourth iteration. *)
  Alcotest.(check string) "i is 3 at the stop" "i = 3" (one s "print i");
  Alcotest.(check string) "total has three terms" "total = 30"
    (one s "print total");
  Alcotest.(check string) "continue runs to exit (condition never true again)"
    "[program exited; output: [100]]" (one s "continue")

let test_conditional_breakpoint_ops () =
  let ast = Minic.Typecheck.parse_and_check loop_src in
  let bin = T.compile ast ~config:(C.make C.Gcc C.O0) ~roots:[ "main" ] in
  let s = Session.create bin ~entry:"main" in
  ignore (Session.exec s "break 5 if i >= 4");
  ignore (Session.exec s "run");
  Alcotest.(check string) "last iteration" "i = 4" (one s "print i");
  Alcotest.(check string) "bad op rejected"
    "usage: break <line> [if <var> <op> <int>]" (one s "break 5 if i ~ 2");
  let info = one s "info breakpoints" in
  Alcotest.(check bool) "info shows the condition" true
    (let affix = "if i >= 4" in
     let n = String.length affix and m = String.length info in
     let rec go i = i + n <= m && (String.sub info i n = affix || go (i + 1)) in
     go 0)

(* A main whose line 2 is the entry address: a stop there, before the
   first instruction runs, reads like a stop anywhere else. *)
let entry_src =
  String.concat "\n"
    [
      "int main() {" (* 1 *);
      "  int a = 5;" (* 2: address 0 *);
      "  output(a);" (* 3 *);
      "  return 0;" (* 4 *);
      "}";
    ]

let entry_session () =
  let ast = Minic.Typecheck.parse_and_check entry_src in
  let bin = T.compile ast ~config:(C.make C.Gcc C.O0) ~roots:[ "main" ] in
  Alcotest.(check (option int)) "line 2 is the entry address" (Some 2)
    bin.Emit.line_of.(0);
  Session.create bin ~entry:"main"

let test_tbreak_at_entry () =
  let s = entry_session () in
  ignore (Session.exec s "tbreak 2");
  Alcotest.(check (list string)) "entry stop names the temporary breakpoint"
    [ "temporary breakpoint 2, stopped at main, line 2" ]
    (Session.exec s "run");
  Alcotest.(check string) "cleared on its hit" "no breakpoints"
    (one s "info breakpoints");
  let s = entry_session () in
  ignore (Session.exec s "tbreak 3");
  Alcotest.(check (list string)) "as it does past the entry"
    [ "temporary breakpoint 3, stopped at main, line 3" ]
    (Session.exec s "run")

let test_unevaluable_condition_at_entry () =
  let note = "note: condition zz > 1 could not be evaluated (zz = <not visible>)" in
  let s = entry_session () in
  ignore (Session.exec s "break 2 if zz > 1");
  Alcotest.(check (list string)) "entry stop keeps the note"
    [ note; "breakpoint 2, stopped at main, line 2" ]
    (Session.exec s "run");
  let s = entry_session () in
  ignore (Session.exec s "break 3 if zz > 1");
  Alcotest.(check (list string)) "as it does past the entry"
    [ note; "breakpoint 3, stopped at main, line 3" ]
    (Session.exec s "run")

(* The session's all-lines protocol (the value oracle's debugger side)
   stops at the lines the measurement trace records, in the same order. *)
let stop_lines bin ~entry ~input =
  List.map
    (fun (h : Session.hit) -> h.Session.hit_line)
    (Session.first_hits bin ~entry ~input)

let trace_lines bin ~entry ~input =
  (Debugger.trace (Vm.load bin) ~entry ~inputs:[ input ]).Debugger.hit_order

let configs = C.make C.Gcc C.O0 :: Debugtuner.Experiments.all_standard_configs

let test_stops_match_trace () =
  List.iter
    (fun (p : Suite_types.sprogram) ->
      let ast = Suite_types.ast p in
      List.iter
        (fun cfg ->
          let bin = T.compile ast ~config:cfg ~roots:(Suite_types.roots p) in
          List.iter
            (fun (h : Suite_types.harness) ->
              let entry = h.Suite_types.h_entry in
              List.iteri
                (fun i input ->
                  Alcotest.(check (list int))
                    (Printf.sprintf "%s/%s seed %d at %s" p.Suite_types.p_name
                       entry i (C.name cfg))
                    (trace_lines bin ~entry ~input)
                    (stop_lines bin ~entry ~input))
                h.Suite_types.h_seeds)
            p.Suite_types.p_harnesses)
        configs)
    (Programs.all @ Spec.all)

let qcheck_stops_match_trace =
  QCheck.Test.make ~name:"session stops where the trace stops (random programs)"
    ~count:20
    QCheck.(int_range 1 60_000)
    (fun seed ->
      let ast = Minic.Typecheck.parse_and_check (Synth.generate ~seed) in
      List.for_all
        (fun cfg ->
          let bin = T.compile ast ~config:cfg ~roots:[ "main" ] in
          stop_lines bin ~entry:"main" ~input:[]
          = trace_lines bin ~entry:"main" ~input:[])
        configs)

let tests =
  [
    Alcotest.test_case "break, run, print" `Quick test_break_run_print;
    Alcotest.test_case "step into + finish" `Quick test_step_into_and_finish;
    Alcotest.test_case "next steps over calls" `Quick test_next_steps_over;
    Alcotest.test_case "continue stops in a callee" `Quick
      test_continue_stops_in_callee;
    Alcotest.test_case "next stops in a callee" `Quick
      test_next_stops_in_callee;
    Alcotest.test_case "run on a missing entry" `Quick test_run_missing_entry;
    Alcotest.test_case "arrays and info locals" `Quick test_array_and_locals;
    Alcotest.test_case "continue to exit" `Quick test_continue_to_exit;
    Alcotest.test_case "tbreak clears on hit" `Quick test_tbreak_clears;
    Alcotest.test_case "delete breakpoints" `Quick test_delete;
    Alcotest.test_case "restart" `Quick test_restart;
    Alcotest.test_case "unknown command" `Quick test_unknown_command;
    Alcotest.test_case "optimization loses breakpoints" `Quick
      test_optimization_shows;
    Alcotest.test_case "batch script transcript" `Quick test_script_transcript;
    Alcotest.test_case "timeout on runaway program" `Quick test_runtime_budget;
    Alcotest.test_case "break agrees with steppable lines" `Quick
      test_break_matches_trace_steppable;
    Alcotest.test_case "watchpoints fire on change" `Quick test_watchpoint;
    Alcotest.test_case "watchpoint baseline + unwatch" `Quick
      test_watchpoint_baseline_and_unwatch;
    Alcotest.test_case "conditional breakpoint" `Quick
      test_conditional_breakpoint;
    Alcotest.test_case "conditional breakpoint ops" `Quick
      test_conditional_breakpoint_ops;
    Alcotest.test_case "tbreak at the entry address" `Quick
      test_tbreak_at_entry;
    Alcotest.test_case "unevaluable condition at the entry address" `Quick
      test_unevaluable_condition_at_entry;
    Alcotest.test_case "stops where the trace stops" `Quick
      test_stops_match_trace;
    QCheck_alcotest.to_alcotest qcheck_stops_match_trace;
  ]
