(** Tests for the pass-boundary sanitizer ([Sanitize]): it must accept
    every well-formed program the pipeline produces, and each invariant
    must demonstrably fire on a hand-corrupted fixture — a sanitizer
    that never rejects is no sanitizer. *)

module C = Debugtuner.Config
module T = Debugtuner.Toolchain

(* ------------------------------------------------------------------ *)
(* Acceptance: the sanitizer is silent on healthy compilations          *)

let all_configs =
  Array.of_list
    (List.concat_map
       (fun level -> [ C.make C.Gcc level; C.make C.Clang level ])
       [ C.O0; C.O1; C.O2; C.O3 ])

(* 1000 seeded synthetic programs through the full pipeline with every
   boundary checked; the config rotates with the seed so all eight
   pipelines share the load. Any [Check_failed] escapes and fails the
   test with the offending pass in the message. The seed sequence is a
   deterministic counter (2001..3000, disjoint from the CLI fuzz
   smoke's 1..100) so tier-1 cannot flake; random exploration lives in
   `debugtuner_cli check --fuzz N --seed S`. *)
let qcheck_sanitizer_accepts =
  let counter = ref 2000 in
  QCheck.Test.make ~name:"sanitizer accepts 1000 synthetic programs"
    ~count:1000
    (QCheck.make ~print:string_of_int (fun _rng ->
         incr counter;
         !counter))
    (fun seed ->
      let source = Synth.generate ~seed in
      let config = all_configs.(seed mod Array.length all_configs) in
      let ast = Minic.Typecheck.parse_and_check source in
      ignore
        (T.compile ast ~config ~roots:[ "main" ]
           ~options:(T.Options.make ~sanitize:true ()));
      true)

(* ------------------------------------------------------------------ *)
(* Rejection: every invariant fires on a corrupted fixture              *)

let loop_src =
  "int f(int n) {\n\
  \  int s = 0;\n\
  \  int i = 0;\n\
  \  while (i < n) {\n\
  \    s = s + i;\n\
  \    i = i + 1;\n\
  \  }\n\
  \  return s;\n\
   }"

let lowered () = Lower.lower_program (Minic.Typecheck.parse_and_check loop_src)

let ssa () =
  let p = lowered () in
  Hashtbl.iter (fun _ fn -> Mem2reg.run fn) p.Ir.funcs;
  Cleanup.run_program p;
  p

let fn_of p = Hashtbl.find p.Ir.funcs "f"

let expect invariant f =
  match f () with
  | _ ->
      Alcotest.failf "expected a %s violation, sanitizer stayed silent"
        (Sanitize.invariant_name invariant)
  | exception Sanitize.Check_failed { invariant = fired; _ } ->
      Alcotest.(check string)
        "invariant"
        (Sanitize.invariant_name invariant)
        (Sanitize.invariant_name fired)

let test_rejects_structural () =
  let p = ssa () in
  let fn = fn_of p in
  (Ir.block fn fn.Ir.entry).Ir.term <- Ir.Br 999;
  expect Sanitize.Structural (fun () ->
      Sanitize.check_ir ~pass:"fixture" p)

let test_rejects_dominance () =
  let p = ssa () in
  let fn = fn_of p in
  (* Rewrite some phi to feed itself on every incoming edge: the
     entry-side edge then uses a value its block does not dominate. *)
  let corrupted = ref false in
  Ir.iter_blocks fn (fun b ->
      if (not !corrupted) && b.Ir.phis <> [] && List.length b.Ir.preds > 1
      then begin
        let ph = List.hd b.Ir.phis in
        ph.Ir.p_args <-
          List.map (fun (pl, _) -> (pl, Ir.Reg ph.Ir.p_dst)) ph.Ir.p_args;
        corrupted := true
      end);
  Alcotest.(check bool) "found a merge phi" true !corrupted;
  expect Sanitize.Dominance (fun () -> Sanitize.check_ir ~pass:"fixture" p)

let test_rejects_liveness_entry () =
  (* Pre-SSA form (dominance not checked, as at the "lower" boundary):
     an entry-block read of a register only defined further down makes
     that register live into entry. *)
  let p = lowered () in
  let fn = fn_of p in
  let entry = Ir.block fn fn.Ir.entry in
  let defined = ref [] in
  Ir.iter_blocks fn (fun b ->
      List.iter
        (fun (i : Ir.instr) ->
          defined := Ir.def_of_ikind i.Ir.ik @ !defined)
        b.Ir.instrs);
  Alcotest.(check bool) "f defines something" true (!defined <> []);
  let r = List.hd !defined in
  let premature =
    { Ir.ik = Ir.Bin (Ir.Add, Ir.fresh_reg fn, Ir.Reg r, Ir.Imm 0);
      line = None }
  in
  entry.Ir.instrs <- premature :: entry.Ir.instrs;
  expect Sanitize.Liveness_entry (fun () ->
      Sanitize.check_ir ~ssa:false ~pass:"fixture" p)

let test_rejects_line_invalid () =
  let p = ssa () in
  let fn = fn_of p in
  let entry = Ir.block fn fn.Ir.entry in
  Alcotest.(check bool) "entry non-empty" true (entry.Ir.instrs <> []);
  (List.hd entry.Ir.instrs).Ir.line <- Some 0;
  expect Sanitize.Line_invalid (fun () ->
      Sanitize.check_ir ~pass:"fixture" p)

let test_rejects_line_grow () =
  let p = ssa () in
  let prev = Sanitize.check_ir ~pass:"fixture" p in
  let fn = fn_of p in
  let entry = Ir.block fn fn.Ir.entry in
  (List.hd entry.Ir.instrs).Ir.line <- Some 4999;
  expect Sanitize.Line_grow (fun () ->
      ignore (Sanitize.check_ir ~prev ~pass:"fixture" p))

let test_rejects_var_grow () =
  let p = ssa () in
  let prev = Sanitize.check_ir ~pass:"fixture" p in
  let fn = fn_of p in
  let entry = Ir.block fn fn.Ir.entry in
  let ghost =
    { Ir.ik = Ir.Dbg ({ Ir.origin = "f"; name = "ghost" }, None); line = None }
  in
  entry.Ir.instrs <- entry.Ir.instrs @ [ ghost ];
  expect Sanitize.Var_grow (fun () ->
      ignore (Sanitize.check_ir ~prev ~pass:"fixture" p))

let test_rejects_loc_bounds () =
  let p = lowered () in
  let m = Isel.translate_fn (fn_of p) Mach.opts_o0 in
  let corrupted = ref false in
  Ir.Label_store.iter
    (fun _ (b : Mach.mblock) ->
      List.iter
        (fun (i : Mach.minstr) ->
          if not !corrupted then
            let garbage = Mach.Preg (Mach.num_regs + 7) in
            match i.Mach.mk with
            | Mach.Mmov (_, v) ->
                i.Mach.mk <- Mach.Mmov (garbage, v);
                corrupted := true
            | Mach.Mload (_, a) ->
                i.Mach.mk <- Mach.Mload (garbage, a);
                corrupted := true
            | Mach.Mbin (op, _, a, b) ->
                i.Mach.mk <- Mach.Mbin (op, garbage, a, b);
                corrupted := true
            | _ -> ())
        b.Mach.mins)
    m.Mach.mf_blocks;
  Alcotest.(check bool) "found a move to corrupt" true !corrupted;
  expect Sanitize.Loc_bounds (fun () ->
      ignore (Sanitize.check_mach ~pass:"fixture" m))

let test_rejects_binary_debug () =
  let bin =
    T.compile_source loop_src ~config:(C.make C.Gcc C.O0) ~roots:[ "f" ]
  in
  bin.Emit.debug.Dwarfish.line_table <-
    bin.Emit.debug.Dwarfish.line_table
    @ [ { Dwarfish.addr = 1_000_000; line = 1 } ];
  expect Sanitize.Binary_debug (fun () ->
      Sanitize.check_binary ~pass:"fixture" bin)

let test_rejects_range_nesting () =
  let bin =
    T.compile_source loop_src ~config:(C.make C.Gcc C.O0) ~roots:[ "f" ]
  in
  (* Split one healthy range into two partially-overlapping copies of
     itself: same location (so Debug_verify's overlap-conflict check
     stays quiet), in bounds, but neither disjoint nor nested. *)
  let vi =
    List.find
      (fun (vi : Dwarfish.var_info) ->
        List.exists
          (fun (r : Dwarfish.range) -> r.Dwarfish.hi - r.Dwarfish.lo >= 3)
          vi.Dwarfish.vi_ranges)
      bin.Emit.debug.Dwarfish.vars
  in
  let r =
    List.find
      (fun (r : Dwarfish.range) -> r.Dwarfish.hi - r.Dwarfish.lo >= 3)
      vi.Dwarfish.vi_ranges
  in
  vi.Dwarfish.vi_ranges <-
    [
      { r with Dwarfish.hi = r.Dwarfish.hi - 1 };
      { r with Dwarfish.lo = r.Dwarfish.lo + 1 };
    ];
  expect Sanitize.Range_nesting (fun () ->
      Sanitize.check_binary ~pass:"fixture" bin)

let test_counters_track_failures () =
  let (), rows =
    Util.Counters.scoped @@ fun () ->
    let p = ssa () in
    ignore (Sanitize.check_ir ~pass:"ctr-ok" p);
    let fn = fn_of p in
    (Ir.block fn fn.Ir.entry).Ir.term <- Ir.Br 999;
    try ignore (Sanitize.check_ir ~pass:"ctr-bad" p)
    with Sanitize.Check_failed _ -> ()
  in
  let find pass =
    let row field =
      Option.value ~default:0
        (List.assoc_opt ("sanitize/" ^ pass ^ "/" ^ field) rows)
    in
    (row "checked", row "failures")
  in
  Alcotest.(check (pair int int)) "clean boundary" (1, 0) (find "ctr-ok");
  Alcotest.(check (pair int int)) "failing boundary" (1, 1) (find "ctr-bad")

let tests =
  [
    QCheck_alcotest.to_alcotest qcheck_sanitizer_accepts;
    Alcotest.test_case "rejects broken CFG (structural)" `Quick
      test_rejects_structural;
    Alcotest.test_case "rejects dominance violation" `Quick
      test_rejects_dominance;
    Alcotest.test_case "rejects non-param live into entry" `Quick
      test_rejects_liveness_entry;
    Alcotest.test_case "rejects invalid line" `Quick test_rejects_line_invalid;
    Alcotest.test_case "rejects invented line" `Quick test_rejects_line_grow;
    Alcotest.test_case "rejects invented variable" `Quick
      test_rejects_var_grow;
    Alcotest.test_case "rejects out-of-bounds machine location" `Quick
      test_rejects_loc_bounds;
    Alcotest.test_case "rejects corrupt binary debug info" `Quick
      test_rejects_binary_debug;
    Alcotest.test_case "rejects partially-overlapping ranges" `Quick
      test_rejects_range_nesting;
    Alcotest.test_case "counters track checks and failures" `Quick
      test_counters_track_failures;
  ]
