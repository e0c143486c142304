(** Tests for the backend: out-of-SSA, register allocation, machine
    passes, emission and the location-list builder. *)

let build ?(opts = Mach.opts_o0) ?(entry_values = false) src =
  let ast = Minic.Typecheck.parse_and_check src in
  let p = Lower.lower_program ast in
  Hashtbl.iter (fun _ fn -> Mem2reg.run fn) p.Ir.funcs;
  Cleanup.run_program p;
  let fns =
    Hashtbl.fold (fun _ fn acc -> fn :: acc) p.Ir.funcs []
    |> List.sort (fun (a : Ir.fn) b -> compare a.Ir.f_line b.Ir.f_line)
  in
  let mfuncs =
    List.map
      (fun fn ->
        let m = Isel.translate_fn fn opts in
        Mach_passes.run m opts;
        m)
      fns
  in
  Emit.emit ~icf:opts.Mach.icf ~entry_values
    { Mach.mfuncs; mglobals = p.Ir.prog_globals }

let run bin ~entry ~input =
  (Vm.run bin ~entry ~input Vm.default_opts).Vm.output

let loop_src =
  "int f(int n) {\n\
   int s = 0;\n\
   int i = 0;\n\
   while (i < n) {\n\
   s = s + i * i;\n\
   i = i + 1;\n\
   }\n\
   output(s);\n\
   return s;\n\
   }"

(* ------------------------------------------------------------------ *)
(* Register allocation                                                 *)

let test_regalloc_respects_k_registers () =
  (* Lots of simultaneously-live values force spilling; the result must
     still be correct. *)
  let src =
    "int f() {\n\
     int a = input();\n\
     int v0 = a + 1;\n\
     int v1 = a + 2;\n\
     int v2 = a + 3;\n\
     int v3 = a + 4;\n\
     int v4 = a + 5;\n\
     int v5 = a + 6;\n\
     int v6 = a + 7;\n\
     int v7 = a + 8;\n\
     int v8 = a + 9;\n\
     int v9 = a + 10;\n\
     int v10 = a + 11;\n\
     int v11 = a + 12;\n\
     output(v0 + v11);\n\
     output(v1 * v10);\n\
     output(v2 + v9);\n\
     output(v3 * v8);\n\
     output(v4 + v7);\n\
     output(v5 * v6);\n\
     return 0;\n\
     }"
  in
  let bin = build src in
  Alcotest.(check (list int)) "spilled code correct"
    [ 15; 36; 15; 50; 15; 56 ]
    (run bin ~entry:"f" ~input:[ 1 ])

let test_coalescing_preserves_semantics () =
  let with_c = build ~opts:{ Mach.opts_o0 with Mach.coalesce = true } loop_src in
  let without = build loop_src in
  Alcotest.(check (list int)) "same output"
    (run without ~entry:"f" ~input:[ 9 ])
    (run with_c ~entry:"f" ~input:[ 9 ])

let test_coalescing_reduces_code () =
  (* Coalescing can only delete copies, never add them; on phi-heavy
     code it usually deletes some (the allocator may already unify
     copy-related registers by luck, hence <=). *)
  let count_movs (bin : Emit.binary) =
    Array.fold_left
      (fun acc op ->
        match op with Emit.Eins (Mach.Mmov _) -> acc + 1 | _ -> acc)
      0 bin.Emit.code
  in
  let with_c = build ~opts:{ Mach.opts_o0 with Mach.coalesce = true } loop_src in
  let without = build loop_src in
  Alcotest.(check bool) "no more copies with coalescing" true
    (count_movs with_c <= count_movs without)

let test_spill_slot_sharing_shrinks_frame () =
  let src =
    "int f(int a) {\n\
     int x = a * 2;\n\
     output(x);\n\
     int y = a * 3;\n\
     output(y);\n\
     int z = a * 5;\n\
     output(z);\n\
     int w0 = a + 1;\n\
     int w1 = a + 2;\n\
     int w2 = a + 3;\n\
     int w3 = a + 4;\n\
     int w4 = a + 5;\n\
     int w5 = a + 6;\n\
     int w6 = a + 7;\n\
     int w7 = a + 8;\n\
     int w8 = a + 9;\n\
     output(w0 + w1 + w2 + w3 + w4 + w5 + w6 + w7 + w8);\n\
     return 0;\n\
     }"
  in
  let shared = build ~opts:{ Mach.opts_o0 with Mach.share_spill_slots = true } src in
  let unshared = build src in
  let frame (bin : Emit.binary) =
    (Array.get bin.Emit.funcs 0).Emit.fi_frame_words
  in
  Alcotest.(check bool) "shared frame <= unshared" true
    (frame shared <= frame unshared);
  Alcotest.(check (list int)) "same outputs"
    (run unshared ~entry:"f" ~input:[ 2 ])
    (run shared ~entry:"f" ~input:[ 2 ])

(* ------------------------------------------------------------------ *)
(* Machine passes                                                      *)

let mach_opt_cases =
  [
    ("schedule", { Mach.opts_o0 with Mach.schedule = true });
    ("sink", { Mach.opts_o0 with Mach.sink = true });
    ("tail_merge", { Mach.opts_o0 with Mach.tail_merge = true });
    ("place_blocks", { Mach.opts_o0 with Mach.place_blocks = true });
    ("shrink_wrap", { Mach.opts_o0 with Mach.shrink_wrap = true });
    ("coalesce", { Mach.opts_o0 with Mach.coalesce = true });
    ( "all",
      {
        Mach.coalesce = true;
        share_spill_slots = true;
        shrink_wrap = true;
        schedule = true;
        sched_keep_lines = false;
        sink = true;
        tail_merge = true;
        place_blocks = true;
        icf = true;
      } );
  ]

let branchy_src =
  "int g(int x) { return x * 3 + 1; }\n\
   int f(int n) {\n\
   int s = 0;\n\
   int i = 0;\n\
   while (i < n) {\n\
   if (i % 3 == 0) {\n\
   s = s + g(i);\n\
   } else {\n\
   s = s - g(i);\n\
   }\n\
   i = i + 1;\n\
   }\n\
   output(s);\n\
   return s;\n\
   }"

let test_machine_passes_preserve_semantics () =
  let base = run (build branchy_src) ~entry:"f" ~input:[ 11 ] in
  List.iter
    (fun (name, opts) ->
      let bin = build ~opts branchy_src in
      Alcotest.(check (list int)) name base (run bin ~entry:"f" ~input:[ 11 ]))
    mach_opt_cases

let test_schedule_drops_lines () =
  let with_sched = build ~opts:{ Mach.opts_o0 with Mach.schedule = true } branchy_src in
  let without = build branchy_src in
  let lines (bin : Emit.binary) =
    List.length bin.Emit.debug.Dwarfish.line_table
  in
  Alcotest.(check bool) "scheduling loses line entries" true
    (lines with_sched <= lines without)

let test_tail_merge_shrinks () =
  let src =
    "int f(int a) {\n\
     int r = 0;\n\
     if (a > 0) {\n\
     r = a * 7;\n\
     r = r + 3;\n\
     output(r);\n\
     } else {\n\
     r = a * 9;\n\
     r = r + 3;\n\
     output(r);\n\
     }\n\
     return r;\n\
     }"
  in
  let merged = build ~opts:{ Mach.opts_o0 with Mach.tail_merge = true } src in
  let plain = build src in
  Alcotest.(check bool) "tail merging emits less code" true
    (Array.length merged.Emit.code <= Array.length plain.Emit.code);
  List.iter
    (fun a ->
      Alcotest.(check (list int))
        (Printf.sprintf "a=%d" a)
        (run plain ~entry:"f" ~input:[ a ])
        (run merged ~entry:"f" ~input:[ a ]))
    [ -2; 0; 5 ]

let test_icf_folds_identical_functions () =
  let src =
    "int dup_a(int x) { return x * 5 + 2; }\n\
     int dup_b(int x) { return x * 5 + 2; }\n\
     int f(int a) { output(dup_a(a)); output(dup_b(a)); return 0; }"
  in
  let folded = build ~opts:{ Mach.opts_o0 with Mach.icf = true } src in
  let plain = build src in
  Alcotest.(check bool) "icf emits less code" true
    (Array.length folded.Emit.code < Array.length plain.Emit.code);
  Alcotest.(check (list int)) "same behaviour"
    (run plain ~entry:"f" ~input:[ 3 ])
    (run folded ~entry:"f" ~input:[ 3 ]);
  (* Both names resolve. *)
  Alcotest.(check bool) "alias registered" true
    (Hashtbl.mem folded.Emit.fn_by_name "dup_b")

(* Hand-built machine code: a vector op over two lanes whose second
   lane adds [k], so two of them differ in one lane only. *)
let vec k =
  Mach.Mvec
    ( Ir.Add,
      [|
        (Mach.Preg 1, Mach.Loc (Mach.Preg 2), Mach.Cst 1);
        (Mach.Preg 3, Mach.Loc (Mach.Preg 4), Mach.Cst k);
      |] )

let mblock label mks mterm =
  {
    Mach.mb_label = label;
    mins = List.map (fun mk -> { Mach.mk; mline = Some (label + 1) }) mks;
    mterm;
    mterm_line = None;
    mb_prob = 0.5;
    mb_freq = 1.0;
  }

let mfn name blocks =
  let store = Ir.Label_store.create 4 in
  List.iter
    (fun (b : Mach.mblock) -> Ir.Label_store.replace store b.Mach.mb_label b)
    blocks;
  {
    Mach.mf_name = name;
    mf_line = 1;
    mf_blocks = store;
    mf_entry = (List.hd blocks).Mach.mb_label;
    mf_layout = List.map (fun (b : Mach.mblock) -> b.Mach.mb_label) blocks;
    mf_param_locs = [ Mach.Preg 0 ];
    mf_frame = [];
    mf_spill_words = 0;
    mf_shrink_wrapped = false;
  }

(* Two arms ending in a vector op and a move before a common join:
   their tails are one instruction longer when the vector ops agree. *)
let diamond k1 k2 =
  let arm label k =
    mblock label [ vec k; Mach.Mmov (Mach.Preg 5, Mach.Cst 0) ] (Mach.Mjmp 3)
  in
  mfn "f"
    [
      mblock 0 [] (Mach.Mcbr (Mach.Loc (Mach.Preg 0), 1, 2));
      arm 1 k1;
      arm 2 k2;
      mblock 3 [] (Mach.Mret (Some (Mach.Loc (Mach.Preg 5))));
    ]

let test_tail_merge_compares_vector_lanes () =
  let same = diamond 2 2 and differ = diamond 2 9 in
  Mach_passes.tail_merge_all same;
  Mach_passes.tail_merge_all differ;
  Alcotest.(check int) "equal vector ops: the two-instruction tail merges" 5
    (List.length same.Mach.mf_layout);
  Alcotest.(check (list int)) "a different lane: nothing merges" [ 0; 1; 2; 3 ]
    differ.Mach.mf_layout;
  Alcotest.(check int) "the arm keeps its vector op" 2
    (List.length (Mach.mblock differ 2).Mach.mins)

let test_icf_compares_vector_lanes () =
  let one name k = mfn name [ mblock 0 [ vec k ] (Mach.Mret None) ] in
  let emit fns =
    Emit.emit ~icf:true { Mach.mfuncs = fns; mglobals = [] }
  in
  let index (bin : Emit.binary) name = Hashtbl.find bin.Emit.fn_by_name name in
  let same = emit [ one "f" 2; one "g" 2 ] in
  Alcotest.(check int) "equal vector ops fold" (index same "f") (index same "g");
  let differ = emit [ one "f" 2; one "g" 9 ] in
  Alcotest.(check bool) "a different lane does not fold" true
    (index differ "f" <> index differ "g");
  Alcotest.(check int) "both emitted" 2 (Array.length differ.Emit.funcs)

(* The listing names every lane, so two vector ops of the same width
   that differ in one lane print as two different instructions. *)
let test_disasm_prints_vector_lanes () =
  let bin =
    Emit.emit
      {
        Mach.mfuncs = [ mfn "f" [ mblock 0 [ vec 2; vec 9 ] (Mach.Mret None) ] ];
        mglobals = [];
      }
  in
  let vec_rows =
    List.filter_map
      (fun row ->
        match String.index_opt row ':' with
        | Some i ->
            let text =
              String.trim (String.sub row (i + 1) (String.length row - i - 1))
            in
            if String.starts_with ~prefix:"vec." text then Some text else None
        | None -> None)
      (String.split_on_char '\n' (Objdump.disassemble bin))
  in
  match vec_rows with
  | [ a; b ] ->
      Alcotest.(check bool) "they differ" true (a <> b);
      Alcotest.(check bool) ("lanes of " ^ a) true
        (String.starts_with ~prefix:"vec.add {R1=R2,1; R3=R4,2}" a);
      Alcotest.(check bool) ("lanes of " ^ b) true
        (String.starts_with ~prefix:"vec.add {R1=R2,1; R3=R4,9}" b)
  | rows -> Alcotest.failf "%d vector rows, expected 2" (List.length rows)

let test_shrink_wrap_detection () =
  let src =
    "int f(int a) {\n\
     if (a < 0) {\n\
     return -1;\n\
     }\n\
     int acc[6];\n\
     acc[0] = a;\n\
     acc[1] = a * 2;\n\
     return acc[0] + acc[1];\n\
     }"
  in
  let bin = build ~opts:{ Mach.opts_o0 with Mach.shrink_wrap = true } src in
  let fi = bin.Emit.funcs.(0) in
  Alcotest.(check bool) "activation point recorded" true
    (fi.Emit.fi_activation <> None)

(* ------------------------------------------------------------------ *)
(* Emission and debug info                                             *)

let test_fallthrough_jumps_dropped () =
  let bin = build "int f(int a) { if (a) { output(1); } else { output(2); } return 0; }" in
  (* No jump in the code should target the immediately following
     address. *)
  Array.iteri
    (fun i op ->
      match op with
      | Emit.Ejmp t -> Alcotest.(check bool) "no fallthrough jmp" false (t = i + 1)
      | _ -> ())
    bin.Emit.code

let test_line_table_sorted_and_valid () =
  let bin = build loop_src in
  let entries = bin.Emit.debug.Dwarfish.line_table in
  let rec sorted = function
    | (a : Dwarfish.line_entry) :: (b :: _ as rest) ->
        a.Dwarfish.addr <= b.Dwarfish.addr && sorted rest
    | _ -> true
  in
  Alcotest.(check bool) "sorted by address" true (sorted entries);
  List.iter
    (fun (e : Dwarfish.line_entry) ->
      Alcotest.(check bool) "addr in range" true
        (e.Dwarfish.addr >= 0 && e.Dwarfish.addr < Array.length bin.Emit.code))
    entries

let test_location_ranges_well_formed () =
  let bin = build ~opts:{ Mach.opts_o0 with Mach.coalesce = true } branchy_src in
  List.iter
    (fun (vi : Dwarfish.var_info) ->
      List.iter
        (fun (r : Dwarfish.range) ->
          Alcotest.(check bool) "lo < hi" true (r.Dwarfish.lo < r.Dwarfish.hi))
        vi.Dwarfish.vi_ranges)
    bin.Emit.debug.Dwarfish.vars

let test_o0_vars_cover_whole_function () =
  let bin = build "int f(int a) { int x = a + 1; output(x); return x; }" in
  let fi = bin.Emit.funcs.(0) in
  (* At O0 (no mem2reg in this builder? — build runs mem2reg; use the
     toolchain O0 instead). *)
  ignore fi;
  let ast =
    Minic.Typecheck.parse_and_check
      "int f(int a) { int x = a + 1; output(x); return x; }"
  in
  let p = Lower.lower_program ast in
  let fns = Hashtbl.fold (fun _ fn acc -> fn :: acc) p.Ir.funcs [] in
  let bin0 =
    Emit.emit
      {
        Mach.mfuncs = List.map (fun fn -> Isel.translate_fn fn Mach.opts_o0) fns;
        mglobals = p.Ir.prog_globals;
      }
  in
  let fi0 = bin0.Emit.funcs.(0) in
  (* Every address of the function shows both variables. *)
  for addr = fi0.Emit.fi_entry to fi0.Emit.fi_end - 1 do
    let vars = Dwarfish.available_at bin0.Emit.debug addr in
    Alcotest.(check int)
      (Printf.sprintf "2 vars at %d" addr)
      2 (List.length vars)
  done

let test_entry_values_unusable () =
  (* Entry-value (ghost) entries appear where a bound register is later
     overwritten; a real program compiled by the gcc pipeline (which
     emits them) has plenty. *)
  let libpng = Programs.find "libpng" in
  let ast = Minic.Typecheck.parse_and_check libpng.Suite_types.p_source in
  let bin =
    Debugtuner.Toolchain.compile ast
      ~config:(Debugtuner.Config.make Debugtuner.Config.Gcc Debugtuner.Config.O2)
      ~roots:(Suite_types.roots libpng)
  in
  let unusable =
    List.exists
      (fun (vi : Dwarfish.var_info) ->
        List.exists (fun (r : Dwarfish.range) -> not r.Dwarfish.usable) vi.Dwarfish.vi_ranges)
      bin.Emit.debug.Dwarfish.vars
  in
  Alcotest.(check bool) "some entry-value ranges exist" true unusable;
  (* The clang pipeline does not emit them. *)
  let ast2 = Minic.Typecheck.parse_and_check libpng.Suite_types.p_source in
  let cbin =
    Debugtuner.Toolchain.compile ast2
      ~config:(Debugtuner.Config.make Debugtuner.Config.Clang Debugtuner.Config.O2)
      ~roots:(Suite_types.roots libpng)
  in
  let c_unusable =
    List.exists
      (fun (vi : Dwarfish.var_info) ->
        List.exists (fun (r : Dwarfish.range) -> not r.Dwarfish.usable) vi.Dwarfish.vi_ranges)
      cbin.Emit.debug.Dwarfish.vars
  in
  Alcotest.(check bool) "clang emits none" false c_unusable

let test_text_digest_ignores_debug () =
  (* entry_values adds only debug info: .text digest must match. *)
  let a = build ~entry_values:true branchy_src in
  let b = build branchy_src in
  Alcotest.(check string) "same text digest" b.Emit.text_digest a.Emit.text_digest

let hazardous_src =
  (* Back-to-back dependent pairs interleaved with independent work: the
     scheduler has something real to reorder. *)
  "int f(int a, int b) {\n\
   int p = a * 3;\n\
   int q = p + 1;\n\
   int r = b * 5;\n\
   int s = r + 2;\n\
   int t = a * 7;\n\
   int u = t + 3;\n\
   output(q + s + u);\n\
   return 0;\n\
   }"

let test_text_digest_sees_code_change () =
  let a = build hazardous_src in
  let b = build ~opts:{ Mach.opts_o0 with Mach.schedule = true } hazardous_src in
  Alcotest.(check bool) "different code -> different digest" true
    (a.Emit.text_digest <> b.Emit.text_digest);
  Alcotest.(check (list int)) "same behaviour"
    (run a ~entry:"f" ~input:[])
    (run b ~entry:"f" ~input:[])

let tests =
  [
    Alcotest.test_case "regalloc spilling" `Quick test_regalloc_respects_k_registers;
    Alcotest.test_case "coalescing semantics" `Quick test_coalescing_preserves_semantics;
    Alcotest.test_case "coalescing reduces code" `Quick test_coalescing_reduces_code;
    Alcotest.test_case "spill slot sharing" `Quick test_spill_slot_sharing_shrinks_frame;
    Alcotest.test_case "machine passes semantics" `Quick
      test_machine_passes_preserve_semantics;
    Alcotest.test_case "schedule drops lines" `Quick test_schedule_drops_lines;
    Alcotest.test_case "tail merge" `Quick test_tail_merge_shrinks;
    Alcotest.test_case "icf folds" `Quick test_icf_folds_identical_functions;
    Alcotest.test_case "tail merge compares vector lanes" `Quick
      test_tail_merge_compares_vector_lanes;
    Alcotest.test_case "icf compares vector lanes" `Quick
      test_icf_compares_vector_lanes;
    Alcotest.test_case "disasm prints vector lanes" `Quick
      test_disasm_prints_vector_lanes;
    Alcotest.test_case "shrink wrap detection" `Quick test_shrink_wrap_detection;
    Alcotest.test_case "fallthrough dropped" `Quick test_fallthrough_jumps_dropped;
    Alcotest.test_case "line table sorted" `Quick test_line_table_sorted_and_valid;
    Alcotest.test_case "location ranges well-formed" `Quick
      test_location_ranges_well_formed;
    Alcotest.test_case "O0 full-function coverage" `Quick
      test_o0_vars_cover_whole_function;
    Alcotest.test_case "entry values unusable" `Quick test_entry_values_unusable;
    Alcotest.test_case "digest ignores debug" `Quick test_text_digest_ignores_debug;
    Alcotest.test_case "digest sees code" `Quick test_text_digest_sees_code_change;
  ]
