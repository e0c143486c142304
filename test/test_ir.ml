(** Tests for the IR substrate: lowering, evaluation semantics,
    dominators, liveness, loops, mem2reg and the verifier. *)

let lower src =
  let ast = Minic.Typecheck.parse_and_check src in
  Lower.lower_program ast

let lower_fn src name =
  let p = lower src in
  (p, Hashtbl.find p.Ir.funcs name)

(* ------------------------------------------------------------------ *)
(* Operator semantics                                                  *)

let test_eval_binop_basics () =
  Alcotest.(check int) "add" 7 (Ir.eval_binop Ir.Add 3 4);
  Alcotest.(check int) "div by zero" 0 (Ir.eval_binop Ir.Div 5 0);
  Alcotest.(check int) "rem by zero" 0 (Ir.eval_binop Ir.Rem 5 0);
  Alcotest.(check int) "div trunc" (-2) (Ir.eval_binop Ir.Div (-5) 2);
  Alcotest.(check int) "shl 3" 8 (Ir.eval_binop Ir.Shl 1 3);
  Alcotest.(check int) "shr neg" (-1) (Ir.eval_binop Ir.Shr (-2) 1);
  Alcotest.(check int) "shl big amount" 0 (Ir.eval_binop Ir.Shl 1 63);
  Alcotest.(check int) "cmp true" 1 (Ir.eval_binop Ir.Cle 2 2);
  Alcotest.(check int) "cmp false" 0 (Ir.eval_binop Ir.Cgt 2 2)

let test_eval_unop () =
  Alcotest.(check int) "neg" (-3) (Ir.eval_unop Ir.Neg 3);
  Alcotest.(check int) "lnot 0" 1 (Ir.eval_unop Ir.Lnot 0);
  Alcotest.(check int) "lnot 5" 0 (Ir.eval_unop Ir.Lnot 5);
  Alcotest.(check int) "bnot" (-1) (Ir.eval_unop Ir.Bnot 0)

let qcheck_shift_total =
  QCheck.Test.make ~name:"shifts are total and sign-correct" ~count:500
    QCheck.(pair int small_int)
    (fun (a, b) ->
      let l = Ir.eval_binop Ir.Shl a b in
      let r = Ir.eval_binop Ir.Shr a b in
      ignore l;
      (* arithmetic shr keeps the sign for small shifts *)
      if a < 0 then r <= 0 else r >= 0)

(* ------------------------------------------------------------------ *)
(* Lowering structure                                                  *)

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

let test_lowering_shape () =
  let p, fn = lower_fn loop_src "f" in
  Verify.check p;
  (* O0 shape: every named variable has a slot. *)
  let named =
    List.filter (fun (s : Ir.slot) -> s.Ir.s_var <> None) fn.Ir.f_slots
  in
  Alcotest.(check int) "n, s, i slots" 3 (List.length named);
  (* A while loop produces header/body/exit blocks. *)
  Alcotest.(check bool) "several blocks" true (List.length fn.Ir.layout >= 4)

let test_lowering_lines () =
  let _, fn = lower_fn loop_src "f" in
  let lines = ref [] in
  Ir.iter_instrs fn (fun _ i ->
      match i.Ir.line with Some l -> lines := l :: !lines | None -> ());
  let uniq = List.sort_uniq compare !lines in
  (* Lines 1..6 and 8 all carry instructions at O0. *)
  List.iter
    (fun l ->
      Alcotest.(check bool) (Printf.sprintf "line %d present" l) true
        (List.mem l uniq))
    [ 2; 3; 5; 6; 8 ]

let test_lowering_short_circuit () =
  let p, _ = lower_fn "int f(int a, int b) { return a && b; }" "f" in
  Verify.check p;
  (* Short-circuit goes through an anonymous slot. *)
  let fn = Hashtbl.find p.Ir.funcs "f" in
  let anon =
    List.filter (fun (s : Ir.slot) -> s.Ir.s_var = None) fn.Ir.f_slots
  in
  Alcotest.(check int) "one anonymous slot" 1 (List.length anon)

let test_lowering_break_continue () =
  let p, fn =
    lower_fn
      "int f(int n) {\n\
      \  int s = 0;\n\
      \  for (int i = 0; i < n; i = i + 1) {\n\
      \    if (i == 3) { continue; }\n\
      \    if (i == 7) { break; }\n\
      \    s = s + i;\n\
      \  }\n\
      \  return s;\n\
       }"
      "f"
  in
  Verify.check p;
  Alcotest.(check bool) "many blocks" true (List.length fn.Ir.layout >= 6)

(* ------------------------------------------------------------------ *)
(* Dominators, loops, liveness                                         *)

let test_dominators () =
  let _, fn = lower_fn loop_src "f" in
  Ir.prune_unreachable fn;
  let dom = Dom.compute fn in
  (* Entry dominates everything. *)
  List.iter
    (fun l ->
      Alcotest.(check bool)
        (Printf.sprintf "entry dom %d" l)
        true
        (Dom.dominates dom fn.Ir.entry l))
    fn.Ir.layout;
  (* Everything dominates itself. *)
  List.iter
    (fun l -> Alcotest.(check bool) "self" true (Dom.dominates dom l l))
    fn.Ir.layout

let test_loops_found () =
  let _, fn = lower_fn loop_src "f" in
  Ir.prune_unreachable fn;
  let dom = Dom.compute fn in
  let loops = Loops.find fn dom in
  Alcotest.(check int) "one loop" 1 (List.length loops.Loops.loops);
  let lp = List.hd loops.Loops.loops in
  Alcotest.(check int) "depth 1" 1 lp.Loops.depth;
  Alcotest.(check bool) "header in body" true
    (Loops.Label_set.mem lp.Loops.header lp.Loops.body)

let test_nested_loop_depth () =
  let _, fn =
    lower_fn
      "int f(int n) {\n\
      \  int s = 0;\n\
      \  int i = 0;\n\
      \  while (i < n) {\n\
      \    int j = 0;\n\
      \    while (j < n) {\n\
      \      s = s + 1;\n\
      \      j = j + 1;\n\
      \    }\n\
      \    i = i + 1;\n\
      \  }\n\
      \  return s;\n\
       }"
      "f"
  in
  Ir.prune_unreachable fn;
  let dom = Dom.compute fn in
  let loops = Loops.find fn dom in
  Alcotest.(check int) "two loops" 2 (List.length loops.Loops.loops);
  let depths = List.map (fun l -> l.Loops.depth) loops.Loops.loops in
  Alcotest.(check (list int)) "depths 1 and 2" [ 1; 2 ]
    (List.sort compare depths)

let test_preheader_idempotent () =
  let _, fn = lower_fn loop_src "f" in
  Ir.prune_unreachable fn;
  let dom = Dom.compute fn in
  let loops = Loops.find fn dom in
  let lp = List.hd loops.Loops.loops in
  let ph1 = Loops.preheader fn lp in
  let ph2 = Loops.preheader fn lp in
  Alcotest.(check int) "stable preheader" ph1 ph2

let test_liveness_param_live () =
  let _, fn = lower_fn loop_src "f" in
  Mem2reg.run fn;
  let live = Liveness.compute fn in
  (* The parameter n feeds the loop condition, so it is live into the
     entry block's successors region; at minimum live-in of entry holds
     whatever entry reads. *)
  let entry_in = Liveness.live_in live fn.Ir.entry in
  let param_regs = List.map fst fn.Ir.f_params in
  Alcotest.(check bool) "a param is live somewhere" true
    (List.exists
       (fun l ->
         List.exists
           (fun r -> Liveness.Reg_set.mem r (Liveness.live_in live l))
           param_regs)
       fn.Ir.layout
    || List.exists (fun r -> Liveness.Reg_set.mem r entry_in) param_regs)

(* ------------------------------------------------------------------ *)
(* Mem2reg                                                             *)

let test_mem2reg_promotes_scalars () =
  let p, fn = lower_fn loop_src "f" in
  Mem2reg.run fn;
  Verify.check p;
  Alcotest.(check int) "all scalar slots promoted" 0 (List.length fn.Ir.f_slots);
  (* The loop header needs phis. *)
  let has_phi = ref false in
  Ir.iter_blocks fn (fun b -> if b.Ir.phis <> [] then has_phi := true);
  Alcotest.(check bool) "phis inserted" true !has_phi

let test_mem2reg_keeps_arrays () =
  let p, fn =
    lower_fn "int f() { int a[4]; a[0] = 1; return a[0]; }" "f"
  in
  Mem2reg.run fn;
  Verify.check p;
  Alcotest.(check int) "array slot stays" 1 (List.length fn.Ir.f_slots)

let test_mem2reg_inserts_dbg () =
  let _, fn = lower_fn loop_src "f" in
  Mem2reg.run fn;
  let dbg_vars = ref [] in
  Ir.iter_instrs fn (fun _ i ->
      match i.Ir.ik with
      | Ir.Dbg (v, _) -> dbg_vars := v.Ir.name :: !dbg_vars
      | _ -> ());
  List.iter
    (fun v ->
      Alcotest.(check bool) (v ^ " announced") true (List.mem v !dbg_vars))
    [ "n"; "s"; "i" ]

(* Semantics preservation through mem2reg, on random synthetic
   programs: the strongest single property of the whole substrate. *)
let qcheck_mem2reg_semantics =
  QCheck.Test.make ~name:"mem2reg preserves program output" ~count:25
    QCheck.(int_range 1 10_000)
    (fun seed ->
      let src = Synth.generate ~seed in
      let ast = Minic.Typecheck.parse_and_check src in
      let run p =
        let fns =
          Hashtbl.fold (fun _ fn acc -> fn :: acc) p.Ir.funcs []
          |> List.sort (fun (a : Ir.fn) b -> compare a.Ir.f_line b.Ir.f_line)
        in
        let mfuncs = List.map (fun fn -> Isel.translate_fn fn Mach.opts_o0) fns in
        let bin = Emit.emit { Mach.mfuncs; mglobals = p.Ir.prog_globals } in
        (Vm.run bin ~entry:"main" ~input:[] Vm.default_opts).Vm.output
      in
      let base = run (Lower.lower_program ast) in
      let promoted =
        let p = Lower.lower_program ast in
        Hashtbl.iter (fun _ fn -> Mem2reg.run fn) p.Ir.funcs;
        Verify.check p;
        run p
      in
      base = promoted)

(* ------------------------------------------------------------------ *)
(* Label store against a Hashtbl model                                 *)

(* Each operation acts on the original store or on its copy; [Copy]
   replaces the copy with a fresh one of the original, made through
   [map] as [Ir.Snapshot] makes its copies, after which the two are
   mutated independently. *)
type store_op =
  | Replace of bool * int * int  (** an add when the label is absent *)
  | Remove of bool * int
  | Find of bool * int
  | Mem of bool * int
  | Length of bool
  | Copy

let store_op_to_string op =
  let side c = if c then "copy" else "orig" in
  match op with
  | Replace (c, l, v) -> Printf.sprintf "replace %s L%d %d" (side c) l v
  | Remove (c, l) -> Printf.sprintf "remove %s L%d" (side c) l
  | Find (c, l) -> Printf.sprintf "find %s L%d" (side c) l
  | Mem (c, l) -> Printf.sprintf "mem %s L%d" (side c) l
  | Length c -> Printf.sprintf "length %s" (side c)
  | Copy -> "copy"

let arb_store_ops =
  let open QCheck.Gen in
  (* labels run far past the store's initial capacity of 2 *)
  let side = bool and label = int_range 0 40 in
  let op =
    frequency
      [
        (6, map3 (fun c l v -> Replace (c, l, v)) side label small_nat);
        (3, map2 (fun c l -> Remove (c, l)) side label);
        (3, map2 (fun c l -> Find (c, l)) side label);
        (2, map2 (fun c l -> Mem (c, l)) side label);
        (1, map (fun c -> Length c) side);
        (1, return Copy);
      ]
  in
  QCheck.make
    ~print:(QCheck.Print.list store_op_to_string)
    (list_size (int_range 0 120) op)

let qcheck_label_store_model =
  QCheck.Test.make ~name:"label store matches a Hashtbl model" ~count:300
    arb_store_ops (fun ops ->
      let module S = Ir.Label_store in
      let fresh () = (S.create 2, Hashtbl.create 2) in
      let orig = fresh () and copy = ref (fresh ()) in
      (* iteration must list exactly the model's bindings, by label *)
      let agrees (s, m) =
        S.length s = Hashtbl.length m
        && List.rev (S.fold (fun l v acc -> (l, v) :: acc) s [])
           = List.sort compare (Hashtbl.fold (fun l v acc -> (l, v) :: acc) m [])
      in
      List.for_all
        (fun op ->
          let pick c = if c then !copy else orig in
          let step_ok =
            match op with
            | Replace (c, l, v) ->
                let s, m = pick c in
                S.replace s l v;
                Hashtbl.replace m l v;
                true
            | Remove (c, l) ->
                let s, m = pick c in
                S.remove s l;
                Hashtbl.remove m l;
                true
            | Find (c, l) ->
                let s, m = pick c in
                S.find_opt s l = Hashtbl.find_opt m l
            | Mem (c, l) ->
                let s, m = pick c in
                S.mem s l = Hashtbl.mem m l
            | Length c ->
                let s, m = pick c in
                S.length s = Hashtbl.length m
            | Copy ->
                let s, m = orig in
                copy := (S.map Fun.id s, Hashtbl.copy m);
                true
          in
          step_ok && agrees orig && agrees !copy)
        ops)

(* ------------------------------------------------------------------ *)
(* Verifier                                                            *)

let test_verifier_catches_breakage () =
  let p, fn = lower_fn loop_src "f" in
  Verify.check p;
  (* Break it: point a terminator at a missing block. *)
  (Ir.block fn fn.Ir.entry).Ir.term <- Ir.Br 9999;
  match Verify.check p with
  | exception Verify.Invalid _ -> ()
  | () -> Alcotest.fail "verifier should reject missing target"

let test_verifier_catches_double_def () =
  let p, fn = lower_fn loop_src "f" in
  let b = Ir.block fn fn.Ir.entry in
  b.Ir.instrs <-
    b.Ir.instrs
    @ [
        { Ir.ik = Ir.Mov (1, Ir.Imm 0); line = None };
        { Ir.ik = Ir.Mov (1, Ir.Imm 1); line = None };
      ];
  match Verify.check p with
  | exception Verify.Invalid _ -> ()
  | () -> Alcotest.fail "verifier should reject double definition"

let tests =
  [
    Alcotest.test_case "eval binop" `Quick test_eval_binop_basics;
    Alcotest.test_case "eval unop" `Quick test_eval_unop;
    Alcotest.test_case "lowering shape" `Quick test_lowering_shape;
    Alcotest.test_case "lowering lines" `Quick test_lowering_lines;
    Alcotest.test_case "lowering short circuit" `Quick test_lowering_short_circuit;
    Alcotest.test_case "lowering break/continue" `Quick test_lowering_break_continue;
    Alcotest.test_case "dominators" `Quick test_dominators;
    Alcotest.test_case "loops found" `Quick test_loops_found;
    Alcotest.test_case "nested loop depth" `Quick test_nested_loop_depth;
    Alcotest.test_case "preheader idempotent" `Quick test_preheader_idempotent;
    Alcotest.test_case "liveness params" `Quick test_liveness_param_live;
    Alcotest.test_case "mem2reg promotes scalars" `Quick test_mem2reg_promotes_scalars;
    Alcotest.test_case "mem2reg keeps arrays" `Quick test_mem2reg_keeps_arrays;
    Alcotest.test_case "mem2reg inserts dbg" `Quick test_mem2reg_inserts_dbg;
    Alcotest.test_case "verifier missing target" `Quick test_verifier_catches_breakage;
    Alcotest.test_case "verifier double def" `Quick test_verifier_catches_double_def;
    QCheck_alcotest.to_alcotest qcheck_shift_total;
    QCheck_alcotest.to_alcotest qcheck_mem2reg_semantics;
    QCheck_alcotest.to_alcotest qcheck_label_store_model;
  ]
