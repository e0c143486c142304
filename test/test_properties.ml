(** Randomized structural properties of the core analyses — dominators,
    dominance frontiers, liveness, natural loops — checked over the IR
    of random synthetic programs *after* the optimization pipeline has
    reshaped the CFG (threading, rotation, unrolling and if-conversion
    produce far gnarlier graphs than any hand-written fixture). The
    dominator check compares the CHK implementation against an
    independent naive dataflow solver. *)

module C = Debugtuner.Config
module T = Debugtuner.Toolchain

(* Lower a random program and run the gcc IR pipeline at [level],
   mirroring Toolchain.compile's IR phase, then hand back the
   functions. *)
let optimized_funcs ~seed ~level =
  let src = Synth.generate ~seed in
  let ast = Minic.Typecheck.parse_and_check src in
  let prog = Lower.lower_program ast in
  let config = C.make C.Gcc level in
  let env =
    {
      T.prog;
      roots = [ "main" ];
      pure = (fun _ -> false);
      profile = None;
      enabled = C.enabled config;
    }
  in
  if level <> C.O0 then begin
    Hashtbl.iter (fun _ fn -> Mem2reg.run fn) prog.Ir.funcs;
    Cleanup.run_program prog;
    List.iter
      (fun e ->
        match e with
        | T.Ir_pass (name, f) when C.enabled config name ->
            f env;
            Cleanup.run_program prog
        | T.Ir_pass _ | T.Backend_flag _ -> ())
      (T.pipeline config)
  end;
  Hashtbl.fold (fun _ fn acc -> fn :: acc) prog.Ir.funcs []

let levels = [| C.O0; C.O1; C.O2; C.O3 |]

let arb_fn_seed =
  QCheck.(pair (int_range 1 50_000) (int_range 0 3))

(* ------------------------------------------------------------------ *)
(* Naive dominator reference: dom(b) = {b} ∪ ∩ dom(preds), iterated.   *)

module Label_set = Set.Make (Int)

let naive_dominators (fn : Ir.fn) =
  Ir.recompute_preds fn;
  let reach = Ir.rpo fn in
  let all = Label_set.of_list reach in
  let dom = Hashtbl.create 16 in
  List.iter
    (fun l ->
      Hashtbl.replace dom l
        (if l = fn.Ir.entry then Label_set.singleton l else all))
    reach;
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun l ->
        if l <> fn.Ir.entry then begin
          let preds =
            List.filter (fun p -> Hashtbl.mem dom p) (Ir.block fn l).Ir.preds
          in
          let meet =
            match preds with
            | [] -> all
            | p :: rest ->
                List.fold_left
                  (fun acc q -> Label_set.inter acc (Hashtbl.find dom q))
                  (Hashtbl.find dom p) rest
          in
          let next = Label_set.add l meet in
          if not (Label_set.equal next (Hashtbl.find dom l)) then begin
            Hashtbl.replace dom l next;
            changed := true
          end
        end)
      reach
  done;
  dom

let qcheck_dominators_vs_naive =
  QCheck.Test.make ~name:"CHK dominators agree with the naive solver"
    ~count:40 arb_fn_seed (fun (seed, li) ->
      List.for_all
        (fun fn ->
          let t = Dom.compute fn in
          let naive = naive_dominators fn in
          let reach = Ir.rpo fn in
          List.for_all
            (fun a ->
              List.for_all
                (fun b ->
                  Dom.dominates t a b
                  = Label_set.mem a (Hashtbl.find naive b))
                reach)
            reach)
        (optimized_funcs ~seed ~level:levels.(li)))

let qcheck_idom_is_strict_dominator =
  QCheck.Test.make ~name:"idom strictly dominates (and entry is root)"
    ~count:40 arb_fn_seed (fun (seed, li) ->
      List.for_all
        (fun fn ->
          let t = Dom.compute fn in
          List.for_all
            (fun l ->
              if l = fn.Ir.entry then Dom.idom t l = Some l || Dom.idom t l = None
              else
                match Dom.idom t l with
                | Some p -> p <> l && Dom.dominates t p l
                | None -> false)
            (Ir.rpo fn))
        (optimized_funcs ~seed ~level:levels.(li)))

(* DF(b) contains exactly the "just out of reach" blocks: b dominates a
   predecessor of f but does not strictly dominate f itself. *)
let qcheck_dominance_frontier =
  QCheck.Test.make ~name:"dominance-frontier characterization" ~count:25
    arb_fn_seed (fun (seed, li) ->
      List.for_all
        (fun fn ->
          let t = Dom.compute fn in
          let df = Dom.frontiers fn t in
          Hashtbl.fold
            (fun b frontier ok ->
              ok
              && List.for_all
                   (fun f ->
                     let fb = Ir.block fn f in
                     List.exists
                       (fun p ->
                         Dom.reachable t p && Dom.dominates t b p)
                       fb.Ir.preds
                     && (b = f || not (Dom.dominates t b f)))
                   frontier)
            df true)
        (optimized_funcs ~seed ~level:levels.(li)))

(* ------------------------------------------------------------------ *)
(* Liveness                                                            *)

let qcheck_liveness_entry =
  QCheck.Test.make
    ~name:"nothing but parameters live into the entry block" ~count:40
    arb_fn_seed (fun (seed, li) ->
      List.for_all
        (fun (fn : Ir.fn) ->
          let lv = Liveness.compute fn in
          let params =
            Liveness.Reg_set.of_list (List.map fst fn.Ir.f_params)
          in
          Liveness.Reg_set.subset (Liveness.live_in lv fn.Ir.entry) params)
        (optimized_funcs ~seed ~level:levels.(li)))

let qcheck_liveness_upward_closure =
  QCheck.Test.make
    ~name:"live-out covers successors' live-in (minus their phi defs)"
    ~count:25 arb_fn_seed (fun (seed, li) ->
      List.for_all
        (fun (fn : Ir.fn) ->
          let lv = Liveness.compute fn in
          List.for_all
            (fun l ->
              let b = Ir.block fn l in
              List.for_all
                (fun s ->
                  let sb = Ir.block fn s in
                  let phi_defs =
                    Liveness.Reg_set.of_list
                      (List.map (fun (p : Ir.phi) -> p.Ir.p_dst) sb.Ir.phis)
                  in
                  Liveness.Reg_set.subset
                    (Liveness.Reg_set.diff (Liveness.live_in lv s) phi_defs)
                    (Liveness.live_out lv l))
                (Ir.succs b.Ir.term))
            (Ir.rpo fn))
        (optimized_funcs ~seed ~level:levels.(li)))

(* ------------------------------------------------------------------ *)
(* Natural loops                                                       *)

let qcheck_loops_well_formed =
  QCheck.Test.make
    ~name:"loop headers dominate their bodies; latches close the loop"
    ~count:40 arb_fn_seed (fun (seed, li) ->
      List.for_all
        (fun fn ->
          let t = Dom.compute fn in
          let loops = (Loops.find fn t).Loops.loops in
          List.for_all
            (fun (lp : Loops.loop) ->
              Loops.Label_set.mem lp.Loops.header lp.Loops.body
              && Loops.Label_set.for_all
                   (fun l -> Dom.dominates t lp.Loops.header l)
                   lp.Loops.body
              && lp.Loops.latches <> []
              && List.for_all
                   (fun latch ->
                     Loops.Label_set.mem latch lp.Loops.body
                     && List.mem lp.Loops.header
                          (Ir.succs (Ir.block fn latch).Ir.term))
                   lp.Loops.latches)
            loops)
        (optimized_funcs ~seed ~level:levels.(li)))

let qcheck_loop_depth_nesting =
  QCheck.Test.make
    ~name:"nested loop depth exceeds the enclosing loop's" ~count:25
    arb_fn_seed (fun (seed, li) ->
      List.for_all
        (fun fn ->
          let t = Dom.compute fn in
          let loops = (Loops.find fn t).Loops.loops in
          List.for_all
            (fun (a : Loops.loop) ->
              List.for_all
                (fun (b : Loops.loop) ->
                  (* b strictly inside a -> deeper *)
                  if
                    a.Loops.header <> b.Loops.header
                    && Loops.Label_set.subset b.Loops.body a.Loops.body
                  then b.Loops.depth > a.Loops.depth
                  else true)
                loops)
            loops)
        (optimized_funcs ~seed ~level:levels.(li)))

(* ------------------------------------------------------------------ *)
(* The verifier holds at every stage the properties sampled above      *)

let qcheck_ssa_after_pipeline =
  QCheck.Test.make ~name:"SSA verifier accepts post-pipeline IR" ~count:40
    arb_fn_seed (fun (seed, li) ->
      let fns = optimized_funcs ~seed ~level:levels.(li) in
      List.iter (fun fn -> Verify.check_fn fn) fns;
      true)

(* ------------------------------------------------------------------ *)
(* Arithmetic: totality and the division algebra                       *)

let arb_extreme =
  QCheck.(
    oneof
      [
        int;
        oneofl [ min_int; max_int; 0; 1; -1; 2; -2; 63; 64; -63; -64 ];
      ])

let all_binops =
  [
    Ir.Add; Ir.Sub; Ir.Mul; Ir.Div; Ir.Rem; Ir.And; Ir.Or; Ir.Xor; Ir.Shl;
    Ir.Shr; Ir.Clt; Ir.Cle; Ir.Cgt; Ir.Cge; Ir.Ceq; Ir.Cne;
  ]

let qcheck_binop_total =
  QCheck.Test.make ~name:"eval_binop is total on extreme inputs" ~count:300
    QCheck.(pair arb_extreme arb_extreme)
    (fun (a, b) ->
      List.for_all
        (fun op ->
          match Ir.eval_binop op a b with _ -> true)
        all_binops)

let qcheck_div_rem_algebra =
  QCheck.Test.make ~name:"a = (a/b)*b + a%b when b <> 0" ~count:300
    QCheck.(pair arb_extreme arb_extreme)
    (fun (a, b) ->
      QCheck.assume (b <> 0);
      (* min_int / -1 overflows in two's complement; our semantics
         saturate it to min_int * -1 = min_int, keeping the identity. *)
      Ir.eval_binop Ir.Add
        (Ir.eval_binop Ir.Mul (Ir.eval_binop Ir.Div a b) b)
        (Ir.eval_binop Ir.Rem a b)
      = a)

let qcheck_comparison_coherence =
  QCheck.Test.make ~name:"comparisons are coherent" ~count:300
    QCheck.(pair arb_extreme arb_extreme)
    (fun (a, b) ->
      let v op = Ir.eval_binop op a b = 1 in
      v Ir.Cle = (v Ir.Clt || v Ir.Ceq)
      && v Ir.Cge = (v Ir.Cgt || v Ir.Ceq)
      && v Ir.Cne = not (v Ir.Ceq)
      && not (v Ir.Clt && v Ir.Cgt))

(* ------------------------------------------------------------------ *)
(* Debug-info shape invariants on emitted binaries                     *)

let qcheck_line_table_shape =
  QCheck.Test.make
    ~name:"steppable lines sorted/unique; breakpoints at lowest address"
    ~count:20
    QCheck.(int_range 1 50_000)
    (fun seed ->
      let src = Synth.generate ~seed in
      let ast = Minic.Typecheck.parse_and_check src in
      let bin = T.compile ast ~config:(C.make C.Clang C.O2) ~roots:[ "main" ] in
      let lines = Dwarfish.steppable_lines bin.Emit.debug in
      let rec sorted_unique = function
        | a :: (b :: _ as rest) -> a < b && sorted_unique rest
        | _ -> true
      in
      sorted_unique lines
      && List.for_all
           (fun (line, addr) ->
             List.for_all
               (fun (e : Dwarfish.line_entry) ->
                 e.Dwarfish.line <> line || e.Dwarfish.addr >= addr)
               bin.Emit.debug.Dwarfish.line_table)
           (Dwarfish.breakpoint_addrs bin.Emit.debug))

(* ------------------------------------------------------------------ *)
(* Frontend: the pretty-printer emits valid MiniC with the same meaning *)

let qcheck_pretty_roundtrip =
  QCheck.Test.make
    ~name:"pretty-print/parse roundtrip is a semantic identity" ~count:30
    QCheck.(int_range 1 50_000)
    (fun seed ->
      let src = Synth.generate ~seed in
      let ast = Minic.Typecheck.parse_and_check src in
      let printed = Minic.Pretty.program_to_string ast in
      let ast2 = Minic.Typecheck.parse_and_check printed in
      Minic.Pretty.program_to_string ast2 = printed
      && Minic.Interp.run ast ~entry:"main" ~input:[]
         = Minic.Interp.run ast2 ~entry:"main" ~input:[])

let tests =
  List.map QCheck_alcotest.to_alcotest
    [
      qcheck_pretty_roundtrip;
      qcheck_dominators_vs_naive;
      qcheck_idom_is_strict_dominator;
      qcheck_dominance_frontier;
      qcheck_liveness_entry;
      qcheck_liveness_upward_closure;
      qcheck_loops_well_formed;
      qcheck_loop_depth_nesting;
      qcheck_ssa_after_pipeline;
      qcheck_binop_total;
      qcheck_div_rem_algebra;
      qcheck_comparison_coherence;
      qcheck_line_table_shape;
    ]
