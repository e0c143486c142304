(** Precise unit tests of the VM's cost model, on hand-assembled machine
    functions — every pass's performance rationale rests on these
    numbers, so they are pinned exactly. *)

let mk_block label mins mterm =
  {
    Mach.mb_label = label;
    mins = List.map (fun mk -> { Mach.mk; mline = None }) mins;
    mterm;
    mterm_line = None;
    mb_prob = 0.5;
    mb_freq = 1.0;
  }

let mk_fn ?(frame = []) ?(spill = 0) ?(params = []) name blocks layout =
  let tbl = Ir.Label_store.create 8 in
  List.iter
    (fun (b : Mach.mblock) -> Ir.Label_store.replace tbl b.Mach.mb_label b)
    blocks;
  {
    Mach.mf_name = name;
    mf_line = 1;
    mf_blocks = tbl;
    mf_entry = (List.hd layout : int);
    mf_layout = layout;
    mf_param_locs = params;
    mf_frame = frame;
    mf_spill_words = spill;
    mf_shrink_wrapped = false;
  }

let run_cost fns ~entry =
  let bin = Emit.emit { Mach.mfuncs = fns; mglobals = [] } in
  (Vm.run bin ~entry ~input:[] Vm.default_opts).Vm.cost

let r k = Mach.Preg k
let rv k = Mach.Loc (Mach.Preg k)
let c n = Mach.Cst n

(* Entry cost of a frameless zero-arg function: call 9 + ret 2 + ret
   transfer 3... the top-level entry has no return transfer (halts). *)
let base_entry_cost = 9 + 2

let test_alu_costs () =
  let fn ops = mk_fn "f" [ mk_block 0 ops (Mach.Mret None) ] [ 0 ] in
  let cost ops = run_cost [ fn ops ] ~entry:"f" in
  let empty = cost [] in
  Alcotest.(check int) "empty fn = entry cost" base_entry_cost empty;
  (* Independent adds cost 1 each. *)
  Alcotest.(check int) "add costs 1" (empty + 1)
    (cost [ Mach.Mbin (Ir.Add, r 0, c 1, c 2) ]);
  Alcotest.(check int) "mul costs 3" (empty + 3)
    (cost [ Mach.Mbin (Ir.Mul, r 0, c 3, c 4) ]);
  Alcotest.(check int) "div costs 10" (empty + 10)
    (cost [ Mach.Mbin (Ir.Div, r 0, c 8, c 2) ])

let test_hazard_costs () =
  let fn ops = mk_fn "f" [ mk_block 0 ops (Mach.Mret None) ] [ 0 ] in
  let cost ops = run_cost [ fn ops ] ~entry:"f" in
  let independent =
    cost
      [
        Mach.Mbin (Ir.Add, r 0, c 1, c 2);
        Mach.Mbin (Ir.Add, r 1, c 3, c 4);
      ]
  in
  let dependent =
    cost
      [
        Mach.Mbin (Ir.Add, r 0, c 1, c 2);
        Mach.Mbin (Ir.Add, r 1, rv 0, c 4);
      ]
  in
  Alcotest.(check int) "read-after-write hazard +2" (independent + 2) dependent

let test_vector_cheaper_than_scalars () =
  let fn ops = mk_fn "f" [ mk_block 0 ops (Mach.Mret None) ] [ 0 ] in
  let cost ops = run_cost [ fn ops ] ~entry:"f" in
  let scalars =
    cost
      (List.init 4 (fun i -> Mach.Mbin (Ir.Add, r i, c i, c 1)))
  in
  let vec =
    cost [ Mach.Mvec (Ir.Add, Array.init 4 (fun i -> (r i, c i, c 1))) ]
  in
  Alcotest.(check bool) "4-lane vec cheaper than 4 adds" true (vec < scalars)

let test_taken_branch_cost () =
  (* Two layouts of the same if: fallthrough vs taken path. *)
  let blocks target =
    [
      mk_block 0 [] (Mach.Mcbr (c 1, target, 9));
      mk_block 1 [] (Mach.Mret None);
      mk_block 9 [] (Mach.Mret None);
    ]
  in
  let fall = mk_fn "f" (blocks 1) [ 0; 1; 9 ] in
  let taken = mk_fn "f" (blocks 9) [ 0; 1; 9 ] in
  let cf = run_cost [ fall ] ~entry:"f" in
  let ct = run_cost [ taken ] ~entry:"f" in
  Alcotest.(check int) "taken branch +3" (cf + 3) ct

let test_frame_and_slot_costs () =
  (* A function with a 5-word frame costs 5 extra on call; each Pslot
     access adds 1. *)
  let plain = mk_fn "g" [ mk_block 0 [] (Mach.Mret None) ] [ 0 ] in
  let framed =
    mk_fn "g" ~spill:5 [ mk_block 0 [] (Mach.Mret None) ] [ 0 ]
  in
  let caller callee_cost_probe =
    ignore callee_cost_probe;
    mk_fn "f"
      [ mk_block 0 [ Mach.Mcall (None, "g", []) ] (Mach.Mret None) ]
      [ 0 ]
  in
  let c1 = run_cost [ caller (); plain ] ~entry:"f" in
  let c2 = run_cost [ caller (); framed ] ~entry:"f" in
  Alcotest.(check int) "frame words cost 1 each on entry" (c1 + 5) c2;
  let slot_op =
    mk_fn "f" ~spill:1
      [ mk_block 0 [ Mach.Mbin (Ir.Add, Mach.Pslot 0, c 1, c 2) ] (Mach.Mret None) ]
      [ 0 ]
  in
  let reg_op =
    mk_fn "f" ~spill:1
      [ mk_block 0 [ Mach.Mbin (Ir.Add, r 0, c 1, c 2) ] (Mach.Mret None) ]
      [ 0 ]
  in
  Alcotest.(check int) "slot write +1"
    (run_cost [ reg_op ] ~entry:"f" + 1)
    (run_cost [ slot_op ] ~entry:"f")

let test_load_use_penalty () =
  let frame = [ { Mach.fs_id = 0; fs_size = 1; fs_var = None; fs_array = false } ] in
  let with_gap =
    mk_fn "f" ~frame
      [
        mk_block 0
          [
            Mach.Mload (r 0, { Mach.mbase = Mach.Mframe 0; mindex = c 0 });
            Mach.Mbin (Ir.Add, r 1, c 1, c 2);
            Mach.Mbin (Ir.Add, r 2, rv 0, c 1);
          ]
          (Mach.Mret None);
      ]
      [ 0 ]
  in
  let without_gap =
    mk_fn "f" ~frame
      [
        mk_block 0
          [
            Mach.Mload (r 0, { Mach.mbase = Mach.Mframe 0; mindex = c 0 });
            Mach.Mbin (Ir.Add, r 2, rv 0, c 1);
            Mach.Mbin (Ir.Add, r 1, c 1, c 2);
          ]
          (Mach.Mret None);
      ]
      [ 0 ]
  in
  Alcotest.(check int) "load-use penalty is 4"
    (run_cost [ with_gap ] ~entry:"f" + 4)
    (run_cost [ without_gap ] ~entry:"f")

let test_shrink_wrap_defers_frame_cost () =
  (* Shrink-wrapped: frame charged only when the frame is touched. *)
  let framed activation =
    let fi_block =
      mk_block 0 [] (Mach.Mcbr (c 0 (* always false -> early exit *), 1, 9))
    in
    let touch =
      mk_block 1
        [ Mach.Mbin (Ir.Add, Mach.Pslot 0, c 1, c 1) ]
        (Mach.Mret None)
    in
    let early = mk_block 9 [] (Mach.Mret None) in
    let m = mk_fn "f" ~spill:8 [ fi_block; touch; early ] [ 0; 1; 9 ] in
    m.Mach.mf_shrink_wrapped <- activation;
    m
  in
  let eager = run_cost [ framed false ] ~entry:"f" in
  let wrapped = run_cost [ framed true ] ~entry:"f" in
  (* The early-exit path never touches the frame: all 8 words saved. *)
  Alcotest.(check int) "shrink wrap saves the frame cost" (eager - 8) wrapped

(* Regression fixtures for the decode-time lookup tables: frame-slot
   offsets (replacing the per-access [List.find_opt] over
   [fi_slot_offset]) and the hazard bitsets (replacing the
   O(writes×reads) list scan). Both cores must agree to the cycle on
   fixtures built to exercise exactly those paths, and the absolute
   numbers are pinned so a cost-model change cannot hide behind
   core agreement. *)
let both_cores fns ~entry =
  let bin = Emit.emit { Mach.mfuncs = fns; mglobals = [] } in
  let fast = Vm.run bin ~entry ~input:[] Vm.default_opts in
  let slow = Vm.Reference.run bin ~entry ~input:[] Vm.default_opts in
  Alcotest.(check int) "cores agree on cost" slow.Vm.cost fast.Vm.cost;
  Alcotest.(check int) "cores agree on instrs" slow.Vm.instrs fast.Vm.instrs;
  fast.Vm.cost

let test_frame_slot_lookup_regression () =
  (* Two data slots: a scalar at offset 0 and a 4-word array at offset
     1. Loads/stores through both slots, with a register index into the
     array, plus a spill-slot operand — every address kind the slot
     table resolves. *)
  let frame =
    [
      { Mach.fs_id = 0; fs_size = 1; fs_var = None; fs_array = false };
      { Mach.fs_id = 1; fs_size = 4; fs_var = None; fs_array = true };
    ]
  in
  let addr0 = { Mach.mbase = Mach.Mframe 0; mindex = c 0 } in
  let addr1 i = { Mach.mbase = Mach.Mframe 1; mindex = i } in
  let fn =
    mk_fn "f" ~frame ~spill:1
      [
        mk_block 0
          [
            Mach.Mstore (addr0, c 7);
            (* wrap: index 6 into a 4-word slot lands on word 2 *)
            Mach.Mstore (addr1 (c 6), c 9);
            Mach.Mbin (Ir.Add, r 1, c 2, c 0);
            Mach.Mload (r 0, addr1 (rv 1));
            Mach.Mload (r 2, addr0);
            Mach.Mbin (Ir.Add, Mach.Pslot 0, rv 0, rv 2);
          ]
          (Mach.Mret (Some (Mach.Loc (Mach.Pslot 0))));
      ]
      [ 0 ]
  in
  (* entry 9 + frame 6 + store 4 + store 4 + add 1 + load 4 (+2 hazard:
     index r1 written by the add) + load 4 + add 1 (+4 load-use on r2,
     +1 slot write) + ret 2 (+1 slot read) = 43. *)
  Alcotest.(check int) "frame-slot fixture cost pinned" 43
    (both_cores [ fn ] ~entry:"f")

let test_hazard_bitset_regression () =
  (* Register->register, slot->slot and cross-kind adjacencies: the
     bitset encoding must reproduce the list scan on all of them. *)
  let fn =
    mk_fn "f" ~spill:2
      [
        mk_block 0
          [
            Mach.Mbin (Ir.Add, r 0, c 1, c 2);
            Mach.Mbin (Ir.Add, r 1, rv 0, c 1);
            (* r0 read: +2 *)
            Mach.Mbin (Ir.Add, Mach.Pslot 0, rv 1, c 1);
            (* r1 read: +2, slot write +1 *)
            Mach.Mbin (Ir.Add, r 2, Mach.Loc (Mach.Pslot 0), c 1);
            (* Pslot 0 read: +2 (+1 slot read) *)
            Mach.Mbin (Ir.Add, r 3, Mach.Loc (Mach.Pslot 1), c 1);
            (* Pslot 1 was NOT the last write: no hazard (+1 slot read) *)
            Mach.Mbin (Ir.Add, r 4, c 1, c 1);
            Mach.Mbin (Ir.Add, r 5, rv 3, rv 4);
            (* r4 read: +2 *)
          ]
          (Mach.Mret None);
      ]
      [ 0 ]
  in
  (* entry 9 + frame 2 + 7 adds + hazards 2+2+2+2 + slot charges 1+1+1
     + ret 2 = 31. *)
  Alcotest.(check int) "hazard fixture cost pinned" 31
    (both_cores [ fn ] ~entry:"f")

let tests =
  [
    Alcotest.test_case "alu costs" `Quick test_alu_costs;
    Alcotest.test_case "hazard costs" `Quick test_hazard_costs;
    Alcotest.test_case "vector cheaper" `Quick test_vector_cheaper_than_scalars;
    Alcotest.test_case "taken branch" `Quick test_taken_branch_cost;
    Alcotest.test_case "frame and slot costs" `Quick test_frame_and_slot_costs;
    Alcotest.test_case "load-use penalty" `Quick test_load_use_penalty;
    Alcotest.test_case "shrink wrap defers frame" `Quick
      test_shrink_wrap_defers_frame_cost;
    Alcotest.test_case "frame-slot lookup regression" `Quick
      test_frame_slot_lookup_regression;
    Alcotest.test_case "hazard bitset regression" `Quick
      test_hazard_bitset_regression;
  ]
