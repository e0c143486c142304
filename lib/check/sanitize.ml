(** The pipeline sanitizer: self-checking at every pass boundary.

    When enabled (the [~sanitize] flag of [Toolchain.compile], or the
    global {!enabled} gate), the toolchain revalidates the program after
    *every* IR pass, every machine pass and final emission, so a
    miscompiling or debug-info-corrupting pass is caught at the exact
    boundary where it fired — the in-process analog of
    [-fchecking] / LLVM's [-verify-each], extended with the debug-info
    invariants this repository's measurements rest on.

    Checked at each IR boundary:
    - the structural SSA/CFG invariants of {!Verify} (layout/table
      agreement, phi-per-predecessor, single assignment, no undefined
      uses);
    - {b dominance consistency}: every (non-debug) register use is
      dominated by its definition — phis read on the incoming edge,
      terminators at block exit;
    - {b liveness consistency}: nothing but parameters is live into the
      entry block (no path can read an undefined register);
    - {b line validity}: every retained line attribution is a positive
      source line;
    - {b debug-info monotonicity}: the set of source lines attributed to
      instructions and the set of tracked variables (parameters, slot
      homes, [Dbg] bindings) never *grow* across a pass — optimizers may
      lose debug information (that loss is what the experiments
      measure), but a pass inventing a line or a variable is corrupting
      the records the metrics trust.

    Machine boundaries check the same monotonicity plus machine
    structure (terminator targets, layout/entry agreement, register and
    spill-slot bounds, frame-slot references). The final binary is
    checked with {!Debug_verify} ("every line-table entry references a
    live instruction" and friends) plus a range-nesting invariant:
    location ranges of one variable must be disjoint or properly
    nested — a partially-overlapping pair means the location list was
    corrupted rather than merely narrowed.

    Every boundary validated and every failure is counted per pass name
    in the process counter table ([sanitize/<pass>/checked|failures],
    see {!Util.Counters}), which feeds [bench --stats] and each
    request's own counter rows. *)

type invariant =
  | Structural  (** {!Verify} (IR) or machine CFG/layout breakage *)
  | Dominance  (** a use not dominated by its definition *)
  | Liveness_entry  (** a non-parameter register live into entry *)
  | Line_invalid  (** a non-positive source line attribution *)
  | Line_grow  (** a pass invented a source line *)
  | Var_grow  (** a pass invented a tracked variable *)
  | Loc_bounds  (** machine location outside registers/frame/spill area *)
  | Binary_debug  (** {!Debug_verify} diagnostics on the emitted binary *)
  | Range_nesting  (** partially-overlapping location ranges of one var *)

let invariant_name = function
  | Structural -> "structural"
  | Dominance -> "dominance"
  | Liveness_entry -> "liveness-entry"
  | Line_invalid -> "line-invalid"
  | Line_grow -> "line-grow"
  | Var_grow -> "var-grow"
  | Loc_bounds -> "loc-bounds"
  | Binary_debug -> "binary-debug"
  | Range_nesting -> "range-nesting"

exception
  Check_failed of { pass : string; invariant : invariant; detail : string }

let failure_message ~pass invariant detail =
  Printf.sprintf "sanitizer: pass '%s' violated %s: %s" pass
    (invariant_name invariant) detail

let () =
  Printexc.register_printer (function
    | Check_failed { pass; invariant; detail } ->
        Some (failure_message ~pass invariant detail)
    | _ -> None)

let fail ~pass invariant fmt =
  Printf.ksprintf
    (fun detail -> raise (Check_failed { pass; invariant; detail }))
    fmt

(** Global gate read by [Toolchain.compile] when no explicit [~sanitize]
    is passed — lets the CLI and the bench harness turn checking on for
    every engine-driven compile without threading a flag everywhere. *)
let enabled = ref false

let bump_checks pass = Util.Counters.bump ("sanitize/" ^ pass ^ "/checked")
let bump_failures pass = Util.Counters.bump ("sanitize/" ^ pass ^ "/failures")

(* ------------------------------------------------------------------ *)
(* Debug-info snapshots: what a pass may shrink but never grow          *)

module Int_set = Set.Make (Int)
module Str_set = Set.Make (String)

type snapshot = { sn_lines : Int_set.t; sn_vars : Str_set.t }

let snapshot_ir (prog : Ir.program) =
  let lines = ref Int_set.empty and vars = ref Str_set.empty in
  let add_line = function
    | Some l -> lines := Int_set.add l !lines
    | None -> ()
  in
  let add_var v = vars := Str_set.add (Ir.var_to_string v) !vars in
  Hashtbl.iter
    (fun _ (fn : Ir.fn) ->
      List.iter (fun (_, v) -> add_var v) fn.Ir.f_params;
      List.iter
        (fun (s : Ir.slot) -> Option.iter add_var s.Ir.s_var)
        fn.Ir.f_slots;
      Ir.iter_blocks fn (fun b ->
          add_line b.Ir.term_line;
          List.iter
            (fun (i : Ir.instr) ->
              add_line i.Ir.line;
              match i.Ir.ik with Ir.Dbg (v, _) -> add_var v | _ -> ())
            b.Ir.instrs))
    prog.Ir.funcs;
  { sn_lines = !lines; sn_vars = !vars }

let snapshot_mach (m : Mach.mfn) =
  let lines = ref Int_set.empty and vars = ref Str_set.empty in
  let add_line = function
    | Some l -> lines := Int_set.add l !lines
    | None -> ()
  in
  let add_var v = vars := Str_set.add (Ir.var_to_string v) !vars in
  List.iter
    (fun (s : Mach.frame_slot) -> Option.iter add_var s.Mach.fs_var)
    m.Mach.mf_frame;
  Ir.Label_store.iter
    (fun _ (b : Mach.mblock) ->
      add_line b.Mach.mterm_line;
      List.iter
        (fun (i : Mach.minstr) ->
          add_line i.Mach.mline;
          match i.Mach.mk with Mach.Mdbg (v, _) -> add_var v | _ -> ())
        b.Mach.mins)
    m.Mach.mf_blocks;
  { sn_lines = !lines; sn_vars = !vars }

let check_monotone ~pass ~what (prev : snapshot) (cur : snapshot) =
  let new_lines = Int_set.diff cur.sn_lines prev.sn_lines in
  (match Int_set.choose_opt new_lines with
  | Some l ->
      fail ~pass Line_grow "%s: line %d appeared out of nowhere (%d new)"
        what l (Int_set.cardinal new_lines)
  | None -> ());
  match Str_set.choose_opt (Str_set.diff cur.sn_vars prev.sn_vars) with
  | Some v -> fail ~pass Var_grow "%s: variable %s appeared out of nowhere" what v
  | None -> ()

(* ------------------------------------------------------------------ *)
(* IR invariants                                                       *)

let check_lines_valid ~pass (fn : Ir.fn) =
  let bad where = function
    | Some l when l < 1 ->
        fail ~pass Line_invalid "%s: %s carries line %d" fn.Ir.f_name where l
    | _ -> ()
  in
  Ir.iter_blocks fn (fun b ->
      bad (Printf.sprintf "terminator of L%d" b.Ir.b_label) b.Ir.term_line;
      List.iter
        (fun (i : Ir.instr) ->
          bad (Ir.ikind_to_string i.Ir.ik) i.Ir.line)
        b.Ir.instrs)

(* Every non-debug register use is dominated by its definition. Debug
   bindings are exempt: a [Dbg] operand's soundness is what the
   experiments *measure*, not an invariant the pipeline guarantees. *)
let check_dominance ~pass (fn : Ir.fn) =
  let t = Dom.compute fn in
  let reached = Ir.Dense_set.mem (Ir.reachable fn) in
  (* Definition sites: params before phis before instructions. *)
  let site = Hashtbl.create 64 in
  List.iter
    (fun (r, _) -> Hashtbl.replace site r (fn.Ir.entry, -2))
    fn.Ir.f_params;
  Ir.Label_store.iter
    (fun l (b : Ir.block) ->
      List.iter
        (fun (p : Ir.phi) -> Hashtbl.replace site p.Ir.p_dst (l, -1))
        b.Ir.phis;
      List.iteri
        (fun i (ins : Ir.instr) ->
          List.iter
            (fun d -> Hashtbl.replace site d (l, i))
            (Ir.def_of_ikind ins.Ir.ik))
        b.Ir.instrs)
    fn.Ir.blocks;
  let dominated ~use_label ~use_index ~ctx r =
    match Hashtbl.find_opt site r with
    | None -> () (* an undefined use; Verify reports it as Structural *)
    | Some (dl, di) ->
        if dl = use_label then begin
          if di >= use_index then
            fail ~pass Dominance
              "%s: r%d used at %s before its definition in the same block L%d"
              fn.Ir.f_name r ctx use_label
        end
        else if reached dl && not (Dom.dominates t dl use_label) then
          fail ~pass Dominance
            "%s: use of r%d at %s (L%d) not dominated by its definition (L%d)"
            fn.Ir.f_name r ctx use_label dl
  in
  Ir.Label_store.iter
    (fun l (b : Ir.block) ->
      if reached l then begin
        List.iter
          (fun (p : Ir.phi) ->
            List.iter
              (fun (pl, o) ->
                List.iter
                  (fun r ->
                    match Hashtbl.find_opt site r with
                    | Some (dl, _)
                      when dl <> pl && reached pl && reached dl
                           && not (Dom.dominates t dl pl) ->
                        fail ~pass Dominance
                          "%s: phi r%d arg r%d (edge L%d->L%d) not dominated \
                           by its definition (L%d)"
                          fn.Ir.f_name p.Ir.p_dst r pl l dl
                    | _ -> ())
                  (Ir.operand_uses o))
              p.Ir.p_args)
          b.Ir.phis;
        List.iteri
          (fun i (ins : Ir.instr) ->
            List.iter
              (dominated ~use_label:l ~use_index:i
                 ~ctx:(Ir.ikind_to_string ins.Ir.ik))
              (Ir.real_uses_of_ikind ins.Ir.ik))
          b.Ir.instrs;
        List.iter
          (dominated ~use_label:l ~use_index:max_int ~ctx:"terminator")
          (Ir.term_uses b.Ir.term)
      end)
    fn.Ir.blocks

let check_liveness_entry ~pass (fn : Ir.fn) =
  let lv = Liveness.compute fn in
  let params = Liveness.Reg_set.of_list (List.map fst fn.Ir.f_params) in
  let extra =
    Liveness.Reg_set.diff (Liveness.live_in lv fn.Ir.entry) params
  in
  match Liveness.Reg_set.choose_opt extra with
  | Some r ->
      fail ~pass Liveness_entry
        "%s: r%d is live into the entry block but is not a parameter"
        fn.Ir.f_name r
  | None -> ()

(** [check_ir ~pass ?prev ?ssa prog] validates the whole program at a
    pass boundary and returns the fresh debug-info snapshot to thread to
    the next boundary. [ssa] (default true) gates the dominance check —
    the freshly lowered pre-SSA form routes merges through slots and is
    checked without it. *)
let check_ir ?prev ?(ssa = true) ~pass (prog : Ir.program) =
  bump_checks pass;
  try
    Hashtbl.iter
      (fun _ (fn : Ir.fn) ->
        (try Verify.check_fn fn
         with Verify.Invalid msg -> fail ~pass Structural "%s" msg);
        check_lines_valid ~pass fn;
        if ssa then check_dominance ~pass fn;
        check_liveness_entry ~pass fn)
      prog.Ir.funcs;
    let sn = snapshot_ir prog in
    Option.iter (fun p -> check_monotone ~pass ~what:"ir" p sn) prev;
    sn
  with Check_failed _ as e ->
    bump_failures pass;
    raise e

(* ------------------------------------------------------------------ *)
(* Machine invariants                                                  *)

let check_mach_structure ~pass (m : Mach.mfn) =
  (match m.Mach.mf_layout with
  | e :: _ when e = m.Mach.mf_entry -> ()
  | _ ->
      fail ~pass Structural "%s: machine entry is not first in layout"
        m.Mach.mf_name);
  let seen = Hashtbl.create 16 in
  List.iter
    (fun l ->
      if Hashtbl.mem seen l then
        fail ~pass Structural "%s: label %d appears twice in machine layout"
          m.Mach.mf_name l;
      Hashtbl.replace seen l ();
      if not (Ir.Label_store.mem m.Mach.mf_blocks l) then
        fail ~pass Structural "%s: machine layout mentions missing block %d"
          m.Mach.mf_name l)
    m.Mach.mf_layout;
  Ir.Label_store.iter
    (fun l (b : Mach.mblock) ->
      List.iter
        (fun s ->
          if not (Ir.Label_store.mem m.Mach.mf_blocks s) then
            fail ~pass Structural
              "%s: machine block %d branches to missing block %d"
              m.Mach.mf_name l s)
        (Mach.msuccs b.Mach.mterm))
    m.Mach.mf_blocks

let check_mach_locs ~pass (m : Mach.mfn) =
  let frame_ids =
    List.map (fun (s : Mach.frame_slot) -> s.Mach.fs_id) m.Mach.mf_frame
  in
  let check_loc ctx = function
    | Mach.Preg k ->
        if k < 0 || k > Mach.num_regs then
          (* [num_regs] itself is the reserved scratch register the
             emitter may use; anything beyond is garbage. *)
          fail ~pass Loc_bounds "%s: %s names register R%d (of %d)"
            m.Mach.mf_name ctx k Mach.num_regs
    | Mach.Pslot i ->
        if i < 0 || i >= m.Mach.mf_spill_words then
          fail ~pass Loc_bounds
            "%s: %s names spill slot %d, spill area has %d words"
            m.Mach.mf_name ctx i m.Mach.mf_spill_words
  in
  let check_addr ctx (a : Mach.maddr) =
    match a.Mach.mbase with
    | Mach.Mframe s ->
        if not (List.mem s frame_ids) then
          fail ~pass Loc_bounds "%s: %s references missing frame slot %d"
            m.Mach.mf_name ctx s
    | Mach.Mglobal _ -> ()
  in
  let check_instr (i : Mach.minstr) =
    let ctx = Mach.mkind_to_string i.Mach.mk in
    List.iter (check_loc ctx) (Mach.writes i.Mach.mk);
    List.iter (check_loc ctx) (Mach.reads i.Mach.mk);
    (match i.Mach.mk with
    | Mach.Mload (_, a) | Mach.Mstore (a, _) -> check_addr ctx a
    | Mach.Mdbg (_, Some (Mach.Dloc l)) -> check_loc ctx l
    | _ -> ());
    match i.Mach.mline with
    | Some l when l < 1 ->
        fail ~pass Line_invalid "%s: %s carries line %d" m.Mach.mf_name ctx l
    | _ -> ()
  in
  List.iter (check_loc "parameter") m.Mach.mf_param_locs;
  Ir.Label_store.iter
    (fun _ (b : Mach.mblock) -> List.iter check_instr b.Mach.mins)
    m.Mach.mf_blocks

(** [check_mach ~pass ?prev m] validates one machine function at a
    machine-pass boundary. *)
let check_mach ?prev ~pass (m : Mach.mfn) =
  bump_checks pass;
  try
    check_mach_structure ~pass m;
    check_mach_locs ~pass m;
    let sn = snapshot_mach m in
    Option.iter
      (fun p -> check_monotone ~pass ~what:m.Mach.mf_name p sn)
      prev;
    sn
  with Check_failed _ as e ->
    bump_failures pass;
    raise e

(* ------------------------------------------------------------------ *)
(* Binary invariants                                                   *)

(* Location ranges of one variable must be disjoint or properly nested:
   a partial overlap means two inconsistent location records claim the
   same addresses — narrowing loses coverage (measured, fine),
   partial overlap is corruption. *)
let check_range_nesting ~pass (bin : Emit.binary) =
  List.iter
    (fun (vi : Dwarfish.var_info) ->
      let rs =
        List.filter
          (fun (r : Dwarfish.range) -> r.Dwarfish.lo < r.Dwarfish.hi)
          vi.Dwarfish.vi_ranges
      in
      let rec pairs = function
        | [] -> ()
        | (a : Dwarfish.range) :: rest ->
            List.iter
              (fun (b : Dwarfish.range) ->
                let a, b =
                  if
                    (a.Dwarfish.lo, a.Dwarfish.hi)
                    <= (b.Dwarfish.lo, b.Dwarfish.hi)
                  then (a, b)
                  else (b, a)
                in
                (* sorted: a.lo <= b.lo; partial overlap = b starts
                   inside a but ends beyond it *)
                if
                  b.Dwarfish.lo > a.Dwarfish.lo
                  && b.Dwarfish.lo < a.Dwarfish.hi
                  && b.Dwarfish.hi > a.Dwarfish.hi
                then
                  fail ~pass Range_nesting
                    "%s has partially-overlapping ranges [%d, %d) and [%d, %d)"
                    (Ir.var_to_string vi.Dwarfish.vi_var)
                    a.Dwarfish.lo a.Dwarfish.hi b.Dwarfish.lo b.Dwarfish.hi)
              rest;
            pairs rest
      in
      pairs rs)
    bin.Emit.debug.Dwarfish.vars

(** [check_binary ~pass bin] validates the emitted binary: the
    structural {!Debug_verify} diagnostics (line-table entries reference
    live instructions, ranges in bounds, locations materializable) plus
    the range-nesting invariant. *)
let check_binary ~pass (bin : Emit.binary) =
  bump_checks pass;
  try
    (match Debug_verify.verify bin with
    | [] -> ()
    | d :: _ as ds ->
        fail ~pass Binary_debug "%d diagnostic(s); first: %s" (List.length ds)
          (Debug_verify.diag_to_string d));
    check_range_nesting ~pass bin
  with Check_failed _ as e ->
    bump_failures pass;
    raise e

(* ------------------------------------------------------------------ *)
(* The sanitizer as a pipeline instrument                              *)

(** [instrument ()] is the sanitizer's view of one compilation, in the
    toolchain's {!Instrument.t} shape. The closure threads the
    debug-info snapshots from boundary to boundary: IR boundaries chain
    through {!check_ir} (the pre-SSA ["lower"] boundary skips the
    dominance check), machine boundaries chain through {!check_mach}
    with the baseline reset at each function's ["isel"], and the
    ["emit"] boundary runs {!check_binary}. Create one per compile. *)
let instrument () =
  let ir_snap = ref None in
  let mach_snap = ref None in
  {
    Instrument.on_phase_start = (fun _ -> ());
    on_phase_end = (fun _ -> ());
    on_pass =
      (fun pass scope ->
        match scope with
        | Instrument.Ir_program prog ->
            let ssa = pass <> "lower" in
            ir_snap := Some (check_ir ?prev:!ir_snap ~ssa ~pass prog)
        | Instrument.Mach_fn m ->
            let prev = if pass = "isel" then None else !mach_snap in
            mach_snap := Some (check_mach ?prev ~pass m)
        | Instrument.Binary bin -> check_binary ~pass bin);
  }
