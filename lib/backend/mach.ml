(** Machine-level representation: the target of instruction selection and
    the input of the machine passes and the emitter.

    The machine has 14 physical registers (x86-64 minus stack and frame pointers) and a per-call frame of
    words holding (a) the data slots that were not promoted to registers
    (arrays, address-taken scalars) and (b) the spill area. Instructions
    may read and write frame words directly (x86-style memory operands) at
    extra cost, which is how spilling manifests in the cost model. *)

let num_regs = 14

type mloc = Preg of int | Pslot of int
(** [Pslot] indexes the spill area; data slots are addressed via
    {!maddr}. *)

type mval = Loc of mloc | Cst of int

type mbase = Mframe of int  (** data slot id *) | Mglobal of string

type maddr = { mbase : mbase; mindex : mval }

(** Debug-binding payload carried by [Mdbg]. *)
type dloc = Dloc of mloc | Dconst of int

type mkind =
  | Mbin of Ir.binop * mloc * mval * mval
  | Mun of Ir.unop * mloc * mval
  | Mmov of mloc * mval
  | Mload of mloc * maddr
  | Mstore of maddr * mval
  | Mcall of mloc option * string * mval list
  | Minput of mloc
  | Meof of mloc
  | Moutput of mval
  | Mselect of mloc * mval * mval * mval
  | Mvec of Ir.binop * (mloc * mval * mval) array
  | Mdbg of Ir.var_id * dloc option
      (** pseudo-instruction: stripped at emission into the location
          lists; has no runtime cost and no address *)

type minstr = { mutable mk : mkind; mutable mline : int option }

type mterm = Mret of mval option | Mjmp of int | Mcbr of mval * int * int

type mblock = {
  mb_label : int;
  mutable mins : minstr list;
  mutable mterm : mterm;
  mutable mterm_line : int option;
  mutable mb_prob : float;  (** probability of the first [Mcbr] target *)
  mutable mb_freq : float;
}

type frame_slot = {
  fs_id : int;
  fs_size : int;
  fs_var : Ir.var_id option;
  fs_array : bool;
}

type mfn = {
  mf_name : string;
  mf_line : int;
  mf_blocks : mblock Ir.Label_store.t;
  mf_entry : int;
  mutable mf_layout : int list;
  mf_param_locs : mloc list;
  mutable mf_frame : frame_slot list;  (** data slots *)
  mutable mf_spill_words : int;
  mutable mf_shrink_wrapped : bool;
}

type mprogram = { mfuncs : mfn list; mglobals : Ir.global_def list }

(** Backend configuration derived from the pipeline's pass toggles. All
    off reproduces the O0 backend. *)
type opts = {
  coalesce : bool;  (** gcc [tree-coalesce-vars] *)
  share_spill_slots : bool;  (** gcc [ira-share-spill-slots] *)
  shrink_wrap : bool;  (** gcc [shrink-wrap] *)
  schedule : bool;  (** gcc [schedule-insns2] (post-RA list scheduling) *)
  sched_keep_lines : bool;
      (** LLVM's machine scheduler moves debug locations with the
          instructions; gcc's RTL scheduler historically drops them —
          the single biggest reason schedule-insns2 tops the paper's
          gcc rankings while no scheduler appears in clang's *)
  sink : bool;  (** clang [Machine code sinking] *)
  tail_merge : bool;  (** gcc [crossjumping] / clang [Control Flow Optimizer] *)
  place_blocks : bool;
      (** gcc [reorder-blocks] / clang [Branch Prob BB Placement] *)
  icf : bool;  (** identical-code folding under gcc [toplevel-reorder] *)
}

let opts_o0 =
  {
    coalesce = false;
    share_spill_slots = false;
    shrink_wrap = false;
    schedule = false;
    sched_keep_lines = false;
    sink = false;
    tail_merge = false;
    place_blocks = false;
    icf = false;
  }

let mblock mfn l =
  match Ir.Label_store.find_opt mfn.mf_blocks l with
  | Some b -> b
  | None ->
      invalid_arg (Printf.sprintf "Mach.mblock: no block %d in %s" l mfn.mf_name)

let msuccs = function
  | Mret _ -> []
  | Mjmp l -> [ l ]
  | Mcbr (_, l1, l2) -> if l1 = l2 then [ l1 ] else [ l1; l2 ]

(* Locations written / read, for the machine passes and the location-list
   builder. [Mdbg] neither reads nor writes. *)

let writes = function
  | Mbin (_, d, _, _) | Mun (_, d, _) | Mmov (d, _) | Mload (d, _)
  | Minput d | Meof d
  | Mselect (d, _, _, _) ->
      [ d ]
  | Mcall (Some d, _, _) -> [ d ]
  | Mcall (None, _, _) | Mstore _ | Moutput _ | Mdbg _ -> []
  | Mvec (_, lanes) -> Array.to_list (Array.map (fun (d, _, _) -> d) lanes)

let mval_reads = function Loc l -> [ l ] | Cst _ -> []

let maddr_reads a = mval_reads a.mindex

let reads = function
  | Mbin (_, _, a, b) -> mval_reads a @ mval_reads b
  | Mun (_, _, a) | Mmov (_, a) | Moutput a -> mval_reads a
  | Mload (_, a) -> maddr_reads a
  | Mstore (a, v) -> maddr_reads a @ mval_reads v
  | Mcall (_, _, args) -> List.concat_map mval_reads args
  | Minput _ | Meof _ | Mdbg _ -> []
  | Mselect (_, c, a, b) -> mval_reads c @ mval_reads a @ mval_reads b
  | Mvec (_, lanes) ->
      Array.to_list lanes |> List.concat_map (fun (_, a, b) -> mval_reads a @ mval_reads b)

(** Does the instruction touch memory (frame or globals)? Used by the
    scheduler's dependence test and by shrink-wrapping. *)
let touches_memory = function
  | Mload _ | Mstore _ | Mcall _ -> true
  | _ -> false

let touches_frame mk =
  (match mk with
  | Mload (_, { mbase = Mframe _; _ }) | Mstore ({ mbase = Mframe _; _ }, _) ->
      true
  | _ -> false)
  || List.exists (function Pslot _ -> true | Preg _ -> false) (writes mk @ reads mk)

(** Side effects that pin an instruction in place. *)
let has_side_effect = function
  | Mstore _ | Mcall _ | Minput _ | Meof _ | Moutput _ -> true
  | _ -> false

let mval_to_string = function
  | Loc (Preg r) -> Printf.sprintf "R%d" r
  | Loc (Pslot s) -> Printf.sprintf "[sp+%d]" s
  | Cst n -> string_of_int n

let mloc_to_string l = mval_to_string (Loc l)

let maddr_to_string a =
  let base =
    match a.mbase with
    | Mframe s -> Printf.sprintf "frame%d" s
    | Mglobal g -> "@" ^ g
  in
  Printf.sprintf "%s[%s]" base (mval_to_string a.mindex)

let mkind_to_string = function
  | Mbin (op, d, a, b) ->
      Printf.sprintf "%s = %s %s, %s" (mloc_to_string d) (Ir.binop_name op)
        (mval_to_string a) (mval_to_string b)
  | Mun (op, d, a) ->
      Printf.sprintf "%s = %s %s" (mloc_to_string d) (Ir.unop_name op)
        (mval_to_string a)
  | Mmov (d, a) -> Printf.sprintf "%s = %s" (mloc_to_string d) (mval_to_string a)
  | Mload (d, a) ->
      Printf.sprintf "%s = load %s" (mloc_to_string d) (maddr_to_string a)
  | Mstore (a, v) ->
      Printf.sprintf "store %s, %s" (maddr_to_string a) (mval_to_string v)
  | Mcall (None, f, args) ->
      Printf.sprintf "call %s(%s)" f
        (String.concat ", " (List.map mval_to_string args))
  | Mcall (Some d, f, args) ->
      Printf.sprintf "%s = call %s(%s)" (mloc_to_string d) f
        (String.concat ", " (List.map mval_to_string args))
  | Minput d -> Printf.sprintf "%s = input" (mloc_to_string d)
  | Meof d -> Printf.sprintf "%s = eof" (mloc_to_string d)
  | Moutput v -> Printf.sprintf "output %s" (mval_to_string v)
  | Mselect (d, c, a, b) ->
      Printf.sprintf "%s = select %s ? %s : %s" (mloc_to_string d)
        (mval_to_string c) (mval_to_string a) (mval_to_string b)
  | Mvec (op, lanes) ->
      let lane (d, a, b) =
        Printf.sprintf "%s=%s,%s" (mloc_to_string d) (mval_to_string a)
          (mval_to_string b)
      in
      Printf.sprintf "vec.%s {%s}" (Ir.binop_name op)
        (String.concat "; " (Array.to_list (Array.map lane lanes)))
  | Mdbg (v, Some (Dloc l)) ->
      Printf.sprintf "dbg %s = %s" (Ir.var_to_string v) (mloc_to_string l)
  | Mdbg (v, Some (Dconst n)) ->
      Printf.sprintf "dbg %s = const %d" (Ir.var_to_string v) n
  | Mdbg (v, None) ->
      Printf.sprintf "dbg %s = <optimized out>" (Ir.var_to_string v)
