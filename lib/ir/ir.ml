(** The intermediate representation shared by both optimizing pipelines.

    A function is a control-flow graph of basic blocks over virtual
    registers. Lowering from the AST places every local variable in a
    frame slot (the O0 shape: loads and stores around every access);
    {!Mem2reg} then promotes slots to SSA values with phi nodes. Debug
    information lives in two places:

    - every instruction and terminator carries an optional source line;
    - [Dbg] pseudo-instructions bind a source variable to the operand
      holding its current value (the analog of [llvm.dbg.value]); frame
      slots that are never promoted instead carry their variable in
      [slot_var], giving the whole-function memory locations that make O0
      binaries fully debuggable.

    Passes transform the graph and are responsible for maintaining both —
    loss of either is precisely what the experiments measure. *)

type reg = int
type label = int

(** Tables keyed by label. Labels (like registers) are small dense
    non-negative ints handed out in sequence by [fn.next_label], so the
    table is an array indexed by label: a lookup is one bounds check
    and one load, and the array grows on demand for labels past its
    capacity. Iteration visits labels in ascending order whatever the
    insertion and removal history, so no caller can observe that
    history. *)
module Label_store = struct
  type 'a t = { mutable slots : 'a option array; mutable count : int }

  let create n = { slots = Array.make (max n 1) None; count = 0 }
  let length t = t.count

  let find_opt t l =
    if l >= 0 && l < Array.length t.slots then Array.unsafe_get t.slots l
    else None

  let mem t l = Option.is_some (find_opt t l)

  let replace t l v =
    if l < 0 then invalid_arg "Ir.Label_store.replace: negative label";
    let cap = Array.length t.slots in
    if l >= cap then begin
      let slots = Array.make (max (l + 1) (2 * cap)) None in
      Array.blit t.slots 0 slots 0 cap;
      t.slots <- slots
    end;
    if Option.is_none t.slots.(l) then t.count <- t.count + 1;
    t.slots.(l) <- Some v

  let remove t l =
    if mem t l then begin
      t.slots.(l) <- None;
      t.count <- t.count - 1
    end

  (** [f] may remove any label, including the one it is given. *)
  let iter f t =
    for l = 0 to Array.length t.slots - 1 do
      match t.slots.(l) with Some v -> f l v | None -> ()
    done

  let fold f t acc =
    let acc = ref acc in
    iter (fun l v -> acc := f l v !acc) t;
    !acc

  let map f t = { slots = Array.map (Option.map f) t.slots; count = t.count }
end

(** Scratch sets of the labels or registers of one function, below a
    bound fixed at creation ([fn.next_label] or [fn.next_reg]). One byte
    per candidate keeps a set over a large function small enough to die
    young. [mem] answers [false] for anything past the bound. *)
module Dense_set = struct
  type t = Bytes.t

  let create n : t = Bytes.make n '\000'
  let add (s : t) i = Bytes.set s i '\001'

  let mem (s : t) i =
    i >= 0 && i < Bytes.length s && Bytes.unsafe_get s i <> '\000'
end

type operand = Reg of reg | Imm of int

(** Non-short-circuit binary operators ([&&]/[||] are lowered to control
    flow). Comparisons yield 0 or 1. *)
type binop =
  | Add
  | Sub
  | Mul
  | Div
  | Rem
  | And
  | Or
  | Xor
  | Shl
  | Shr
  | Ceq
  | Cne
  | Clt
  | Cle
  | Cgt
  | Cge

type unop = Neg | Lnot | Bnot

type base = Slot of int | Global of string

type addr = { base : base; index : operand }
(** Memory reference: element [index] of [base]. Scalars use index 0. *)

type var_id = { origin : string; name : string }
(** Identity of a source variable: the function it was declared in (which
    survives inlining, like [DW_TAG_inlined_subroutine]) and its name. *)

type ikind =
  | Bin of binop * reg * operand * operand
  | Un of unop * reg * operand
  | Mov of reg * operand
  | Load of reg * addr
  | Store of addr * operand
  | Call of reg option * string * operand list
  | Input of reg  (** read the next test-input value *)
  | Eof of reg  (** 1 when the test input is exhausted, else 0 *)
  | Output of operand  (** append to the program output *)
  | Select of reg * operand * operand * operand
      (** [Select (dst, cond, if_true, if_false)] — produced by
          if-conversion *)
  | Vec of binop * (reg * operand * operand) array
      (** SLP-packed lanes: one instruction computing every lane *)
  | Dbg of var_id * operand option
      (** variable binding; [None] records that the value was optimized
          out (an explicitly-undefined location) *)

type instr = { mutable ik : ikind; mutable line : int option }

type term =
  | Ret of operand option
  | Br of label
  | Cbr of operand * label * label  (** non-zero takes the first target *)

type block = {
  b_label : label;
  mutable phis : phi list;
  mutable instrs : instr list;
  mutable term : term;
  mutable term_line : int option;
  mutable preds : label list;  (** maintained by {!recompute_preds} *)
  mutable freq : float;
      (** estimated execution frequency, filled by the branch-probability
          pass; 1.0 until then *)
  mutable prob : float;
      (** for [Cbr]: estimated probability of the first target *)
}

and phi = {
  p_dst : reg;
  mutable p_args : (label * operand) list;  (** one entry per predecessor *)
}

type slot = {
  s_id : int;
  s_size : int;  (** number of elements *)
  s_var : var_id option;  (** the variable living here, if any *)
  s_array : bool;
}

type fn = {
  f_name : string;
  f_line : int;
  f_params : (reg * var_id) list;  (** entry registers holding arguments *)
  mutable f_slots : slot list;
  blocks : block Label_store.t;
  mutable entry : label;
  mutable layout : label list;  (** emission order; entry first *)
  mutable next_reg : int;
  mutable next_label : int;
  mutable next_slot : int;
  mutable is_pure : bool;  (** set by ipa-pure-const *)
  mutable always_inline : bool;  (** single-callsite marker *)
}

type global_def = { g_name : string; g_size : int; g_init : int }

type program = { funcs : (string, fn) Hashtbl.t; prog_globals : global_def list }

(* ------------------------------------------------------------------ *)
(* Constructors and fresh names                                        *)

let fresh_reg fn =
  let r = fn.next_reg in
  fn.next_reg <- r + 1;
  r

let fresh_slot fn ~size ~var ~array =
  let s = { s_id = fn.next_slot; s_size = size; s_var = var; s_array = array } in
  fn.next_slot <- fn.next_slot + 1;
  fn.f_slots <- fn.f_slots @ [ s ];
  s

let find_block fn l = Label_store.find_opt fn.blocks l
let mem_block fn l = Label_store.mem fn.blocks l
let remove_block fn l = Label_store.remove fn.blocks l

let block fn l =
  match find_block fn l with
  | Some b -> b
  | None -> invalid_arg (Printf.sprintf "Ir.block: no block %d in %s" l fn.f_name)

let new_block fn =
  let l = fn.next_label in
  fn.next_label <- l + 1;
  let b =
    {
      b_label = l;
      phis = [];
      instrs = [];
      term = Ret None;
      term_line = None;
      preds = [];
      freq = 1.0;
      prob = 0.5;
    }
  in
  Label_store.replace fn.blocks l b;
  fn.layout <- fn.layout @ [ l ];
  b

let create_fn ~name ~line ~params =
  let fn =
    {
      f_name = name;
      f_line = line;
      f_params = [];
      f_slots = [];
      blocks = Label_store.create 16;
      entry = 0;
      layout = [];
      next_reg = 0;
      next_label = 0;
      next_slot = 0;
      is_pure = false;
      always_inline = false;
    }
  in
  let param_regs =
    List.map (fun v -> (fresh_reg fn, { origin = name; name = v })) params
  in
  let fn = { fn with f_params = param_regs } in
  let entry = new_block fn in
  fn.entry <- entry.b_label;
  fn

(* ------------------------------------------------------------------ *)
(* Structure queries                                                   *)

(* Source order: [compare (a.f_line, a.f_name) (b.f_line, b.f_name)]
   without building the tuples. *)
let source_order a b =
  match Int.compare a.f_line b.f_line with
  | 0 -> String.compare a.f_name b.f_name
  | c -> c

(** All functions of [p] in source order ((f_line, f_name), the same key
    [Inline] sorts callers by) — never [Hashtbl] iteration order.
    [p.funcs] is populated in source order by the parser but in
    sorted-name order by [Snapshot.restore], so the two tables present
    different iteration orders for identical contents; any pass that
    walked [funcs] directly would compile a snapshot-resumed pipeline
    differently from a straight one. Per-function passes iterate
    through here so the question cannot arise. *)
let sorted_funcs (p : program) =
  List.sort source_order (Hashtbl.fold (fun _ fn acc -> fn :: acc) p.funcs [])

let iter_funcs f (p : program) = List.iter f (sorted_funcs p)

let succs = function
  | Ret _ -> []
  | Br l -> [ l ]
  | Cbr (_, l1, l2) -> if l1 = l2 then [ l1 ] else [ l1; l2 ]

(** [iter_succs f t] applies [f] to the targets [succs t] lists, in the
    same order, without building the list. *)
let iter_succs f = function
  | Ret _ -> ()
  | Br l -> f l
  | Cbr (_, l1, l2) ->
      f l1;
      if l1 <> l2 then f l2

(** Every block's predecessors, in layout order of the predecessor.
    The layout lists each label once and [succs] lists each target once,
    so every edge is added once. The layout is walked back to front so
    that consing leaves each list in order: one cell per edge. *)
let recompute_preds fn =
  Label_store.iter (fun _ b -> b.preds <- []) fn.blocks;
  let add l s =
    let sb = block fn s in
    sb.preds <- l :: sb.preds
  in
  let rec add_from = function
    | [] -> ()
    | l :: rest -> (
        add_from rest;
        match (block fn l).term with
        | Ret _ -> ()
        | Br s -> add l s
        | Cbr (_, s1, s2) ->
            add l s1;
            if s1 <> s2 then add l s2)
  in
  add_from fn.layout

(** Labels reachable from entry, as a set. *)
let reachable fn =
  let seen = Dense_set.create fn.next_label in
  let rec go l =
    if not (Dense_set.mem seen l) then begin
      Dense_set.add seen l;
      iter_succs go (block fn l).term
    end
  in
  go fn.entry;
  seen

(** Reverse postorder of reachable blocks, entry first. *)
let rpo fn =
  let seen = Dense_set.create fn.next_label in
  let order = ref [] in
  let rec go l =
    if not (Dense_set.mem seen l) then begin
      Dense_set.add seen l;
      List.iter go (succs (block fn l).term);
      order := l :: !order
    end
  in
  go fn.entry;
  !order

(** Remove unreachable blocks from the table and the layout, recompute
    predecessors, and prune phi arguments coming from blocks that are no
    longer predecessors. The layout and each phi's argument list are
    rebuilt only when they hold something to drop: with every block
    reachable and every phi edge current, only the predecessor lists
    are new. *)
let prune_unreachable fn =
  let live = reachable fn in
  let is_live = Dense_set.mem live in
  if not (List.for_all is_live fn.layout) then
    fn.layout <- List.filter is_live fn.layout;
  Label_store.iter
    (fun l _ -> if not (is_live l) then remove_block fn l)
    fn.blocks;
  recompute_preds fn;
  Label_store.iter
    (fun _ b ->
      match b.phis with
      | [] -> ()
      | phis ->
          let from_pred (l, _) = List.mem l b.preds in
          List.iter
            (fun p ->
              if not (List.for_all from_pred p.p_args) then
                p.p_args <- List.filter from_pred p.p_args)
            phis)
    fn.blocks

(* ------------------------------------------------------------------ *)
(* Defs and uses                                                       *)

let def_of_ikind = function
  | Bin (_, d, _, _) | Un (_, d, _) | Mov (d, _) | Load (d, _) | Input d
  | Eof d
  | Select (d, _, _, _) ->
      [ d ]
  | Call (Some d, _, _) -> [ d ]
  | Call (None, _, _) | Store _ | Output _ | Dbg _ -> []
  | Vec (_, lanes) -> Array.to_list (Array.map (fun (d, _, _) -> d) lanes)

let operand_uses = function Reg r -> [ r ] | Imm _ -> []

let addr_uses a = operand_uses a.index

let uses_of_ikind = function
  | Bin (_, _, a, b) -> operand_uses a @ operand_uses b
  | Un (_, _, a) | Mov (_, a) | Output a -> operand_uses a
  | Load (_, a) -> addr_uses a
  | Store (a, v) -> addr_uses a @ operand_uses v
  | Call (_, _, args) -> List.concat_map operand_uses args
  | Input _ | Eof _ -> []
  | Select (_, c, a, b) -> operand_uses c @ operand_uses a @ operand_uses b
  | Vec (_, lanes) ->
      Array.to_list lanes
      |> List.concat_map (fun (_, a, b) -> operand_uses a @ operand_uses b)
  | Dbg (_, Some o) -> operand_uses o
  | Dbg (_, None) -> []

(** Registers used by an instruction, debug bindings excluded — the
    notion of "use" that keeps values alive for DCE. *)
let real_uses_of_ikind = function
  | Dbg _ -> []
  | ik -> uses_of_ikind ik

let term_uses = function
  | Ret (Some o) -> operand_uses o
  | Ret None | Br _ -> []
  | Cbr (c, _, _) -> operand_uses c

(* The [iter_*] forms below visit exactly the registers the list forms
   above return, in the same order, without building a list: the hot
   scans (use counts, definition sets) run once per pass boundary on
   every function. *)

let iter_operand f = function Reg r -> f r | Imm _ -> ()

let rec iter_operands f = function
  | [] -> ()
  | o :: rest ->
      iter_operand f o;
      iter_operands f rest

(** [iter_defs f ik] applies [f] to each register of [def_of_ikind ik]. *)
let iter_defs f = function
  | Bin (_, d, _, _) | Un (_, d, _) | Mov (d, _) | Load (d, _) | Input d
  | Eof d
  | Select (d, _, _, _)
  | Call (Some d, _, _) ->
      f d
  | Call (None, _, _) | Store _ | Output _ | Dbg _ -> ()
  | Vec (_, lanes) ->
      for i = 0 to Array.length lanes - 1 do
        let d, _, _ = lanes.(i) in
        f d
      done

(** [iter_real_uses f ik] applies [f] to each register of
    [real_uses_of_ikind ik]. *)
let iter_real_uses f = function
  | Bin (_, _, a, b) ->
      iter_operand f a;
      iter_operand f b
  | Un (_, _, a) | Mov (_, a) | Output a -> iter_operand f a
  | Load (_, a) -> iter_operand f a.index
  | Store (a, v) ->
      iter_operand f a.index;
      iter_operand f v
  | Call (_, _, args) -> iter_operands f args
  | Input _ | Eof _ | Dbg _ -> ()
  | Select (_, c, a, b) ->
      iter_operand f c;
      iter_operand f a;
      iter_operand f b
  | Vec (_, lanes) ->
      for i = 0 to Array.length lanes - 1 do
        let _, a, b = lanes.(i) in
        iter_operand f a;
        iter_operand f b
      done

(** [iter_term_uses f t] applies [f] to each register of [term_uses t]. *)
let iter_term_uses f = function
  | Ret (Some o) | Cbr (o, _, _) -> iter_operand f o
  | Ret None | Br _ -> ()

(* ------------------------------------------------------------------ *)
(* Rewriting                                                           *)

let subst_operand map = function
  | Reg r as o -> ( match map r with Some o' -> o' | None -> o)
  | Imm _ as o -> o

let subst_addr map a = { a with index = subst_operand map a.index }

(** [subst_uses map ik] rewrites every register use according to [map]
    (definitions are untouched). [Dbg] bindings whose register is mapped
    to another register or constant follow the value; a binding whose
    register is mapped to "nothing" must be handled by the caller. *)
let subst_uses map ik =
  match ik with
  | Bin (op, d, a, b) -> Bin (op, d, subst_operand map a, subst_operand map b)
  | Un (op, d, a) -> Un (op, d, subst_operand map a)
  | Mov (d, a) -> Mov (d, subst_operand map a)
  | Load (d, a) -> Load (d, subst_addr map a)
  | Store (a, v) -> Store (subst_addr map a, subst_operand map v)
  | Call (d, f, args) -> Call (d, f, List.map (subst_operand map) args)
  | Input _ | Eof _ | Dbg (_, None) -> ik
  | Output a -> Output (subst_operand map a)
  | Select (d, c, a, b) ->
      Select (d, subst_operand map c, subst_operand map a, subst_operand map b)
  | Vec (op, lanes) ->
      Vec
        ( op,
          Array.map
            (fun (d, a, b) -> (d, subst_operand map a, subst_operand map b))
            lanes )
  | Dbg (v, Some o) -> Dbg (v, Some (subst_operand map o))

let subst_term map = function
  | Ret (Some o) -> Ret (Some (subst_operand map o))
  | Ret None as t -> t
  | Br _ as t -> t
  | Cbr (c, l1, l2) -> Cbr (subst_operand map c, l1, l2)

(** Apply a register substitution throughout a function (uses only). *)
let apply_subst fn map =
  Label_store.iter
    (fun _ b ->
      List.iter
        (fun p ->
          p.p_args <- List.map (fun (l, o) -> (l, subst_operand map o)) p.p_args)
        b.phis;
      List.iter (fun i -> i.ik <- subst_uses map i.ik) b.instrs;
      b.term <- subst_term map b.term)
    fn.blocks

(* ------------------------------------------------------------------ *)
(* Iteration helpers                                                   *)

let iter_blocks fn f = List.iter (fun l -> f (block fn l)) fn.layout

let iter_instrs fn f = iter_blocks fn (fun b -> List.iter (f b) b.instrs)

(** Count of non-debug instructions — the "size" used by inlining
    heuristics and pass statistics. *)
let size fn =
  let n = ref 0 in
  iter_instrs fn (fun _ i ->
      match i.ik with Dbg _ -> () | _ -> incr n);
  !n

(* ------------------------------------------------------------------ *)
(* Evaluation of operators: the single semantics shared by the VM, the
   constant folder and every simplification, so that optimization can
   never change program output. *)

let eval_binop op a b =
  match op with
  | Add -> Arith.add a b
  | Sub -> Arith.sub a b
  | Mul -> Arith.mul a b
  | Div -> Arith.div a b
  | Rem -> Arith.rem a b
  | And -> Arith.band a b
  | Or -> Arith.bor a b
  | Xor -> Arith.bxor a b
  | Shl -> Arith.shl a b
  | Shr -> Arith.shr a b
  | Ceq -> Arith.ceq a b
  | Cne -> Arith.cne a b
  | Clt -> Arith.clt a b
  | Cle -> Arith.cle a b
  | Cgt -> Arith.cgt a b
  | Cge -> Arith.cge a b

let eval_unop op a =
  match op with Neg -> Arith.neg a | Lnot -> Arith.lnot a | Bnot -> Arith.bnot a

(** Operator properties used by value numbering and instcombine. *)
let commutative = function
  | Add | Mul | And | Or | Xor | Ceq | Cne -> true
  | Sub | Div | Rem | Shl | Shr | Clt | Cle | Cgt | Cge -> false

(* ------------------------------------------------------------------ *)
(* Printing (for diagnostics and the IR golden tests)                  *)

let binop_name = function
  | Add -> "add"
  | Sub -> "sub"
  | Mul -> "mul"
  | Div -> "div"
  | Rem -> "rem"
  | And -> "and"
  | Or -> "or"
  | Xor -> "xor"
  | Shl -> "shl"
  | Shr -> "shr"
  | Ceq -> "ceq"
  | Cne -> "cne"
  | Clt -> "clt"
  | Cle -> "cle"
  | Cgt -> "cgt"
  | Cge -> "cge"

let unop_name = function Neg -> "neg" | Lnot -> "lnot" | Bnot -> "bnot"

let operand_to_string = function
  | Reg r -> Printf.sprintf "r%d" r
  | Imm n -> string_of_int n

let base_to_string = function
  | Slot s -> Printf.sprintf "slot%d" s
  | Global g -> "@" ^ g

let addr_to_string a =
  Printf.sprintf "%s[%s]" (base_to_string a.base) (operand_to_string a.index)

let var_to_string v = Printf.sprintf "%s:%s" v.origin v.name

let ikind_to_string = function
  | Bin (op, d, a, b) ->
      Printf.sprintf "r%d = %s %s, %s" d (binop_name op) (operand_to_string a)
        (operand_to_string b)
  | Un (op, d, a) ->
      Printf.sprintf "r%d = %s %s" d (unop_name op) (operand_to_string a)
  | Mov (d, a) -> Printf.sprintf "r%d = %s" d (operand_to_string a)
  | Load (d, a) -> Printf.sprintf "r%d = load %s" d (addr_to_string a)
  | Store (a, v) ->
      Printf.sprintf "store %s, %s" (addr_to_string a) (operand_to_string v)
  | Call (None, f, args) ->
      Printf.sprintf "call %s(%s)" f
        (String.concat ", " (List.map operand_to_string args))
  | Call (Some d, f, args) ->
      Printf.sprintf "r%d = call %s(%s)" d f
        (String.concat ", " (List.map operand_to_string args))
  | Input d -> Printf.sprintf "r%d = input" d
  | Eof d -> Printf.sprintf "r%d = eof" d
  | Output a -> Printf.sprintf "output %s" (operand_to_string a)
  | Select (d, c, a, b) ->
      Printf.sprintf "r%d = select %s ? %s : %s" d (operand_to_string c)
        (operand_to_string a) (operand_to_string b)
  | Vec (op, lanes) ->
      let lane (d, a, b) =
        Printf.sprintf "r%d=%s,%s" d (operand_to_string a) (operand_to_string b)
      in
      Printf.sprintf "vec.%s {%s}" (binop_name op)
        (String.concat "; " (Array.to_list (Array.map lane lanes)))
  | Dbg (v, Some o) ->
      Printf.sprintf "dbg %s = %s" (var_to_string v) (operand_to_string o)
  | Dbg (v, None) -> Printf.sprintf "dbg %s = <optimized out>" (var_to_string v)

let term_to_string = function
  | Ret None -> "ret"
  | Ret (Some o) -> "ret " ^ operand_to_string o
  | Br l -> Printf.sprintf "br L%d" l
  | Cbr (c, l1, l2) ->
      Printf.sprintf "cbr %s, L%d, L%d" (operand_to_string c) l1 l2

let line_suffix = function None -> "" | Some l -> Printf.sprintf "  ; line %d" l

let fn_to_string fn =
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Printf.sprintf "fn %s(%s)\n" fn.f_name
       (String.concat ", "
          (List.map
             (fun (r, v) -> Printf.sprintf "r%d=%s" r (var_to_string v))
             fn.f_params)));
  List.iter
    (fun s ->
      Buffer.add_string buf
        (Printf.sprintf "  slot%d size=%d%s\n" s.s_id s.s_size
           (match s.s_var with
           | Some v -> " var=" ^ var_to_string v
           | None -> "")))
    fn.f_slots;
  List.iter
    (fun l ->
      let b = block fn l in
      Buffer.add_string buf (Printf.sprintf "L%d:\n" l);
      List.iter
        (fun p ->
          let args =
            List.map
              (fun (pl, o) -> Printf.sprintf "L%d:%s" pl (operand_to_string o))
              p.p_args
          in
          Buffer.add_string buf
            (Printf.sprintf "  r%d = phi [%s]\n" p.p_dst (String.concat ", " args)))
        b.phis;
      List.iter
        (fun i ->
          Buffer.add_string buf
            (Printf.sprintf "  %s%s\n" (ikind_to_string i.ik) (line_suffix i.line)))
        b.instrs;
      Buffer.add_string buf
        (Printf.sprintf "  %s%s\n" (term_to_string b.term)
           (line_suffix b.term_line)))
    fn.layout;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Snapshots: mutation-isolated copies of a whole program              *)

(** Deep, mutation-isolated copies of an {!program} — the substrate of
    pass-prefix incremental compilation. A snapshot captured at a pass
    boundary can later be {!Snapshot.restore}d into a fresh program and
    compilation resumed from that exact state, any number of times: the
    snapshot shares no mutable structure with either the program it was
    captured from or any program restored from it.

    Copy discipline, by field:
    - mutable records ([fn], [block], [instr], [phi]) are re-allocated;
    - [Vec] lanes hold a mutable array, so the array is copied; every
      other [ikind] payload is immutable and shared;
    - immutable lists ([f_slots], [f_params], [layout], [preds],
      [p_args], [prog_globals]) are shared — passes replace these
      fields, they never mutate list cells;
    - the [funcs] hash table is rebuilt with insertions in sorted key
      order, so a restored program's table layout depends only on
      content, never on the insertion history of the original (bucket
      order is observable through [Hashtbl.iter]); a [blocks] store
      iterates in label order, so a plain copy already has that
      property. *)
module Snapshot = struct
  type t = {
    sn_funcs : (string * fn) list;  (** deep copies, sorted by name *)
    sn_globals : global_def list;
    mutable sn_digest : string option;  (** computed on demand *)
    sn_words : int;  (** heap words the copy allocated *)
  }

  (* Every copy counts the heap words it allocates into [words] as it
     goes (a block of [n] fields takes [n + 1]), so a capture knows its
     size without a second walk over the copy. *)
  let alloc words x =
    words := !words + Obj.size (Obj.repr x) + 1;
    x

  let alloc_list words l =
    words := !words + (3 * List.length l);
    l

  let copy_ikind words = function
    | Vec (op, lanes) -> alloc words (Vec (op, alloc words (Array.copy lanes)))
    | ik -> ik

  let copy_instr words (i : instr) =
    alloc words { ik = copy_ikind words i.ik; line = i.line }

  let copy_phi words (p : phi) = alloc words { p_dst = p.p_dst; p_args = p.p_args }

  let copy_block words (b : block) =
    alloc words
      {
        b_label = b.b_label;
        phis = alloc_list words (List.map (copy_phi words) b.phis);
        instrs = alloc_list words (List.map (copy_instr words) b.instrs);
        term = b.term;
        term_line = b.term_line;
        preds = b.preds;
        freq = b.freq;
        prob = b.prob;
      }

  (* The store's record, its slot array and one [Some] per block. *)
  let copy_blocks words blocks =
    let copy = alloc words (Label_store.map (copy_block words) blocks) in
    ignore (alloc words copy.Label_store.slots);
    words := !words + (2 * Label_store.length copy);
    copy

  let copy_fn words (fn : fn) =
    alloc words
      {
        f_name = fn.f_name;
        f_line = fn.f_line;
        f_params = fn.f_params;
        f_slots = fn.f_slots;
        blocks = copy_blocks words fn.blocks;
        entry = fn.entry;
        layout = fn.layout;
        next_reg = fn.next_reg;
        next_label = fn.next_label;
        next_slot = fn.next_slot;
        is_pure = fn.is_pure;
        always_inline = fn.always_inline;
      }

  let sorted_names (p : program) =
    Hashtbl.fold (fun n _ acc -> n :: acc) p.funcs []
    |> List.sort String.compare

  let capture (p : program) : t =
    let words = ref 0 in
    let funcs =
      alloc_list words
        (List.map
           (fun n -> alloc words (n, copy_fn words (Hashtbl.find p.funcs n)))
           (sorted_names p))
    in
    { sn_funcs = funcs; sn_globals = p.prog_globals; sn_digest = None; sn_words = !words }

  (** A fresh program sharing no mutable state with the snapshot: every
      restore forks its own copy, so many resumed compilations can run
      from one snapshot (even concurrently — the snapshot itself is
      only read). *)
  let restore (t : t) : program =
    let words = ref 0 in
    let funcs = Hashtbl.create (max 16 (List.length t.sn_funcs)) in
    List.iter (fun (n, fn) -> Hashtbl.replace funcs n (copy_fn words fn)) t.sn_funcs;
    { funcs; prog_globals = t.sn_globals }

  (* The digest hashes a projection of the program that holds what
     [fn_to_string] prints plus the fields it omits: per function, in
     name order, the header (name, line, entry label, fresh-name
     counters, purity and inline markers), the slots (array-ness
     included) and the params, then the blocks in layout order with
     their phis, instructions and lines, terminator and its line,
     frequency and probability (as their IEEE bits, which is how
     [Marshal] writes a float) and predecessor lists; then the globals.
     Blocks off the layout and the label store's capacity stay out: two
     states that differ only there run every later pass alike.
     [No_sharing] makes the bytes a function of the values alone, and
     no hash table is serialized, so the digest is independent of
     insertion history. *)
  let digest_funcs (funcs : (string * fn) list) globals =
    let block_view fn l =
      let b = block fn l in
      (l, b.phis, b.instrs, b.term, b.term_line, b.freq, b.prob, b.preds)
    in
    let fn_view (_, fn) =
      ( ( fn.f_name,
          fn.f_line,
          fn.entry,
          fn.next_reg,
          fn.next_label,
          fn.next_slot,
          fn.is_pure,
          fn.always_inline ),
        fn.f_slots,
        fn.f_params,
        List.map (block_view fn) fn.layout )
    in
    let view = (List.map fn_view funcs, (globals : global_def list)) in
    Digest.to_hex
      (Digest.string (Marshal.to_string view [ Marshal.No_sharing ]))

  let digest_program (p : program) : string =
    digest_funcs
      (List.map (fun n -> (n, Hashtbl.find p.funcs n)) (sorted_names p))
      p.prog_globals

  let digest (t : t) : string =
    match t.sn_digest with
    | Some d -> d
    | None ->
        (* Digesting only reads, so view the templates in place instead
           of paying for a restore copy. *)
        let d = digest_funcs t.sn_funcs t.sn_globals in
        t.sn_digest <- Some d;
        d

  let size_bytes (t : t) = t.sn_words * (Sys.word_size / 8)
end
