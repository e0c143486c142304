(** The virtual machine executing emitted binaries, with a deterministic
    cost model standing in for the paper's hardware.

    Cost model (in abstract cycles):
    - most ALU operations cost 1; multiplies 3; divides 10
    - memory loads and stores cost 4
    - every operand resident in a frame word ([Pslot]) adds 1 (an
      L1-resident stack access) — spilling and memory-resident variables
      cost real but moderate cycles
    - a control transfer to anything other than the next address adds 3
      (taken-branch / fetch redirect) — block placement earns its keep here
    - reading a location written by the immediately preceding instruction
      adds 2 (pipeline hazard), or 4 if the producer was a load
      (load-use) — post-RA scheduling earns its keep here
    - calls cost 9 (save/restore, argument marshalling) plus one cycle
      per frame word (frame setup and zeroing), the frame part deferred
      to the activation point for shrink-wrapped functions
    - a [k]-lane vector operation costs [1 + k/2] instead of [k] scalar
      instructions

    The VM also provides the instrumentation the framework needs: edge
    coverage (for the fuzzer), first-hit temporary breakpoints (for the
    debugger), and cost-driven PC sampling (for AutoFDO). Coverage is
    AFL's fixed map made exact: every static control-transfer edge of a
    binary has an id ({!edge_table}, in (src, dst) order), and a
    coverage run counts hits into an [int array] indexed by id.

    Two cores implement these semantics. {!Reference} is the original
    tree-walking interpreter over [Emit.eop]; it is the executable
    specification, and remains the engine behind the stepwise
    ({!step}/{!state}) API used by the debugger. The fast core decodes a
    binary ({!Decode}) into flat instruction arrays with resolved
    frame-slot offsets, precomputed hazard bitsets and static costs, and
    fused superinstructions, then executes every run in one loop, with
    an array-based frame stack and no per-instruction allocation; a
    short run's whole state fits the minor heap. {!load} decodes a
    binary once and {!exec} runs what it returns, on the fast core when
    the binary is decodable and on {!Reference} otherwise (or when
    [DEBUGTUNER_VM=reference] is set); {!run} is one load and one exec.
    The VM keeps no state between calls: a caller that runs one binary
    many times (a debug session over a corpus, a fuzzing campaign, a
    cost loop) loads it once and drops it when it returns. The
    conformance suite pins the two cores to byte-identical {!result}s. *)

exception Budget_exhausted
exception Runtime_error of string

type sampler = {
  period : int;
  mutable next_at : int;
  mutable samples : int list;  (** sampled addresses, newest first *)
  rng : Util.Rng.t;
}

type run_opts = {
  max_instrs : int;
  coverage : bool;
  breakpoints : bool array option;
      (** per-address temporary breakpoints; cleared on first hit *)
  sample_period : int option;
  seed : int;  (** sampling jitter seed *)
}

let default_opts =
  {
    max_instrs = 4_000_000;
    coverage = false;
    breakpoints = None;
    sample_period = None;
    seed = 1;
  }

(** The sampler [opts] asks for, shared by both cores so their jitter
    streams agree. *)
let make_sampler (opts : run_opts) =
  Option.map
    (fun period ->
      {
        period;
        next_at = period;
        samples = [];
        rng = Util.Rng.create (opts.seed + 77);
      })
    opts.sample_period

type result = {
  output : int list;
  cost : int;
  instrs : int;
  edges : int array;
      (** hit count per edge id (the index into {!edge_table});
          [[||]] unless [coverage] *)
  bp_hits : int list;  (** breakpoint addresses in first-hit order *)
  samples : int list;  (** sampled addresses in order *)
  timed_out : bool;
}

type frame = {
  fr_fi : Emit.func_info;
  fr_mem : int array;
  fr_ret_pc : int;
  fr_ret_dst : Mach.mloc option;
  fr_saved : int array;
  mutable fr_paid : bool;  (** frame cost charged (shrink-wrapping) *)
}

type state = {
  bin : Emit.binary;
  pregs : int array;
  mutable frames : frame list;
  globals : (string, int array) Hashtbl.t;
  input : int array;
  mutable input_pos : int;
  mutable out_rev : int list;
  mutable cost : int;
  mutable icount : int;
  mutable pc : int;
  mutable last_writes : Mach.mloc list;  (** locations written by previous instr *)
  mutable last_was_load : bool;
  mutable bp_hits_rev : int list;
  mutable halted : bool;
}

let cur_frame st =
  match st.frames with
  | f :: _ -> f
  | [] -> raise (Runtime_error "no active frame")

let global_mem st g =
  match Hashtbl.find_opt st.globals g with
  | Some a -> a
  | None -> raise (Runtime_error ("unknown global " ^ g))

let wrap_index i size = if size <= 0 then 0 else ((i mod size) + size) mod size

(* Operand resolution, charging the frame-word cost. *)
let read_loc st = function
  | Mach.Preg k -> st.pregs.(k)
  | Mach.Pslot i ->
      st.cost <- st.cost + 1;
      let f = cur_frame st in
      f.fr_mem.(f.fr_fi.Emit.fi_data_words + i)

let read_val st = function Mach.Loc l -> read_loc st l | Mach.Cst n -> n

let write_loc st l v =
  match l with
  | Mach.Preg k -> st.pregs.(k) <- v
  | Mach.Pslot i ->
      st.cost <- st.cost + 1;
      let f = cur_frame st in
      f.fr_mem.(f.fr_fi.Emit.fi_data_words + i) <- v

let resolve_addr st (a : Mach.maddr) =
  let idx = read_val st a.Mach.mindex in
  match a.Mach.mbase with
  | Mach.Mframe slot ->
      let f = cur_frame st in
      let offset, size =
        match
          List.find_opt (fun (id, _, _) -> id = slot) f.fr_fi.Emit.fi_slot_offset
        with
        | Some (_, o, s) -> (o, s)
        | None -> raise (Runtime_error "bad frame slot")
      in
      (f.fr_mem, offset + wrap_index idx size)
  | Mach.Mglobal g ->
      let mem = global_mem st g in
      (mem, wrap_index idx (Array.length mem))

(* Frame-activation cost for shrink-wrapped functions. *)
let charge_frame st =
  let f = cur_frame st in
  if not f.fr_paid then begin
    f.fr_paid <- true;
    st.cost <- st.cost + Array.length f.fr_mem
  end

let enter_function st fi args ~ret_pc ~ret_dst =
  let frame =
    {
      fr_fi = fi;
      fr_mem = Array.make fi.Emit.fi_frame_words 0;
      fr_ret_pc = ret_pc;
      fr_ret_dst = ret_dst;
      fr_saved = Array.copy st.pregs;
      fr_paid = fi.Emit.fi_activation = None;
    }
  in
  st.cost <- st.cost + 9;
  if fi.Emit.fi_activation = None then
    st.cost <- st.cost + fi.Emit.fi_frame_words;
  st.frames <- frame :: st.frames;
  (* Deliver arguments into the callee's parameter locations. Missing
     arguments (under-application) are explicitly zero-filled; surplus
     arguments are evaluated by the caller but not delivered. *)
  List.iteri
    (fun i loc ->
      let v = match List.nth_opt args i with Some v -> v | None -> 0 in
      match loc with
      | Mach.Preg k -> st.pregs.(k) <- v
      | Mach.Pslot s -> frame.fr_mem.(fi.Emit.fi_data_words + s) <- v)
    fi.Emit.fi_param_locs;
  st.pc <- fi.Emit.fi_entry

let func_by_name st name =
  match Hashtbl.find_opt st.bin.Emit.fn_by_name name with
  | Some idx -> st.bin.Emit.funcs.(idx)
  | None -> raise (Runtime_error ("call to unknown function " ^ name))

(** A fresh machine state for [bin], positioned at the first instruction
    of [entry] with [args] delivered: the prologue shared by
    {!Reference.run}, the debugger's sessions and the value oracle's
    replay. Raises [Runtime_error] when [entry] does not exist. *)
let init_state (bin : Emit.binary) ~entry ~args ~input =
  let globals = Hashtbl.create 16 in
  List.iter
    (fun (g : Ir.global_def) ->
      Hashtbl.replace globals g.Ir.g_name (Array.make g.Ir.g_size g.Ir.g_init))
    bin.Emit.bin_globals;
  let st =
    {
      bin;
      pregs = Array.make (Mach.num_regs + 1) 0;
      frames = [];
      globals;
      input = Array.of_list input;
      input_pos = 0;
      out_rev = [];
      cost = 0;
      icount = 0;
      pc = 0;
      last_writes = [];
      last_was_load = false;
      bp_hits_rev = [];
      halted = false;
    }
  in
  let fi =
    match Hashtbl.find_opt bin.Emit.fn_by_name entry with
    | Some idx -> bin.Emit.funcs.(idx)
    | None -> raise (Runtime_error ("no entry function " ^ entry))
  in
  enter_function st fi args ~ret_pc:(-1) ~ret_dst:None;
  st

(** Execute one instruction; updates [st.pc]. *)
let step st (opts : run_opts) sampler =
  let bin = st.bin in
  let pc = st.pc in
  if pc < 0 || pc >= Array.length bin.Emit.code then
    raise (Runtime_error "pc out of range");
  (* Temporary breakpoints: record the first hit, then clear. *)
  (match opts.breakpoints with
  | Some bps when bps.(pc) ->
      bps.(pc) <- false;
      st.bp_hits_rev <- pc :: st.bp_hits_rev
  | _ -> ());
  st.icount <- st.icount + 1;
  if st.icount > opts.max_instrs then raise Budget_exhausted;
  let hazard reads_ =
    if st.last_writes <> [] && List.exists (fun l -> List.mem l st.last_writes) reads_
    then if st.last_was_load then 4 else 2
    else 0
  in
  let fallthrough = pc + 1 in
  let transfer dst =
    if dst <> fallthrough then st.cost <- st.cost + 3;
    st.pc <- dst
  in
  (match bin.Emit.code.(pc) with
  | Emit.Eins mk ->
      let reads_ = Mach.reads mk in
      st.cost <- st.cost + 1 + hazard reads_;
      if Mach.touches_frame mk then charge_frame st;
      (match mk with
      | Mach.Mbin (op, d, a, b) ->
          let cost_extra =
            match op with Ir.Mul -> 2 | Ir.Div | Ir.Rem -> 9 | _ -> 0
          in
          st.cost <- st.cost + cost_extra;
          write_loc st d (Ir.eval_binop op (read_val st a) (read_val st b));
          st.last_was_load <- false
      | Mach.Mun (op, d, a) ->
          write_loc st d (Ir.eval_unop op (read_val st a));
          st.last_was_load <- false
      | Mach.Mmov (d, a) ->
          write_loc st d (read_val st a);
          st.last_was_load <- false
      | Mach.Mload (d, a) ->
          st.cost <- st.cost + 3;
          let mem, i = resolve_addr st a in
          write_loc st d mem.(i);
          st.last_was_load <- true
      | Mach.Mstore (a, v) ->
          st.cost <- st.cost + 3;
          let value = read_val st v in
          let mem, i = resolve_addr st a in
          mem.(i) <- value;
          st.last_was_load <- false
      | Mach.Mcall (dst, f, args) ->
          let argv = List.map (read_val st) args in
          let fi = func_by_name st f in
          enter_function st fi argv ~ret_pc:fallthrough ~ret_dst:dst;
          st.last_writes <- [];
          st.last_was_load <- false;
          (* control transferred; skip the bottom-of-function PC update *)
          raise_notrace Exit
      | Mach.Minput d ->
          st.cost <- st.cost + 2;
          let v =
            if st.input_pos < Array.length st.input then begin
              let v = st.input.(st.input_pos) in
              st.input_pos <- st.input_pos + 1;
              v
            end
            else 0
          in
          write_loc st d v;
          st.last_was_load <- false
      | Mach.Meof d ->
          write_loc st d (if st.input_pos >= Array.length st.input then 1 else 0);
          st.last_was_load <- false
      | Mach.Moutput v ->
          st.cost <- st.cost + 2;
          st.out_rev <- read_val st v :: st.out_rev;
          st.last_was_load <- false
      | Mach.Mselect (d, c, a, b) ->
          let v = if read_val st c <> 0 then read_val st a else read_val st b in
          write_loc st d v;
          st.last_was_load <- false
      | Mach.Mvec (op, lanes) ->
          (* SIMD: one extra cycle per pair of lanes beyond the base. *)
          st.cost <- st.cost + (Array.length lanes / 2);
          let results =
            Array.map
              (fun (_, a, b) -> Ir.eval_binop op (read_val st a) (read_val st b))
              lanes
          in
          Array.iteri (fun i (d, _, _) -> write_loc st d results.(i)) lanes;
          st.last_was_load <- false
      | Mach.Mdbg _ -> () (* never emitted; defensive *));
      st.last_writes <- Mach.writes mk;
      st.pc <- fallthrough
  | Emit.Ejmp t ->
      st.cost <- st.cost + 1;
      st.last_writes <- [];
      transfer t
  | Emit.Ecbr (c, t1, t2) ->
      st.cost <- st.cost + 1 + hazard (Mach.mval_reads c);
      let v = read_val st c in
      st.last_writes <- [];
      transfer (if v <> 0 then t1 else t2)
  | Emit.Eret v ->
      st.cost <- st.cost + 2;
      let value = Option.map (read_val st) v in
      (match st.frames with
      | [] -> raise (Runtime_error "return with no frame")
      | f :: rest ->
          st.frames <- rest;
          Array.blit f.fr_saved 0 st.pregs 0 (Array.length st.pregs);
          if rest = [] then st.halted <- true
          else begin
            (match (f.fr_ret_dst, value) with
            | Some d, Some v -> write_loc st d v
            | Some d, None -> write_loc st d 0
            | None, _ -> ());
            st.last_writes <- [];
            st.last_was_load <- false;
            transfer f.fr_ret_pc
          end));
  (* Cost-driven sampling. *)
  match sampler with
  | Some s ->
      while st.cost >= s.next_at do
        s.samples <- st.pc :: s.samples;
        (* Small deterministic jitter avoids lockstep aliasing with loop
           bodies, like real PMU sampling. *)
        s.next_at <- s.next_at + s.period + Util.Rng.int s.rng (max 1 (s.period / 8))
      done
  | None -> ()

(* The static control-transfer edges of [bin] in (src, dst) order: a
   jump's edge, one edge per distinct arm of a conditional branch, and,
   for a return at [r], one edge (r, c + 1) per call site [c] of [r]'s
   function. Alongside, [first.(a)] is the id of the first edge leaving
   address [a] (its edges are ids [first.(a)] to [first.(a + 1) - 1]),
   and [rank.(c + 1)] is the rank, in address order, of the call at [c]
   among the calls to its callee, so a return at [r] to [c + 1] is edge
   [first.(r) + rank.(c + 1)]. Built in one ascending sweep, no sort. *)
let edge_layout (bin : Emit.binary) =
  let code = bin.Emit.code in
  let len = Array.length code in
  let nf = Array.length bin.Emit.funcs in
  let callee a =
    match code.(a) with
    | Emit.Eins (Mach.Mcall (_, f, _)) -> Hashtbl.find_opt bin.Emit.fn_by_name f
    | _ -> None
  in
  let rank = Array.make (len + 1) 0 in
  let ncalls = Array.make nf 0 and sites_rev = Array.make nf [] in
  for a = 0 to len - 1 do
    match callee a with
    | Some fx ->
        rank.(a + 1) <- ncalls.(fx);
        ncalls.(fx) <- ncalls.(fx) + 1;
        sites_rev.(fx) <- (a + 1) :: sites_rev.(fx)
    | None -> ()
  done;
  let sites = Array.map List.rev sites_rev in
  let first = Array.make (len + 1) 0 in
  let rev = ref [] and n = ref 0 in
  let add a dst =
    rev := (a, dst) :: !rev;
    incr n
  in
  for a = 0 to len - 1 do
    first.(a) <- !n;
    match code.(a) with
    | Emit.Ejmp t -> add a t
    | Emit.Ecbr (_, t1, t2) ->
        add a (min t1 t2);
        if t1 <> t2 then add a (max t1 t2)
    | Emit.Eret _ ->
        let fx = bin.Emit.fn_of_addr.(a) in
        if fx >= 0 && fx < nf then List.iter (add a) sites.(fx)
    | Emit.Eins _ -> ()
  done;
  first.(len) <- !n;
  (Array.of_list (List.rev !rev), first, rank)

(** Every static control-transfer edge of [bin] as (src, dst), strictly
    ascending; an edge's id is its index, and a coverage run's
    [result.edges] counts hits per id. The edges are each jump, each arm
    of a conditional branch, and each return paired with each call site
    [c] of its function (dst [c + 1]). *)
let edge_table bin =
  let table, _, _ = edge_layout bin in
  table

(** The original tree-walking interpreter — the executable specification
    the fast core is conformance-tested against, and the fallback for
    binaries the decoder rejects. Coverage counts go through the same
    edge ids; a transfer that is not in {!edge_table} (possible only in a
    binary whose control leaves a function other than by call and
    return, which the emitter never produces and the decoder rejects)
    is not counted. *)
module Reference = struct
  let run (bin : Emit.binary) ~entry ?(args = []) ~input (opts : run_opts) :
      result =
    let st = init_state bin ~entry ~args ~input in
    let table, first, _ =
      if opts.coverage then edge_layout bin else ([||], [||], [||])
    in
    let counts = Array.make (Array.length table) 0 in
    let count src dst =
      let rec find id =
        if id < first.(src + 1) then
          if snd table.(id) = dst then counts.(id) <- counts.(id) + 1
          else find (id + 1)
      in
      find first.(src)
    in
    let sampler = make_sampler opts in
    let timed_out = ref false in
    (try
       while not st.halted do
         let pc = st.pc in
         (try step st opts sampler with Exit -> ());
         if opts.coverage then
           match bin.Emit.code.(pc) with
           | (Emit.Ejmp _ | Emit.Ecbr _ | Emit.Eret _) when not st.halted ->
               count pc st.pc
           | _ -> ()
       done
     with Budget_exhausted -> timed_out := true);
    {
      output = List.rev st.out_rev;
      cost = st.cost;
      instrs = st.icount;
      edges = counts;
      bp_hits = List.rev st.bp_hits_rev;
      samples = (match sampler with Some s -> List.rev s.samples | None -> []);
      timed_out = !timed_out;
    }
end

(** One-time flattening of an [Emit.binary] into the fast core's
    pre-decoded form: operands carry resolved absolute frame-word
    indices, every instruction carries its static cost, its hazard
    read/write bitsets and its touches-frame flag, every control
    transfer carries its {!edge_table} ids, and adjacent cmp+cbr /
    load+use pairs are fused into superinstructions on a second code
    array, the one plain and coverage-only runs execute.

    Hazard bitsets pack [Preg k] as bit [k] and [Pslot i] as bit
    [15 + i]; binaries whose spill indices do not fit (i > 47), or with
    degenerate layouts the checks below reject (among them control that
    leaves a function other than by call and return, which edge ids
    rule out), raise [Unsupported] and run on {!Reference}. Decoded
    programs are immutable: all mutable per-run state lives in the fast
    core's own state record, so one decode serves any number of runs. *)
module Decode = struct
  exception Unsupported

  (* Register file width: num_regs architectural registers plus the
     scratch register the backend reserves. *)
  let nregs = Mach.num_regs + 1

  type operand =
    | Oreg of int
    | Oslot of int  (** absolute frame-word index (data_words + spill) *)
    | Ocst of int

  type dst = Dreg of int | Dslot of int  (** absolute frame-word index *)

  type daddr =
    | Aframe of int * int  (** offset, size — both decode-checked *)
    | Aglobal of int * int  (** global table index, size *)

  (* Per-instruction static fields: [c] the precomputed cost (base +
     op extras + frame-word operand charges + any statically-known
     branch penalty), [rb]/[wb] the hazard read/write bitsets, [tf]
     whether the instruction triggers the shrink-wrap frame charge. *)
  type dins =
    | Ibin of {
        op : Ir.binop;
        d : dst;
        a : operand;
        b : operand;
        c : int;
        rb : int;
        wb : int;
        tf : bool;
      }
    | Iun of {
        op : Ir.unop;
        d : dst;
        a : operand;
        c : int;
        rb : int;
        wb : int;
        tf : bool;
      }
    | Imov of { d : dst; a : operand; c : int; rb : int; wb : int; tf : bool }
    | Iload of {
        d : dst;
        ad : daddr;
        ix : operand;
        c : int;
        rb : int;
        wb : int;
        tf : bool;
      }
    | Istore of {
        ad : daddr;
        ix : operand;
        v : operand;
        c : int;
        rb : int;
        tf : bool;
      }
    | Icall of {
        fx : int;  (** callee index in [p_funcs] *)
        srcs : operand array;  (** one per callee parameter, zero-padded *)
        ret_mode : int;  (** 0 none, 1 register, 2 frame word *)
        ret_idx : int;  (** register number or caller-absolute frame index *)
        c : int;
        rb : int;
        tf : bool;
      }
    | Iinput of { d : dst; c : int; wb : int; tf : bool }
    | Ieof of { d : dst; c : int; wb : int; tf : bool }
    | Ioutput of { v : operand; c : int; rb : int; tf : bool }
    | Iselect of {
        d : dst;
        cnd : operand;
        a : operand;
        b : operand;
        xa : int;  (** frame-word charge of arm [a], paid only if taken *)
        xb : int;
        c : int;
        rb : int;
        wb : int;
        tf : bool;
      }
    | Ivec of {
        op : Ir.binop;
        lanes : (dst * operand * operand) array;
        c : int;
        rb : int;
        wb : int;
        tf : bool;
      }
    | Inop  (** [Mdbg]: cost 1, no reads, no writes *)
    | Ijmp of { t : int; c : int; e : int }
        (** c includes the taken-branch 3; e is the edge id *)
    | Icbr of {
        cnd : operand;
        t1 : int;
        t2 : int;
        x1 : int;  (** +3 if t1 is not the fallthrough *)
        x2 : int;
        c : int;
        rb : int;
        e1 : int;  (** edge id of the t1 arm *)
        e2 : int;
      }
    | Iret of { v : operand; c : int; e : int }
        (** no hazard: returns pay a flat 2. The edge back to call site
            [rp - 1] is [e + p_ret_rank.(rp)] *)
    | Ifail of string
        (** statically-malformed instruction (unknown global/function,
            bad frame slot): raises [Runtime_error] when executed, like
            the reference core *)
    | Icmp_cbr of {
        (* fused Mbin ; Ecbr — part 2's pair hazard is static in c2 *)
        op : Ir.binop;
        d : dst;
        a : operand;
        b : operand;
        c1 : int;
        rb : int;
        tf : bool;
        cnd : operand;
        t1 : int;
        t2 : int;
        x1 : int;
        x2 : int;
        c2 : int;
        e1 : int;
        e2 : int;
      }
    | Iload_bin of {
        (* fused Mload ; Mbin — part 2's load-use hazard is static in c2 *)
        d : dst;
        ad : daddr;
        ix : operand;
        c1 : int;
        rb1 : int;
        tf1 : bool;
        op : Ir.binop;
        d2 : dst;
        a : operand;
        b : operand;
        c2 : int;
        wb2 : int;
        tf2 : bool;
      }

  type dfunc = {
    df_entry : int;
    df_frame_words : int;
    df_prepaid : bool;  (** frame cost charged at entry (not shrink-wrapped) *)
    df_params : dst array;
  }

  type program = {
    p_code : dins array;  (** unfused; breakpoint and sampling runs *)
    p_plain : dins array;  (** with superinstructions; all other runs *)
    p_edges : int;  (** number of edge ids, [Array.length (edge_table bin)] *)
    p_ret_rank : int array;
        (** [p_ret_rank.(c + 1)]: rank of the call at [c] among the calls
            to its callee, in address order *)
    p_funcs : dfunc array;
    p_globals : (int * int) array;  (** size, init — in [bin_globals] order *)
    p_max_params : int;
    p_max_lanes : int;
  }

  let bit_of = function
    | Mach.Preg k ->
        if k < 0 || k >= nregs then raise Unsupported;
        1 lsl k
    | Mach.Pslot i ->
        if i < 0 || i > 47 then raise Unsupported;
        1 lsl (nregs + i)

  let bits locs = List.fold_left (fun acc l -> acc lor bit_of l) 0 locs

  (* The +1 frame-word charge of an operand, statically. *)
  let loc_cost = function Mach.Preg _ -> 0 | Mach.Pslot _ -> 1
  let val_cost = function Mach.Loc l -> loc_cost l | Mach.Cst _ -> 0

  let decode (bin : Emit.binary) : program =
    let funcs = bin.Emit.funcs in
    let code = bin.Emit.code in
    let len = Array.length code in
    (* Return edge ids assume control leaves a function only by call and
       return (then a return always goes back to a call site of its own
       function): every entry, fallthrough, jump and branch target stays
       in its function. The emitter guarantees it; check it anyway. *)
    let fn_at a = if a < 0 || a >= len then -1 else bin.Emit.fn_of_addr.(a) in
    let inside fx a = if fn_at a <> fx then raise Unsupported in
    Array.iteri (fun fx (fi : Emit.func_info) -> inside fx fi.Emit.fi_entry) funcs;
    for pc = 0 to len - 1 do
      let fx = fn_at pc in
      if fx >= 0 then
        match code.(pc) with
        | Emit.Eins _ -> inside fx (pc + 1)
        | Emit.Ejmp t -> inside fx t
        | Emit.Ecbr (_, t1, t2) ->
            inside fx t1;
            inside fx t2
        | Emit.Eret _ -> ()
    done;
    let edges, first, rank = edge_layout bin in
    let globals = Array.of_list bin.Emit.bin_globals in
    let gindex = Hashtbl.create 16 in
    (* Last definition wins, matching the reference core's
       [Hashtbl.replace] over the definition list. *)
    Array.iteri
      (fun i (g : Ir.global_def) -> Hashtbl.replace gindex g.Ir.g_name i)
      globals;
    let dfuncs =
      Array.map
        (fun (fi : Emit.func_info) ->
          let dw = fi.Emit.fi_data_words and fw = fi.Emit.fi_frame_words in
          let params =
            Array.of_list
              (List.map
                 (function
                   | Mach.Preg k ->
                       if k < 0 || k >= nregs then raise Unsupported;
                       Dreg k
                   | Mach.Pslot s ->
                       if s < 0 || s > 47 || dw + s >= fw then raise Unsupported;
                       Dslot (dw + s))
                 fi.Emit.fi_param_locs)
          in
          {
            df_entry = fi.Emit.fi_entry;
            df_frame_words = fw;
            df_prepaid = fi.Emit.fi_activation = None;
            df_params = params;
          })
        funcs
    in
    let max_params = ref 1 and max_lanes = ref 1 in
    Array.iter
      (fun df -> max_params := max !max_params (Array.length df.df_params))
      dfuncs;
    let dec pc =
      (* Frame context of the address. [fn_of_addr] can only be out of a
         function for padding that is never executed; any frame-relative
         operand there makes the binary unsupported. *)
      let fx = bin.Emit.fn_of_addr.(pc) in
      let dw, fw =
        if fx < 0 || fx >= Array.length funcs then (0, 0)
        else
          let fi = funcs.(fx) in
          (fi.Emit.fi_data_words, fi.Emit.fi_frame_words)
      in
      let dst_of = function
        | Mach.Preg k ->
            if k < 0 || k >= nregs then raise Unsupported;
            Dreg k
        | Mach.Pslot i ->
            if i < 0 || i > 47 || dw + i >= fw then raise Unsupported;
            Dslot (dw + i)
      in
      let op_of = function
        | Mach.Cst n -> Ocst n
        | Mach.Loc (Mach.Preg k) ->
            if k < 0 || k >= nregs then raise Unsupported;
            Oreg k
        | Mach.Loc (Mach.Pslot i) ->
            if i < 0 || i > 47 || dw + i >= fw then raise Unsupported;
            Oslot (dw + i)
      in
      (* Resolve a memory base; [Error msg] decodes to [Ifail msg] so the
         run raises exactly what the reference core raises on execution. *)
      let addr_of (a : Mach.maddr) =
        match a.Mach.mbase with
        | Mach.Mframe slot -> (
            let fi = funcs.(fx) in
            match
              List.find_opt
                (fun (id, _, _) -> id = slot)
                fi.Emit.fi_slot_offset
            with
            | Some (_, o, s) ->
                if o < 0 || s < 1 || o + s > fw then raise Unsupported;
                Ok (Aframe (o, s))
            | None -> Error "bad frame slot")
        | Mach.Mglobal g -> (
            match Hashtbl.find_opt gindex g with
            | Some i ->
                let size = globals.(i).Ir.g_size in
                if size < 1 then raise Unsupported;
                Ok (Aglobal (i, size))
            | None -> Error ("unknown global " ^ g))
      in
      match code.(pc) with
      | Emit.Eins mk -> (
          let rb = bits (Mach.reads mk) in
          let wb = bits (Mach.writes mk) in
          let tf = Mach.touches_frame mk in
          match mk with
          | Mach.Mbin (op, d, a, b) ->
              let extra =
                match op with Ir.Mul -> 2 | Ir.Div | Ir.Rem -> 9 | _ -> 0
              in
              Ibin
                {
                  op;
                  d = dst_of d;
                  a = op_of a;
                  b = op_of b;
                  c = 1 + extra + val_cost a + val_cost b + loc_cost d;
                  rb;
                  wb;
                  tf;
                }
          | Mach.Mun (op, d, a) ->
              Iun
                {
                  op;
                  d = dst_of d;
                  a = op_of a;
                  c = 1 + val_cost a + loc_cost d;
                  rb;
                  wb;
                  tf;
                }
          | Mach.Mmov (d, a) ->
              Imov
                {
                  d = dst_of d;
                  a = op_of a;
                  c = 1 + val_cost a + loc_cost d;
                  rb;
                  wb;
                  tf;
                }
          | Mach.Mload (d, a) -> (
              let ix = op_of a.Mach.mindex in
              let c = 4 + val_cost a.Mach.mindex + loc_cost d in
              match addr_of a with
              | Ok ad -> Iload { d = dst_of d; ad; ix; c; rb; wb; tf }
              | Error msg -> Ifail msg)
          | Mach.Mstore (a, v) -> (
              let ix = op_of a.Mach.mindex in
              let c = 4 + val_cost a.Mach.mindex + val_cost v in
              match addr_of a with
              | Ok ad -> Istore { ad; ix; v = op_of v; c; rb; tf }
              | Error msg -> Ifail msg)
          | Mach.Mcall (dst, f, args) -> (
              match Hashtbl.find_opt bin.Emit.fn_by_name f with
              | None -> Ifail ("call to unknown function " ^ f)
              | Some cx ->
                  let callee = dfuncs.(cx) in
                  let nparams = Array.length callee.df_params in
                  let srcs =
                    Array.init nparams (fun i ->
                        match List.nth_opt args i with
                        | Some v -> op_of v
                        | None -> Ocst 0)
                  in
                  let ret_mode, ret_idx =
                    match dst with
                    | None -> (0, 0)
                    | Some (Mach.Preg k) ->
                        if k < 0 || k >= nregs then raise Unsupported;
                        (1, k)
                    | Some (Mach.Pslot i) ->
                        if i < 0 || dw + i >= fw then raise Unsupported;
                        (2, dw + i)
                  in
                  let c =
                    1 + 9
                    + List.fold_left (fun acc v -> acc + val_cost v) 0 args
                    + (if callee.df_prepaid then callee.df_frame_words else 0)
                  in
                  Icall { fx = cx; srcs; ret_mode; ret_idx; c; rb; tf })
          | Mach.Minput d ->
              Iinput { d = dst_of d; c = 3 + loc_cost d; wb; tf }
          | Mach.Meof d -> Ieof { d = dst_of d; c = 1 + loc_cost d; wb; tf }
          | Mach.Moutput v ->
              Ioutput { v = op_of v; c = 3 + val_cost v; rb; tf }
          | Mach.Mselect (d, cnd, a, b) ->
              Iselect
                {
                  d = dst_of d;
                  cnd = op_of cnd;
                  a = op_of a;
                  b = op_of b;
                  xa = val_cost a;
                  xb = val_cost b;
                  c = 1 + val_cost cnd + loc_cost d;
                  rb;
                  wb;
                  tf;
                }
          | Mach.Mvec (op, lanes) ->
              let n = Array.length lanes in
              max_lanes := max !max_lanes n;
              let c =
                Array.fold_left
                  (fun acc (d, a, b) ->
                    acc + val_cost a + val_cost b + loc_cost d)
                  (1 + (n / 2))
                  lanes
              in
              Ivec
                {
                  op;
                  lanes =
                    Array.map
                      (fun (d, a, b) -> (dst_of d, op_of a, op_of b))
                      lanes;
                  c;
                  rb;
                  wb;
                  tf;
                }
          | Mach.Mdbg _ -> Inop)
      | Emit.Ejmp t ->
          Ijmp { t; c = (if t <> pc + 1 then 4 else 1); e = first.(pc) }
      | Emit.Ecbr (cnd, t1, t2) ->
          Icbr
            {
              cnd = op_of cnd;
              t1;
              t2;
              x1 = (if t1 <> pc + 1 then 3 else 0);
              x2 = (if t2 <> pc + 1 then 3 else 0);
              c = 1 + val_cost cnd;
              rb = bits (Mach.mval_reads cnd);
              e1 = (first.(pc) + if t1 > t2 then 1 else 0);
              e2 = (first.(pc) + if t2 > t1 then 1 else 0);
            }
      | Emit.Eret v ->
          let rv, rc =
            match v with
            | None -> (Ocst 0, 0)
            | Some x -> (op_of x, val_cost x)
          in
          Iret { v = rv; c = 2 + rc; e = first.(pc) }
    in
    let d_code = Array.init len dec in
    (* Superinstruction pass: fuse straight-line pairs on a copy. The
       second address keeps its unfused instruction so jumps into the
       middle of a pair still work, and the unfused array keeps the
       per-instruction breakpoint and sample semantics exact. *)
    let d_plain = Array.copy d_code in
    for pc = 0 to len - 2 do
      if bin.Emit.fn_of_addr.(pc) = bin.Emit.fn_of_addr.(pc + 1) then
        match (d_code.(pc), d_code.(pc + 1)) with
        | Ibin { op; d; a; b; c; rb; wb; tf }, Icbr cb ->
            (* Part 2's hazard is against part 1's writes exactly: +2
               when the branch condition reads the compare's result. *)
            let c2 = cb.c + (if cb.rb land wb <> 0 then 2 else 0) in
            d_plain.(pc) <-
              Icmp_cbr
                {
                  op;
                  d;
                  a;
                  b;
                  c1 = c;
                  rb;
                  tf;
                  cnd = cb.cnd;
                  t1 = cb.t1;
                  t2 = cb.t2;
                  x1 = cb.x1;
                  x2 = cb.x2;
                  c2;
                  e1 = cb.e1;
                  e2 = cb.e2;
                }
        | Iload { d; ad; ix; c; rb; wb; tf }, Ibin b2 ->
            (* Load-use: the consumer pays the 4-cycle penalty when it
               reads the load's destination. *)
            let c2 = b2.c + (if b2.rb land wb <> 0 then 4 else 0) in
            d_plain.(pc) <-
              Iload_bin
                {
                  d;
                  ad;
                  ix;
                  c1 = c;
                  rb1 = rb;
                  tf1 = tf;
                  op = b2.op;
                  d2 = b2.d;
                  a = b2.a;
                  b = b2.b;
                  c2;
                  wb2 = b2.wb;
                  tf2 = b2.tf;
                }
        | _ -> ()
    done;
    {
      p_code = d_code;
      p_plain = d_plain;
      p_edges = Array.length edges;
      p_ret_rank = rank;
      p_funcs = dfuncs;
      p_globals =
        Array.map (fun (g : Ir.global_def) -> (g.Ir.g_size, g.Ir.g_init)) globals;
      p_max_params = !max_params;
      p_max_lanes = !max_lanes;
    }
end

(** The pre-decoded execution core: flat {!Decode} arrays, an array-based
    frame stack (frame words, saved register windows and return records
    all live in growable flat arrays), and unsafe indexing everywhere a
    bound was established at decode time. A run starts its state at
    sizes that fit the minor heap and grows it on demand. One loop runs
    every kind of run: it counts edges and keeps the exact
    per-instruction breakpoint/sampler semantics of {!step}, and runs
    the fused code whenever a run asks for neither breakpoints nor
    samples. *)
module Fast = struct
  open Decode

  type fstate = {
    mutable stk : int array;  (** frame words of all live frames *)
    mutable fp : int;  (** current frame base in [stk] *)
    mutable sp : int;
    mutable depth : int;
    mutable f_ret_pc : int array;
    mutable f_ret_mode : int array;
    mutable f_ret_idx : int array;
    mutable f_fp : int array;
    mutable f_words : int array;
    mutable f_paid : bool array;
    mutable rsave : int array;  (** [nregs]-wide saved register windows *)
    regs : int array;
    g_mem : int array array;
    input : int array;
    mutable input_pos : int;
    mutable out_rev : int list;
    mutable cost : int;
    mutable icount : int;
    mutable last_bits : int;  (** write bitset of the previous instruction *)
    mutable hp : int;  (** hazard penalty of the previous writer: 2 or 4 *)
    mutable cur_paid : bool;  (** shrink-wrap charge state of the top frame *)
    mutable cur_words : int;
    mutable bp_hits_rev : int list;
    pscratch : int array;  (** call-argument staging, caller → callee *)
    vscratch : int array;  (** vector-lane staging, reads before writes *)
  }

  let ensure_stk st need =
    if need > Array.length st.stk then begin
      let n = ref (2 * Array.length st.stk) in
      while !n < need do
        n := !n * 2
      done;
      let a = Array.make !n 0 in
      Array.blit st.stk 0 a 0 st.sp;
      st.stk <- a
    end

  let grow_frames st =
    let n = Array.length st.f_ret_pc * 2 in
    let g a =
      let b = Array.make n 0 in
      Array.blit a 0 b 0 st.depth;
      b
    in
    st.f_ret_pc <- g st.f_ret_pc;
    st.f_ret_mode <- g st.f_ret_mode;
    st.f_ret_idx <- g st.f_ret_idx;
    st.f_fp <- g st.f_fp;
    st.f_words <- g st.f_words;
    let p = Array.make n false in
    Array.blit st.f_paid 0 p 0 st.depth;
    st.f_paid <- p;
    let r = Array.make (n * nregs) 0 in
    Array.blit st.rsave 0 r 0 (st.depth * nregs);
    st.rsave <- r

  (* Mirrors [enter_function]: registers are saved before parameter
     delivery (the caller reads arguments before this is called), the
     frame is zeroed, and the 9 + frame_words cost is part of the call
     instruction's static cost. *)
  let push_frame st (df : dfunc) ~ret_pc ~ret_mode ~ret_idx =
    let d = st.depth in
    if d = Array.length st.f_ret_pc then grow_frames st;
    Array.blit st.regs 0 st.rsave (d * nregs) nregs;
    st.f_ret_pc.(d) <- ret_pc;
    st.f_ret_mode.(d) <- ret_mode;
    st.f_ret_idx.(d) <- ret_idx;
    st.f_fp.(d) <- st.sp;
    st.f_words.(d) <- df.df_frame_words;
    if d > 0 then st.f_paid.(d - 1) <- st.cur_paid;
    ensure_stk st (st.sp + df.df_frame_words);
    Array.fill st.stk st.sp df.df_frame_words 0;
    st.fp <- st.sp;
    st.sp <- st.sp + df.df_frame_words;
    st.depth <- d + 1;
    st.cur_paid <- df.df_prepaid;
    st.cur_words <- df.df_frame_words

  let[@inline] rdo st o =
    match o with
    | Oreg k -> Array.unsafe_get st.regs k
    | Oslot i -> Array.unsafe_get st.stk (st.fp + i)
    | Ocst n -> n

  let[@inline] wrd st d v =
    match d with
    | Dreg k -> Array.unsafe_set st.regs k v
    | Dslot i -> Array.unsafe_set st.stk (st.fp + i) v

  let[@inline] wrap i s =
    let r = i mod s in
    if r < 0 then r + s else r

  let[@inline] charge st tf =
    if tf && not st.cur_paid then begin
      st.cur_paid <- true;
      st.cost <- st.cost + st.cur_words
    end

  let[@inline] haz st rb = if st.last_bits land rb <> 0 then st.hp else 0

  let[@inline] mem_get st ad idx =
    match ad with
    | Aframe (o, s) -> Array.unsafe_get st.stk (st.fp + o + wrap idx s)
    | Aglobal (g, s) ->
        Array.unsafe_get (Array.unsafe_get st.g_mem g) (wrap idx s)

  let[@inline] mem_set st ad idx v =
    match ad with
    | Aframe (o, s) -> Array.unsafe_set st.stk (st.fp + o + wrap idx s) v
    | Aglobal (g, s) ->
        Array.unsafe_set (Array.unsafe_get st.g_mem g) (wrap idx s) v

  (* The loop's three hooks. Each keeps the loop body small, which
     measurably speeds up the runs that use none of them: [bump] is a
     top-level function so that it inlines, the other two stay out of
     line. *)

  (* Count edge [e] (ids are bounded by the decoder's closure check). *)
  let[@inline] bump coverage counts e =
    if coverage then Array.unsafe_set counts e (Array.unsafe_get counts e + 1)

  (* A first-hit temporary breakpoint at [pc0], cleared when hit. *)
  let record_bp st bps pc0 =
    if bps.(pc0) then begin
      bps.(pc0) <- false;
      st.bp_hits_rev <- pc0 :: st.bp_hits_rev
    end

  (* The cost-driven sampler after instruction [ins], with [pc] the next
     address. It skips a call, exactly like the reference core's [Exit]
     shortcut skips the bottom of [step]. *)
  let sample st s ins pc =
    match ins with
    | Icall _ -> ()
    | _ ->
        while st.cost >= s.next_at do
          s.samples <- pc :: s.samples;
          s.next_at <-
            s.next_at + s.period + Util.Rng.int s.rng (max 1 (s.period / 8))
        done

  (* The one execution loop, for every kind of run. Breakpoints and
     samples need every instruction boundary, so they run the unfused
     code; every other run (plain or coverage-only) runs the fused
     code. *)
  let loop (p : program) st (opts : run_opts) sampler counts start =
    let breakpoints = opts.breakpoints in
    let code =
      match (breakpoints, sampler) with
      | None, None -> p.p_plain
      | _ -> p.p_code
    in
    let len = Array.length code in
    let funcs = p.p_funcs in
    let coverage = opts.coverage in
    let max_instrs = opts.max_instrs in
    let pc = ref start in
    let running = ref true in
    while !running do
      let pc0 = !pc in
      if pc0 < 0 || pc0 >= len then raise (Runtime_error "pc out of range");
      (match breakpoints with Some bps -> record_bp st bps pc0 | None -> ());
      st.icount <- st.icount + 1;
      if st.icount > max_instrs then raise Budget_exhausted;
      (match Array.unsafe_get code pc0 with
      | Ibin { op; d; a; b; c; rb; wb; tf } ->
          st.cost <- st.cost + c + haz st rb;
          charge st tf;
          wrd st d (Ir.eval_binop op (rdo st a) (rdo st b));
          st.last_bits <- wb;
          st.hp <- 2;
          pc := pc0 + 1
      | Iun { op; d; a; c; rb; wb; tf } ->
          st.cost <- st.cost + c + haz st rb;
          charge st tf;
          wrd st d (Ir.eval_unop op (rdo st a));
          st.last_bits <- wb;
          st.hp <- 2;
          pc := pc0 + 1
      | Imov { d; a; c; rb; wb; tf } ->
          st.cost <- st.cost + c + haz st rb;
          charge st tf;
          wrd st d (rdo st a);
          st.last_bits <- wb;
          st.hp <- 2;
          pc := pc0 + 1
      | Iload { d; ad; ix; c; rb; wb; tf } ->
          st.cost <- st.cost + c + haz st rb;
          charge st tf;
          wrd st d (mem_get st ad (rdo st ix));
          st.last_bits <- wb;
          st.hp <- 4;
          pc := pc0 + 1
      | Istore { ad; ix; v; c; rb; tf } ->
          st.cost <- st.cost + c + haz st rb;
          charge st tf;
          let value = rdo st v in
          mem_set st ad (rdo st ix) value;
          st.last_bits <- 0;
          st.hp <- 2;
          pc := pc0 + 1
      | Icall { fx; srcs; ret_mode; ret_idx; c; rb; tf } ->
          st.cost <- st.cost + c + haz st rb;
          charge st tf;
          let n = Array.length srcs in
          let ps = st.pscratch in
          for i = 0 to n - 1 do
            Array.unsafe_set ps i (rdo st (Array.unsafe_get srcs i))
          done;
          let df = Array.unsafe_get funcs fx in
          push_frame st df ~ret_pc:(pc0 + 1) ~ret_mode ~ret_idx;
          let params = df.df_params in
          for i = 0 to n - 1 do
            wrd st (Array.unsafe_get params i) (Array.unsafe_get ps i)
          done;
          st.last_bits <- 0;
          st.hp <- 2;
          pc := df.df_entry
      | Iinput { d; c; wb; tf } ->
          st.cost <- st.cost + c;
          charge st tf;
          let v =
            if st.input_pos < Array.length st.input then begin
              let v = Array.unsafe_get st.input st.input_pos in
              st.input_pos <- st.input_pos + 1;
              v
            end
            else 0
          in
          wrd st d v;
          st.last_bits <- wb;
          st.hp <- 2;
          pc := pc0 + 1
      | Ieof { d; c; wb; tf } ->
          st.cost <- st.cost + c;
          charge st tf;
          wrd st d (if st.input_pos >= Array.length st.input then 1 else 0);
          st.last_bits <- wb;
          st.hp <- 2;
          pc := pc0 + 1
      | Ioutput { v; c; rb; tf } ->
          st.cost <- st.cost + c + haz st rb;
          charge st tf;
          st.out_rev <- rdo st v :: st.out_rev;
          st.last_bits <- 0;
          st.hp <- 2;
          pc := pc0 + 1
      | Iselect { d; cnd; a; b; xa; xb; c; rb; wb; tf } ->
          st.cost <- st.cost + c + haz st rb;
          charge st tf;
          let v =
            if rdo st cnd <> 0 then begin
              st.cost <- st.cost + xa;
              rdo st a
            end
            else begin
              st.cost <- st.cost + xb;
              rdo st b
            end
          in
          wrd st d v;
          st.last_bits <- wb;
          st.hp <- 2;
          pc := pc0 + 1
      | Ivec { op; lanes; c; rb; wb; tf } ->
          st.cost <- st.cost + c + haz st rb;
          charge st tf;
          let n = Array.length lanes in
          let vs = st.vscratch in
          for i = 0 to n - 1 do
            let _, a, b = Array.unsafe_get lanes i in
            Array.unsafe_set vs i (Ir.eval_binop op (rdo st a) (rdo st b))
          done;
          for i = 0 to n - 1 do
            let d, _, _ = Array.unsafe_get lanes i in
            wrd st d (Array.unsafe_get vs i)
          done;
          st.last_bits <- wb;
          st.hp <- 2;
          pc := pc0 + 1
      | Inop ->
          st.cost <- st.cost + 1;
          st.last_bits <- 0;
          pc := pc0 + 1
      | Ijmp { t; c; e } ->
          st.cost <- st.cost + c;
          st.last_bits <- 0;
          bump coverage counts e;
          pc := t
      | Icbr { cnd; t1; t2; x1; x2; c; rb; e1; e2 } ->
          st.cost <- st.cost + c + haz st rb;
          let t, x, e = if rdo st cnd <> 0 then (t1, x1, e1) else (t2, x2, e2) in
          bump coverage counts e;
          st.cost <- st.cost + x;
          st.last_bits <- 0;
          st.hp <- 2;
          pc := t
      | Iret { v; c; e } ->
          st.cost <- st.cost + c;
          let value = rdo st v in
          let d = st.depth - 1 in
          Array.blit st.rsave (d * nregs) st.regs 0 nregs;
          st.sp <- st.f_fp.(d);
          st.depth <- d;
          if d = 0 then running := false
          else begin
            st.fp <- st.f_fp.(d - 1);
            st.cur_paid <- st.f_paid.(d - 1);
            st.cur_words <- st.f_words.(d - 1);
            (match st.f_ret_mode.(d) with
            | 1 -> Array.unsafe_set st.regs st.f_ret_idx.(d) value
            | 2 ->
                st.cost <- st.cost + 1;
                Array.unsafe_set st.stk (st.fp + st.f_ret_idx.(d)) value
            | _ -> ());
            let rp = st.f_ret_pc.(d) in
            bump coverage counts (e + Array.unsafe_get p.p_ret_rank rp);
            if rp <> pc0 + 1 then st.cost <- st.cost + 3;
            st.last_bits <- 0;
            st.hp <- 2;
            pc := rp
          end
      | Ifail msg -> raise (Runtime_error msg)
      | Icmp_cbr { op; d; a; b; c1; rb; tf; cnd; t1; t2; x1; x2; c2; e1; e2 } ->
          st.cost <- st.cost + c1 + haz st rb;
          charge st tf;
          wrd st d (Ir.eval_binop op (rdo st a) (rdo st b));
          st.icount <- st.icount + 1;
          if st.icount > max_instrs then raise Budget_exhausted;
          st.cost <- st.cost + c2;
          let t, x, e = if rdo st cnd <> 0 then (t1, x1, e1) else (t2, x2, e2) in
          bump coverage counts e;
          st.cost <- st.cost + x;
          st.last_bits <- 0;
          st.hp <- 2;
          pc := t
      | Iload_bin { d; ad; ix; c1; rb1; tf1; op; d2; a; b; c2; wb2; tf2 } ->
          st.cost <- st.cost + c1 + haz st rb1;
          charge st tf1;
          wrd st d (mem_get st ad (rdo st ix));
          st.icount <- st.icount + 1;
          if st.icount > max_instrs then raise Budget_exhausted;
          st.cost <- st.cost + c2;
          charge st tf2;
          wrd st d2 (Ir.eval_binop op (rdo st a) (rdo st b));
          st.last_bits <- wb2;
          st.hp <- 2;
          pc := pc0 + 2);
      match sampler with
      | Some s -> sample st s (Array.unsafe_get code pc0) !pc
      | None -> ()
    done

  let run (p : program) (bin : Emit.binary) ~entry ~args ~input
      (opts : run_opts) : result =
    (* Sized for the minor heap (every block under [Max_young_wosize]),
       grown by [ensure_stk] and [grow_frames] when a run goes deeper. *)
    let st =
      {
        stk = Array.make 128 0;
        fp = 0;
        sp = 0;
        depth = 0;
        f_ret_pc = Array.make 8 0;
        f_ret_mode = Array.make 8 0;
        f_ret_idx = Array.make 8 0;
        f_fp = Array.make 8 0;
        f_words = Array.make 8 0;
        f_paid = Array.make 8 false;
        rsave = Array.make (8 * nregs) 0;
        regs = Array.make nregs 0;
        g_mem = Array.map (fun (size, init) -> Array.make size init) p.p_globals;
        input = Array.of_list input;
        input_pos = 0;
        out_rev = [];
        cost = 0;
        icount = 0;
        last_bits = 0;
        hp = 2;
        cur_paid = true;
        cur_words = 0;
        bp_hits_rev = [];
        pscratch = Array.make p.p_max_params 0;
        vscratch = Array.make p.p_max_lanes 0;
      }
    in
    let fx =
      match Hashtbl.find_opt bin.Emit.fn_by_name entry with
      | Some i -> i
      | None -> raise (Runtime_error ("no entry function " ^ entry))
    in
    let df = p.p_funcs.(fx) in
    push_frame st df ~ret_pc:(-1) ~ret_mode:0 ~ret_idx:0;
    st.cost <- st.cost + 9 + (if df.df_prepaid then df.df_frame_words else 0);
    Array.iteri
      (fun i d ->
        let v = match List.nth_opt args i with Some v -> v | None -> 0 in
        wrd st d v)
      df.df_params;
    let sampler = make_sampler opts in
    let counts = if opts.coverage then Array.make p.p_edges 0 else [||] in
    let timed_out = ref false in
    (try loop p st opts sampler counts df.df_entry
     with Budget_exhausted -> timed_out := true);
    {
      output = List.rev st.out_rev;
      cost = st.cost;
      instrs = st.icount;
      edges = counts;
      bp_hits = List.rev st.bp_hits_rev;
      samples = (match sampler with Some s -> List.rev s.samples | None -> []);
      timed_out = !timed_out;
    }
end

(* The escape hatch is read once at module initialization: a process
   either trusts the fast core or pins everything to the reference one
   (the ci.sh conformance smoke diffs the two). *)
let use_reference =
  match Sys.getenv_opt "DEBUGTUNER_VM" with
  | Some "reference" -> true
  | _ -> false

(** Which core [run] dispatches to — mixed into oracle verdict keys so
    cached verdicts never cross cores. *)
let active_core () = if use_reference then "reference" else "fast"

(** A binary made ready to run: decoded for the fast core, or not
    decoded when the reference core runs it ([DEBUGTUNER_VM=reference],
    or a binary the decoder rejects). It carries its binary, whose line
    table and debug info a caller reads alongside the runs. A caller
    that runs one binary many times loads it once and drops it when it
    returns; nothing else holds it. *)
type loaded = { binary : Emit.binary; fast : Decode.program option }

(** Decode [bin] once, in a [vm:decode] span of its own carrying the
    binary's digest. *)
let load (bin : Emit.binary) : loaded =
  let fast =
    if use_reference then None
    else
      Obs.Span.wrap "vm:decode"
        ~args:[ ("binary", bin.Emit.full_digest) ]
        (fun () -> try Some (Decode.decode bin) with Decode.Unsupported -> None)
  in
  { binary = bin; fast }

let exec_unobserved l ~entry ~args ~input opts =
  match l.fast with
  | Some p -> Fast.run p l.binary ~entry ~args ~input opts
  | None -> Reference.run l.binary ~entry ~args ~input opts

(* The [Obs.enabled] guard keeps the disabled path free of the span
   machinery (and of the args-list allocation) — executions dominate
   every experiment's inner loop. *)
let exec (l : loaded) ~entry ?(args = []) ~input opts : result =
  if not (Obs.enabled ()) then exec_unobserved l ~entry ~args ~input opts
  else
    Obs.Span.wrap "vm:run"
      ~args:[ ("entry", entry) ]
      (fun () ->
        let r = exec_unobserved l ~entry ~args ~input opts in
        Obs.count "vm/runs";
        Obs.count ~n:r.instrs "vm/instrs";
        Obs.count ~n:r.cost "vm/cost";
        r)

(** One run of [bin]: {!load} then {!exec}, so the decode stays in its
    own span, before [vm:run] opens. *)
let run bin ~entry ?args ~input opts : result =
  exec (load bin) ~entry ?args ~input opts
