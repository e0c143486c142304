(** The toolchain's instrumentation seam.

    [Toolchain.compile] reports its progress through exactly one
    interface — this one. Every observer (the pass-boundary sanitizer,
    the {!Obs} tracer, ad-hoc clients) implements the same three
    callbacks, and the driver composes them with {!combine}; there is no
    second hook path anywhere in the pipeline.

    - [on_phase_start name] / [on_phase_end name] bracket the coarse
      driver phases (["ir"], ["backend"], ["emit"]); always balanced,
      including on exceptions (see {!phase});
    - [on_pass name scope] fires {e after} each executed pass with the
      program object the pass just transformed — the whole IR program at
      an IR boundary, one machine function at a machine boundary, the
      finished binary after emission.

    Callbacks must be purely observational: the driver guarantees
    byte-identical artifacts whether or not any instrument is attached,
    which holds only as long as no callback mutates its scope. *)

type scope =
  | Ir_program of Ir.program  (** IR pass boundary (whole program) *)
  | Mach_fn of Mach.mfn  (** machine pass boundary (one function) *)
  | Binary of Emit.binary  (** after emission *)

type t = {
  on_phase_start : string -> unit;
  on_phase_end : string -> unit;
  on_pass : string -> scope -> unit;
}

let nop =
  {
    on_phase_start = (fun _ -> ());
    on_phase_end = (fun _ -> ());
    on_pass = (fun _ _ -> ());
  }

(** Fan one stream of events out to several observers, in list order. *)
let combine = function
  | [] -> nop
  | [ t ] -> t
  | ts ->
      {
        on_phase_start = (fun n -> List.iter (fun i -> i.on_phase_start n) ts);
        on_phase_end = (fun n -> List.iter (fun i -> i.on_phase_end n) ts);
        on_pass = (fun n s -> List.iter (fun i -> i.on_pass n s) ts);
      }

(** [phase t name f] runs [f] bracketed by [on_phase_start]/[_end];
    the end event fires even when [f] raises, so phase events always
    balance. *)
let phase t name f =
  t.on_phase_start name;
  Fun.protect ~finally:(fun () -> t.on_phase_end name) f

(* ------------------------------------------------------------------ *)
(* Debug-info-aware size counts of a scope, for per-pass profiles      *)

(** What a profiler wants to difference across a pass: code size, CFG
    size, and the two debug-info coverage axes the paper measures (how
    many distinct source lines survive on instructions, how many
    variables are still tracked). *)
type counts = {
  c_instrs : int;  (** real (non-debug) instructions *)
  c_blocks : int;
  c_lines : int;  (** distinct source lines still attributed *)
  c_vars : int;  (** distinct tracked variables *)
}

let zero_counts = { c_instrs = 0; c_blocks = 0; c_lines = 0; c_vars = 0 }

let sub_counts a b =
  {
    c_instrs = a.c_instrs - b.c_instrs;
    c_blocks = a.c_blocks - b.c_blocks;
    c_lines = a.c_lines - b.c_lines;
    c_vars = a.c_vars - b.c_vars;
  }

(* The IR counting must agree exactly with [Toolchain.ir_stats_of]
   (instrs exclude Dbg; the line set takes terminator lines plus
   non-debug instruction lines) so per-pass deltas telescope to the
   whole-compile deltas reported by [pipeline_trace]. *)
let counts_of_ir (prog : Ir.program) =
  let instrs = ref 0 and blocks = ref 0 in
  let lines = Hashtbl.create 64 and vars = Hashtbl.create 16 in
  let add_var v = Hashtbl.replace vars (Ir.var_to_string v) () in
  Hashtbl.iter
    (fun _ (fn : Ir.fn) ->
      List.iter (fun (_, v) -> add_var v) fn.Ir.f_params;
      List.iter
        (fun (s : Ir.slot) -> Option.iter add_var s.Ir.s_var)
        fn.Ir.f_slots;
      Ir.iter_blocks fn (fun b ->
          incr blocks;
          (match b.Ir.term_line with
          | Some l -> Hashtbl.replace lines l ()
          | None -> ());
          List.iter
            (fun (i : Ir.instr) ->
              match i.Ir.ik with
              | Ir.Dbg (v, _) -> add_var v
              | _ -> (
                  incr instrs;
                  match i.Ir.line with
                  | Some l -> Hashtbl.replace lines l ()
                  | None -> ()))
            b.Ir.instrs))
    prog.Ir.funcs;
  {
    c_instrs = !instrs;
    c_blocks = !blocks;
    c_lines = Hashtbl.length lines;
    c_vars = Hashtbl.length vars;
  }

let counts_of_mach (m : Mach.mfn) =
  let instrs = ref 0 in
  let lines = Hashtbl.create 32 and vars = Hashtbl.create 16 in
  let add_line = function
    | Some l -> Hashtbl.replace lines l ()
    | None -> ()
  in
  let add_var v = Hashtbl.replace vars (Ir.var_to_string v) () in
  List.iter
    (fun (s : Mach.frame_slot) -> Option.iter add_var s.Mach.fs_var)
    m.Mach.mf_frame;
  Ir.Label_store.iter
    (fun _ (b : Mach.mblock) ->
      add_line b.Mach.mterm_line;
      List.iter
        (fun (i : Mach.minstr) ->
          match i.Mach.mk with
          | Mach.Mdbg (v, _) -> add_var v
          | _ ->
              incr instrs;
              add_line i.Mach.mline)
        b.Mach.mins)
    m.Mach.mf_blocks;
  {
    c_instrs = !instrs;
    c_blocks = List.length m.Mach.mf_layout;
    c_lines = Hashtbl.length lines;
    c_vars = Hashtbl.length vars;
  }

let counts_of_binary (bin : Emit.binary) =
  let lines = Hashtbl.create 64 in
  Array.iter
    (function Some l -> Hashtbl.replace lines l () | None -> ())
    bin.Emit.line_of;
  let vars = Hashtbl.create 16 in
  List.iter
    (fun (vi : Dwarfish.var_info) ->
      Hashtbl.replace vars (Ir.var_to_string vi.Dwarfish.vi_var) ())
    bin.Emit.debug.Dwarfish.vars;
  {
    c_instrs = Array.length bin.Emit.code;
    c_blocks = Array.length bin.Emit.funcs;
    c_lines = Hashtbl.length lines;
    c_vars = Hashtbl.length vars;
  }

let counts_of_scope = function
  | Ir_program p -> counts_of_ir p
  | Mach_fn m -> counts_of_mach m
  | Binary b -> counts_of_binary b
