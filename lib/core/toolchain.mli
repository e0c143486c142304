(** The toolchain driver: MiniC source + configuration -> binary.

    This interface is the sanctioned surface: one options record, one
    instrument argument. Every observer of a compilation — the
    pass-boundary sanitizer, the [Obs] tracer, ad-hoc clients — runs
    through the same [Instrument.t] callback seam; there is no second
    hook path. *)

type profile = { line_counts : (int, int) Hashtbl.t; total_samples : int }
(** An AutoFDO profile: source-line -> sample count. Overrides the
    static branch-probability estimates and feeds callsite hotness
    (the paper's Section V-C setup). *)

module Options : sig
  (** Everything {!compile} accepts beyond the program itself. [None]
      fields mean "compiler-family default" (or, for [sanitize], the
      global [Sanitize.enabled] gate). *)
  type t = {
    profile : profile option;  (** AutoFDO profile *)
    entry_values : bool option;
        (** override entry-value emission (ablation hook) *)
    sched_keep_lines : bool option;
        (** override the scheduler's line retention (ablation hook) *)
    sanitize : bool option;
        (** validate every pass boundary; default: [!Sanitize.enabled] *)
  }

  val default : t
  val make :
    ?profile:profile ->
    ?entry_values:bool ->
    ?sched_keep_lines:bool ->
    ?sanitize:bool ->
    unit ->
    t
end

val compile :
  ?options:Options.t ->
  ?instrument:Instrument.t ->
  Minic.Ast.program ->
  config:Config.t ->
  roots:string list ->
  Emit.binary
(** [compile ?options ?instrument src ~config ~roots] produces a binary;
    [roots] lists entry functions that must survive (harness entries).
    The driver composes the sanitizer (when [options.sanitize] or the
    global gate asks for it), the [Obs] tracer (when a recording session
    is active) and the caller's [instrument] into one event stream:
    [on_phase_start]/[on_phase_end] bracket the ["ir"], ["backend"] and
    ["emit"] phases, and [on_pass] fires after lowering ("lower"), SSA
    construction ("mem2reg"), every enabled IR pass, each function's
    instruction selection ("isel") and machine passes, and emission
    ("emit"). Instruments are purely observational: the artifact is
    byte-for-byte identical whatever is attached. A sanitizer violation
    raises [Sanitize.Check_failed] naming the offending pass. *)

val compile_source :
  ?options:Options.t ->
  ?instrument:Instrument.t ->
  string ->
  config:Config.t ->
  roots:string list ->
  Emit.binary
(** Parse, typecheck and {!compile} a source string (the front-end gets
    its own [Obs] span when tracing is on). *)

(** {1 Pipeline inspection}

    The pass-table internals below are exposed for white-box clients
    (property tests replay the IR phase on hand-built environments).
    They are observers of pipeline {e structure}; driving a compilation
    still goes through {!compile}. *)

type env = {
  prog : Ir.program;
  roots : string list;
  mutable pure : string -> bool;
  profile : profile option;
  enabled : string -> bool;  (** pass-toggle lookup (master gates) *)
}
(** The mutable state an IR pass sees. *)

type entry =
  | Ir_pass of string * (env -> unit)
  | Backend_flag of string * (Mach.opts -> Mach.opts)

val entry_name : entry -> string

val pipeline : Config.t -> entry list
(** The level's pass table in execution order (both families). *)

val pass_names : Config.t -> string list
(** Names of the toggleable passes of a configuration's level, in
    pipeline order, deduplicated — the sweep set of Section V. *)

type ir_stats = {
  st_instrs : int;  (** real (non-debug) instructions *)
  st_blocks : int;
  st_bindings : int;  (** Dbg bindings with a live operand *)
  st_optimized_out : int;  (** Dbg bindings already lost *)
  st_lines : int;  (** distinct source lines still on instructions *)
}

val ir_stats_of : Ir.program -> ir_stats

val pipeline_trace :
  Minic.Ast.program ->
  config:Config.t ->
  roots:string list ->
  (string * ir_stats) list
(** Replay the IR phase of {!compile} and record the statistics after
    every executed pass — the [-fdump-tree-all] analog. The first row
    ("lower") is the freshly lowered program; "mem2reg" follows SSA
    construction; later rows carry the pipeline's pass names. Backend
    flags do not run at the IR level and are reported with unchanged
    statistics as ["<name> (backend)"] rows. Shares the one pipeline
    driver with {!compile} (one fold, two consumers). *)

(** {1 Incremental compilation}

    The IR phase of several configurations of one program, run as a
    walk over live {!state}s: the sweep planner
    ([Measure_engine.compile_sweep]) runs one {!prelude}, {!advance}s a
    state through each pipeline entry once for every configuration that
    runs it under the same behaviour key ({!slots}), forks a state where
    configurations disagree ({!capture}, {!restore}), compares forks by
    {!digest}, and {!finish}es each distinct backend once. Every call
    composes the instruments {!compile} does — the sanitizer when the
    global gate is on and the [Obs] tracer — so they fire at every
    boundary that runs. A binary finished from a state is byte-identical
    ([Emit.binary.full_digest]) to a straight {!compile} of the
    configuration whenever the state holds what the configuration's own
    pipeline reaches there. *)

val slots : Config.t -> (string * entry) option array
(** The configuration's pipeline aligned on its compiler's slot list:
    the compiler's O3 pipeline, which holds every level's pipeline as a
    subsequence by (name, occurrence). Slot [s] holds the behaviour key
    and entry the configuration's level runs there, or [None] where the
    level has none. A key is the entry's name, its occurrence among the
    pipeline's entries of that name (gcc runs [dce] twice), the
    parameters its closure was built with (the inliners' policies, the
    unroll factor) and, for gcc's gated inliners, whether the master
    ["inline"] switch they read is off. Two configurations that run an
    entry under one key from one state reach one state. The array is
    empty at O0. *)

val backend_inputs : Config.t -> Mach.opts * bool
(** What the backend reads of a configuration besides the program: its
    machine options (the compiler's always-on allocator flags and every
    enabled backend flag, folded) and whether entry values are emitted.
    Configurations that end the IR phase at one state with equal inputs
    get identical binaries. *)

type state
(** A live IR-phase state: a program and the purity predicate its
    passes computed. One walk owns it; {!capture} and {!restore} fork
    it. *)

type checkpoint
(** A frozen state: a deep {!Ir.Snapshot} sharing no mutable structure
    with any live state. *)

val prelude :
  Minic.Ast.program -> level:Config.level -> roots:string list -> state
(** Lower the program and, at any level but O0, build SSA and clean up:
    the state before pipeline entry 0, the same for every level but
    O0. *)

val advance : state -> Config.t -> entry list -> unit
(** Run the entries the configuration enables, in order, each followed
    by the inter-pass cleanup, under the configuration's gates. Backend
    flags leave the program alone. *)

val digest : state -> string
(** {!Ir.Snapshot.digest_program} of the state's program: an MD5 of the
    marshalled fields that {!Ir.fn_to_string} prints plus the ones it
    omits (entry label, fresh-name counters, purity and inline markers,
    slot array-ness, block frequencies, probabilities and
    predecessors, globals). Iteration-order independent; computed once
    between two passes that change the state. Two states with equal
    digests run every later pass alike. *)

val capture : state -> checkpoint
(** Freeze a copy of the state; the state stays live. *)

val checkpoint_bytes : checkpoint -> int
(** The heap bytes the capture's copy allocated, counted while it
    copied. *)

val restore : checkpoint -> state
(** A fresh live state holding the checkpoint's program. A checkpoint
    is never consumed: it restores any number of times. *)

val finish : state -> Config.t -> Emit.binary
(** Instruction selection, machine passes and emission under the
    configuration's {!backend_inputs}. Consumes the state: instruction
    selection rewrites its program. *)
