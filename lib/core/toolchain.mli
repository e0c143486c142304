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

val entry_effective : Config.t -> entry -> bool
(** The full behaviour-determining input of an entry under a
    configuration: its own enabled bit and, for gcc's gated inliners,
    the master "inline" bit their closures also read. Two same-family
    configurations agreeing on [entry_effective] of an entry execute it
    identically from identical state; agreeing on the raw
    {!Config.enabled} bit alone does not guarantee that. *)

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

    The IR phase is a resumable fold: a {!checkpoint} freezes its
    complete state (a deep {!Ir.Snapshot} of the program plus the
    accumulated backend options) at a pipeline index, and {!resume}
    replays only the suffix. Checkpoints are forkable — {!advance} and
    {!resume} never consume their input — so a sweep of configurations
    sharing a pipeline prefix compiles the prefix once. A resumed
    compilation is byte-identical ([Emit.binary.full_digest]) to a
    straight-line {!compile}; the sanitizer and [on_pass] instruments
    still fire at every boundary the suffix executes. *)

type checkpoint
(** Frozen IR-phase state before pipeline entry [index]; shares no
    mutable structure with any live compilation. *)

val checkpoint_index : checkpoint -> int
(** Pipeline entries [0, index) are already executed. *)

val checkpoint_bytes : checkpoint -> int
(** Approximate heap footprint of the underlying snapshot. *)

val checkpoint_digest : checkpoint -> string
(** Content digest of the snapshotted program
    ({!Ir.Snapshot.digest}) — iteration-order independent. *)

val checkpoint_opts : checkpoint -> Mach.opts
(** The accumulated backend options at the checkpoint. Together with
    {!checkpoint_digest} this is the complete compilation state: two
    same-family checkpoints at the same index with equal digests and
    equal options produce byte-identical binaries from any common
    suffix — the fact the sweep planner's no-op merging rests on. *)

val pipeline_length : Config.t -> int
(** Number of pipeline entries of the configuration's family (0 at O0). *)

val start :
  ?options:Options.t ->
  ?instrument:Instrument.t ->
  Minic.Ast.program ->
  config:Config.t ->
  roots:string list ->
  checkpoint
(** Lower, build SSA, and freeze the state before pipeline entry 0 —
    the root checkpoint shared by every configuration of the family. *)

val advance :
  ?options:Options.t ->
  ?instrument:Instrument.t ->
  upto:int ->
  checkpoint ->
  Config.t ->
  checkpoint
(** [advance ~upto cp config] forks [cp], executes entries
    [index, upto) under [config]'s pass gates, and freezes the result.
    When every entry in the slice is disabled the state cannot change,
    so the returned checkpoint shares [cp]'s snapshot (no copy is
    made). Raises [Invalid_argument] on a pipeline-family mismatch or
    [upto < index]. *)

val resume :
  ?options:Options.t ->
  ?instrument:Instrument.t ->
  from:checkpoint ->
  Config.t ->
  Emit.binary
(** [resume ~from config] replays pipeline entries [from.index, end)
    and finishes the compilation (backend, emission). Byte-identical to
    {!compile} whenever [from] holds the state [config]'s own pipeline
    reaches at [from]'s index: in particular whenever [from] was
    captured under configurations agreeing with [config] on
    {!entry_effective} of every entry before that index, and whenever
    an entry they disagree on left {!checkpoint_digest} and
    {!checkpoint_opts} unchanged (a no-op on this program). *)
