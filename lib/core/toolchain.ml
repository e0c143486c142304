(** The toolchain driver: MiniC source + configuration -> binary.

    Pipelines for the two compiler families are lists of named pass
    instances; disabling a name (the paper's setup, our OptPassGate
    analog) skips every instance carrying it. Backend behaviours
    (coalescing, scheduling, placement, …) are toggled through named
    flags folded into {!Mach.opts}.

    An optional AutoFDO profile (source-line -> sample count) overrides
    the static branch-probability estimates and feeds callsite hotness,
    reproducing the paper's Section V-C setup. *)

type profile = { line_counts : (int, int) Hashtbl.t; total_samples : int }

type env = {
  prog : Ir.program;
  roots : string list;
  mutable pure : string -> bool;
  profile : profile option;
  enabled : string -> bool;  (** pass-toggle lookup (master gates) *)
}

type entry =
  | Ir_pass of string * (env -> unit)
  | Backend_flag of string * (Mach.opts -> Mach.opts)

let entry_name = function Ir_pass (n, _) | Backend_flag (n, _) -> n

(* ------------------------------------------------------------------ *)
(* Profile annotation                                                  *)

(* Set block frequencies and branch probabilities from per-line sample
   counts. Blocks whose lines carry no samples get a small floor, so
   lost samples (debug-info holes in the profiling binary!) directly
   degrade the frequency picture. *)
let annotate_from_profile (prof : profile) (prog : Ir.program) =
  Hashtbl.iter
    (fun _ fn ->
      Ir.iter_blocks fn (fun b ->
          let count = ref 0 in
          List.iter
            (fun (i : Ir.instr) ->
              match i.Ir.line with
              | Some l ->
                  count :=
                    max !count
                      (Option.value ~default:0
                         (Hashtbl.find_opt prof.line_counts l))
              | None -> ())
            b.Ir.instrs;
          (match b.Ir.term_line with
          | Some l ->
              count :=
                max !count
                  (Option.value ~default:0 (Hashtbl.find_opt prof.line_counts l))
          | None -> ());
          b.Ir.freq <- float_of_int !count +. 0.01);
      (* Branch probabilities from successor frequencies, with
         hysteresis: near-balanced counts stay at 0.5 so sampling noise
         cannot flip block placement (AutoFDO's FS-discriminator
         smoothing plays the same role). *)
      Ir.iter_blocks fn (fun b ->
          match b.Ir.term with
          | Ir.Cbr (_, l1, l2) when l1 <> l2 ->
              let f1 = (Ir.block fn l1).Ir.freq
              and f2 = (Ir.block fn l2).Ir.freq in
              let total = f1 +. f2 in
              if total > 0.0 && abs_float (f1 -. f2) > 0.25 *. total then
                b.Ir.prob <- f1 /. total
              else b.Ir.prob <- 0.5
          | _ -> ()))
    prog.Ir.funcs

let apply_profile env =
  match env.profile with
  | Some prof -> annotate_from_profile prof env.prog
  | None -> ()

(* ------------------------------------------------------------------ *)
(* Pipeline definitions                                                *)

let inline_pass name policy =
  Ir_pass
    ( name,
      fun env ->
        ignore (Inline.run env.prog ~policy ~roots:env.roots);
        apply_profile env )

(* gcc's specific inlining toggles are all gated by the master [inline]
   switch (-fno-inline turns the inliner off wholesale). Every gated
   name is recorded so that [entry_effective] can expose the full
   behaviour-determining input of an entry to the sweep planner. *)
let gated_names : (string, unit) Hashtbl.t = Hashtbl.create 8

let gated_inline_pass name policy =
  Hashtbl.replace gated_names name ();
  Ir_pass
    ( name,
      fun env ->
        if env.enabled "inline" then begin
          ignore (Inline.run env.prog ~policy ~roots:env.roots);
          apply_profile env
        end )

let simple name f = Ir_pass (name, fun env -> f env.prog)

let gcc_pipeline (level : Config.level) : entry list =
  let base =
    [
      Ir_pass
        ( "ipa-pure-const",
          fun env ->
            Ipa_pure_const.run env.prog;
            env.pure <- Ipa_pure_const.pure_predicate env.prog );
      Ir_pass
        ( "guess-branch-probability",
          fun env ->
            Branch_prob.run_program env.prog;
            apply_profile env );
    ]
  in
  let inliners =
    match level with
    | Config.O0 -> []
    | Config.Og ->
        (* gcc -Og only inlines always_inline-style trivia; model as a
           present-but-idle toggle (it never reaches the top-10, as in
           the paper). *)
        [ inline_pass "inline" { Inline.policy_off with small_threshold = 1 } ]
    | Config.O1 ->
        [
          inline_pass "inline" { Inline.policy_off with small_threshold = 4 };
          gated_inline_pass "inline-fncs-called-once"
            { Inline.policy_off with called_once = true };
        ]
    | Config.O2 ->
        [
          inline_pass "inline" { Inline.policy_off with small_threshold = 8 };
          gated_inline_pass "inline-fncs-called-once"
            { Inline.policy_off with called_once = true };
          gated_inline_pass "inline-small-functions"
            { Inline.policy_off with small_threshold = 16 };
          gated_inline_pass "inline-functions"
            { Inline.policy_off with functions_threshold = 32 };
        ]
    | Config.O3 ->
        [
          inline_pass "inline" { Inline.policy_off with small_threshold = 8 };
          gated_inline_pass "inline-fncs-called-once"
            { Inline.policy_off with called_once = true };
          gated_inline_pass "inline-small-functions"
            { Inline.policy_off with small_threshold = 24 };
          gated_inline_pass "inline-functions"
            { Inline.policy_off with functions_threshold = 64 };
        ]
  in
  let scalar_cleanup =
    [
      simple "tree-ccp" Instcombine.run_program;
      simple "tree-forwprop" Instcombine.run_program;
      Ir_pass
        ( "tree-fre",
          fun env -> Cse.run_global_program ~pure_calls:env.pure env.prog );
      Ir_pass ("dce", fun env -> Dce.run_program ~pure_calls:env.pure env.prog);
    ]
  in
  let o1_extras =
    [
      simple "sra" Sroa.run_program;
      simple "tree-ch" Loop_rotate.run_program;
      simple "tree-loop-optimize" Licm.run_program;
      simple "tree-sink" Sink.run_program;
      Ir_pass
        ( "tree-dominator-opts",
          fun env ->
            Cse.run_global_program ~pure_calls:env.pure env.prog;
            Jump_threading.run_program env.prog );
      simple "tree-ter" Ter.run_program;
    ]
  in
  let o2_extras =
    [
      simple "tree-ivopts" (fun p ->
          Hashtbl.iter (fun _ fn -> ignore (Lsr.run fn)) p.Ir.funcs);
      simple "dse" (fun p -> ignore (Dse.run p));
      Ir_pass
        ( "expensive-opts",
          (* The -fexpensive-optimizations group: a second redundancy /
             sinking / dead-store round. *)
          fun env ->
            Cse.run_global_program ~pure_calls:env.pure env.prog;
            Sink.run_program env.prog;
            ignore (Dse.run env.prog) );
      simple "if-conversion" (fun p -> If_conversion.run_program p);
    ]
  in
  let o3_extras =
    [
      simple "cunroll" (fun p ->
          Hashtbl.iter (fun _ fn -> ignore (Loop_unroll.run fn ~factor:2)) p.Ir.funcs);
      simple "tree-slp-vectorize" Slp.run_program;
    ]
  in
  let late =
    [
      simple "thread-jumps" Jump_threading.run_program;
      Ir_pass ("dce", fun env -> Dce.run_program ~pure_calls:env.pure env.prog);
    ]
  in
  let backend_flags =
    [
      Backend_flag ("tree-coalesce-vars", fun o -> { o with Mach.coalesce = true });
      Backend_flag
        ("ira-share-spill-slots", fun o -> { o with Mach.share_spill_slots = true });
      Backend_flag ("shrink-wrap", fun o -> { o with Mach.shrink_wrap = true });
      Backend_flag ("reorder-blocks", fun o -> { o with Mach.place_blocks = true });
    ]
  in
  let o1_flags =
    [ Backend_flag ("toplevel-reorder", fun o -> { o with Mach.icf = true }) ]
  in
  let o2_flags =
    [
      Backend_flag ("schedule-insns2", fun o -> { o with Mach.schedule = true });
      Backend_flag ("crossjumping", fun o -> { o with Mach.tail_merge = true });
    ]
  in
  match level with
  | Config.O0 -> []
  | Config.Og -> base @ inliners @ scalar_cleanup @ late @ backend_flags
  | Config.O1 ->
      base @ inliners @ scalar_cleanup @ o1_extras @ late @ backend_flags
      @ o1_flags
  | Config.O2 ->
      base @ inliners @ scalar_cleanup @ o1_extras @ o2_extras @ late
      @ backend_flags @ o1_flags @ o2_flags
  | Config.O3 ->
      base @ inliners @ scalar_cleanup @ o1_extras @ o2_extras @ o3_extras
      @ late @ backend_flags @ o1_flags @ o2_flags

let clang_pipeline (level : Config.level) : entry list =
  let inliner threshold =
    inline_pass "Inliner" { Inline.policy_off with small_threshold = threshold }
  in
  let o1 =
    [
      simple "SROA" Sroa.run_program;
      simple "EarlyCSE" (fun p -> Cse.run_local_program p);
      simple "SimplifyCFG" Simplify_cfg.run_program;
      simple "InstCombine" Instcombine.run_program;
      (match level with
      | Config.O1 -> inliner 12
      | Config.O2 -> inliner 16
      | _ -> inliner 20);
      simple "LoopRotate" Loop_rotate.run_program;
      simple "LICM" Licm.run_program;
      simple "LoopStrengthReduce" (fun p ->
          Hashtbl.iter (fun _ fn -> ignore (Lsr.run fn)) p.Ir.funcs);
      simple "SimplifyCFG" Simplify_cfg.run_program;
      simple "InstCombine" Instcombine.run_program;
      simple "EarlyCSE" (fun p -> Cse.run_local_program p);
    ]
  in
  let o2 =
    [
      Ir_pass
        ( "GVN",
          fun env -> Cse.run_global_program ~pure_calls:env.pure env.prog );
      simple "JumpThreading" Jump_threading.run_program;
      simple "DSE" (fun p -> ignore (Dse.run p));
      simple "LoopUnroll" (fun p ->
          Hashtbl.iter (fun _ fn -> ignore (Loop_unroll.run fn ~factor:2)) p.Ir.funcs);
      simple "SimplifyCFG" Simplify_cfg.run_program;
    ]
  in
  let o3 =
    [
      simple "LoopUnroll" (fun p ->
          Hashtbl.iter (fun _ fn -> ignore (Loop_unroll.run fn ~factor:2)) p.Ir.funcs);
      simple "SLPVectorizer" Slp.run_program;
    ]
  in
  let dce_late =
    [
      Ir_pass ("ADCE", fun env -> Dce.run_program ~pure_calls:env.pure env.prog);
    ]
  in
  let purity =
    [
      Ir_pass
        ( "FunctionAttrs",
          fun env ->
            Ipa_pure_const.run env.prog;
            env.pure <- Ipa_pure_const.pure_predicate env.prog );
    ]
  in
  let machine_flags =
    [
      Backend_flag ("Machine code sinking", fun o -> { o with Mach.sink = true });
      Backend_flag
        ("Control Flow Optimizer", fun o -> { o with Mach.tail_merge = true });
      Backend_flag
        ("Branch Prob BB Placement", fun o -> { o with Mach.place_blocks = true });
      Backend_flag ("Machine Scheduler", fun o -> { o with Mach.schedule = true });
    ]
  in
  match level with
  | Config.O0 -> []
  | Config.Og | Config.O1 -> purity @ o1 @ dce_late @ machine_flags
  | Config.O2 -> purity @ o1 @ o2 @ dce_late @ machine_flags
  | Config.O3 -> purity @ o1 @ o2 @ o3 @ dce_late @ machine_flags

let pipeline (c : Config.t) =
  match c.Config.compiler with
  | Config.Gcc -> gcc_pipeline c.Config.level
  | Config.Clang -> clang_pipeline c.Config.level

(** Names of the toggleable passes of a configuration's level, in
    pipeline order, deduplicated — the sweep set of Section V. *)
let pass_names (c : Config.t) =
  let seen = Hashtbl.create 16 in
  List.filter_map
    (fun e ->
      let n = entry_name e in
      if Hashtbl.mem seen n then None
      else begin
        Hashtbl.replace seen n ();
        Some n
      end)
    (pipeline c)

(* ------------------------------------------------------------------ *)
(* Compilation                                                         *)

module Options = struct
  (** Everything [compile] accepts beyond the program itself, as one
      record (ablation hooks and the sanitizer gate included) — the
      replacement for the optional arguments that used to accrete on
      [compile]. [None] fields mean "compiler-family default" (or, for
      [sanitize], the global [Sanitize.enabled] gate). *)
  type t = {
    profile : profile option;  (** AutoFDO profile (Section V-C setup) *)
    entry_values : bool option;
        (** override entry-value emission (ablation hook) *)
    sched_keep_lines : bool option;
        (** override the scheduler's line retention (ablation hook) *)
    sanitize : bool option;
        (** validate every pass boundary; default: [!Sanitize.enabled] *)
  }

  let default =
    { profile = None; entry_values = None; sched_keep_lines = None; sanitize = None }

  let make ?profile ?entry_values ?sched_keep_lines ?sanitize () =
    { profile; entry_values; sched_keep_lines; sanitize }
end

(* ------------------------------------------------------------------ *)
(* The single pipeline driver

   Every consumer of the IR phase — [compile], [pipeline_trace], and
   the incremental [start]/[advance]/[resume] entry points — runs the
   same prelude and the same entry fold below, observing progress
   through one [notify] callback. There is deliberately no second copy
   of the fold anywhere: a driver change is a change for all consumers
   at once. *)

(** What the driver just did at one pipeline position. *)
type step =
  | Ran_pass of string  (** an [Ir_pass] executed (cleanup included) *)
  | Set_flag of string  (** a [Backend_flag] folded into the options *)
  | Skipped of string  (** the entry was disabled by the configuration *)

type ir_state = { st_env : env; mutable st_mach : Mach.opts }
(** The complete mutable state of the IR phase between two pipeline
    entries: the pass environment (program included) plus the backend
    options accumulated so far. Everything a snapshot must capture. *)

let compose_instruments ~sanitize instrument =
  Instrument.combine
    ((if sanitize then [ Sanitize.instrument () ] else [])
    @ (match Obs.pipeline_instrument () with Some i -> [ i ] | None -> [])
    @ if instrument == Instrument.nop then [] else [ instrument ])

let sanitize_of (options : Options.t) =
  Option.value ~default:!Sanitize.enabled options.Options.sanitize

(* The inter-pass cleanup, in a span of its own: a trace shows it as
   its own row instead of inside the pass before it. *)
let cleanup prog = Obs.Span.wrap "cleanup" (fun () -> Cleanup.run_program prog)

(* Run a slice of pipeline entries against the state, firing [notify]
   once per entry (executed or skipped). *)
let run_entries (state : ir_state) (config : Config.t)
    ~(notify : Ir.program -> step -> unit) entries =
  List.iter
    (fun e ->
      match e with
      | Ir_pass (name, f) when Config.enabled config name ->
          f state.st_env;
          cleanup state.st_env.prog;
          notify state.st_env.prog (Ran_pass name)
      | Backend_flag (name, f) when Config.enabled config name ->
          state.st_mach <- f state.st_mach;
          notify state.st_env.prog (Set_flag name)
      | e -> notify state.st_env.prog (Skipped (entry_name e)))
    entries

(* Lowering and SSA construction — everything that runs before pipeline
   entry 0, whatever the configuration's disabled set. *)
let ir_prelude (options : Options.t) src ~(config : Config.t) ~roots ~notify =
  let prog = Lower.lower_program src in
  let env =
    {
      prog;
      roots;
      pure = (fun _ -> false);
      profile = options.Options.profile;
      enabled = Config.enabled config;
    }
  in
  (* The freshly lowered program routes merges through slots; the
     sanitizer's "lower" boundary skips the dominance check. *)
  notify prog (Ran_pass "lower");
  let state = { st_env = env; st_mach = Mach.opts_o0 } in
  if config.Config.level <> Config.O0 then begin
    (* into-ssa: neither compiler lets you opt out of SSA
       construction. *)
    Hashtbl.iter (fun _ fn -> Mem2reg.run fn) prog.Ir.funcs;
    cleanup prog;
    notify prog (Ran_pass "mem2reg");
    (* clang's register allocator always coalesces and shares stack
       slots and shrink-wraps; gcc exposes these as flags. *)
    (if config.Config.compiler = Config.Clang then
       state.st_mach <-
         {
           state.st_mach with
           Mach.coalesce = true;
           share_spill_slots = true;
           shrink_wrap = true;
           sched_keep_lines = true;
         });
    apply_profile env
  end;
  state

(* The whole IR phase: prelude, every pipeline entry, final profile
   re-annotation. *)
let ir_phase (options : Options.t) src ~(config : Config.t) ~roots ~notify =
  let state = ir_prelude options src ~config ~roots ~notify in
  if config.Config.level <> Config.O0 then begin
    run_entries state config ~notify (pipeline config);
    apply_profile state.st_env
  end;
  state

(* Instruction selection, machine passes and emission from a finished
   IR-phase state. *)
let backend_emit inst (options : Options.t) ~(config : Config.t)
    (state : ir_state) : Emit.binary =
  let prog = state.st_env.prog in
  let mfuncs =
    Instrument.phase inst "backend" (fun () ->
        (* Emission order: source order (our toplevel-reorder only gates
           ICF, which the emitter applies when the flag is on). *)
        let fns =
          Hashtbl.fold (fun _ fn acc -> fn :: acc) prog.Ir.funcs []
          |> List.sort (fun (a : Ir.fn) b ->
                 compare (a.Ir.f_line, a.Ir.f_name) (b.Ir.f_line, b.Ir.f_name))
        in
        (* Ablation hook: force the scheduler's line-retention behaviour
           (gcc's scheduler strips displaced lines, clang's keeps them)
           independently of the compiler family. *)
        (match options.Options.sched_keep_lines with
        | Some v -> state.st_mach <- { state.st_mach with Mach.sched_keep_lines = v }
        | None -> ());
        List.map
          (fun fn ->
            let m = Isel.translate_fn fn state.st_mach in
            inst.Instrument.on_pass "isel" (Instrument.Mach_fn m);
            List.iter
              (fun (name, pass) ->
                pass m;
                inst.Instrument.on_pass name (Instrument.Mach_fn m))
              (Mach_passes.passes state.st_mach);
            m)
          fns)
  in
  let entry_values =
    match options.Options.entry_values with
    | Some v -> v
    | None ->
        config.Config.compiler = Config.Gcc && config.Config.level <> Config.O0
  in
  Instrument.phase inst "emit" (fun () ->
      let bin =
        Emit.emit ~icf:state.st_mach.Mach.icf ~entry_values
          { Mach.mfuncs; mglobals = prog.Ir.prog_globals }
      in
      inst.Instrument.on_pass "emit" (Instrument.Binary bin);
      bin)

(* [notify] hook that forwards executed IR boundaries to an
   instrument. *)
let notify_on_pass inst prog = function
  | Ran_pass name -> inst.Instrument.on_pass name (Instrument.Ir_program prog)
  | Set_flag _ | Skipped _ -> ()

(** [compile ?options ?instrument src ~config ~roots] produces a binary.
    [roots] lists entry functions that must survive (harness entries).

    All observers run through the single {!Instrument.t} seam: the
    driver composes (in order) the sanitizer (when
    [options.sanitize] / the global gate asks for it), the {!Obs} tracer
    (when a recording session is active), and the caller's [instrument].
    Instruments are purely observational — the artifact is byte-for-byte
    identical whatever is attached. A sanitizer violation raises
    [Sanitize.Check_failed] naming the offending pass. *)
let compile ?(options = Options.default) ?(instrument = Instrument.nop)
    (src : Minic.Ast.program) ~(config : Config.t) ~roots : Emit.binary =
  let inst = compose_instruments ~sanitize:(sanitize_of options) instrument in
  let state =
    Instrument.phase inst "ir" (fun () ->
        ir_phase options src ~config ~roots ~notify:(notify_on_pass inst))
  in
  backend_emit inst options ~config state

(* ------------------------------------------------------------------ *)
(* Incremental compilation: checkpoints of the IR phase

   A checkpoint freezes the complete IR-phase state at a pipeline
   index: a deep [Ir.Snapshot] of the program plus the accumulated
   backend options. [resume] replays only the pipeline suffix — the
   sanitizer and [Instrument.on_pass] still fire at every boundary it
   executes — and must produce a binary byte-identical
   ([Emit.binary.full_digest]) to a straight-line [compile] of the same
   configuration; the unit and property tests gate exactly that.

   Soundness of sharing one checkpoint between configurations: entry
   [j]'s behaviour depends on the IR state, on [Config.enabled] of its
   own name, and (for gcc's gated inliners) on [Config.enabled
   "inline"] — whose entry always precedes the gated ones in the
   pipeline list. So two configurations that agree on {!entry_effective}
   of entries [0..k) run byte-identical prefixes (see DESIGN.md
   "Incremental compilation"). *)

type checkpoint = {
  cp_snapshot : Ir.Snapshot.t;
  cp_index : int;  (** pipeline entries [0, cp_index) already executed *)
  cp_mach : Mach.opts;
  cp_compiler : Config.compiler;
  cp_level : Config.level;
  cp_roots : string list;
}

let checkpoint_index cp = cp.cp_index
let checkpoint_bytes cp = Ir.Snapshot.size_bytes cp.cp_snapshot
let checkpoint_digest cp = Ir.Snapshot.digest cp.cp_snapshot
let checkpoint_opts cp = cp.cp_mach

let pipeline_length (config : Config.t) = List.length (pipeline config)

(** The full behaviour-determining input of entry [e] under [config]:
    its own enabled bit and, for gcc's gated inliners, the master
    "inline" bit their closures read ([gated_names]). Two same-family
    configurations agreeing on [entry_effective] of an entry execute it
    identically from identical state — the planner's merge walk keys on
    this, not on the raw bit, so it never shares across the one
    cross-entry dependency. *)
let entry_effective (config : Config.t) e =
  let name = entry_name e in
  Config.enabled config name
  && ((not (Hashtbl.mem gated_names name)) || Config.enabled config "inline")

let capture_checkpoint index (state : ir_state) ~(config : Config.t) ~roots =
  {
    cp_snapshot = Ir.Snapshot.capture state.st_env.prog;
    cp_index = index;
    cp_mach = state.st_mach;
    cp_compiler = config.Config.compiler;
    cp_level = config.Config.level;
    cp_roots = roots;
  }

let check_family (cp : checkpoint) (config : Config.t) what =
  if cp.cp_compiler <> config.Config.compiler || cp.cp_level <> config.Config.level
  then invalid_arg (what ^ ": checkpoint belongs to another pipeline family")

(* Rebuild a live IR-phase state from a checkpoint. The purity
   predicate is reconstructed from the restored program itself:
   [Ipa_pure_const.pure_predicate] reads the [is_pure] flags, which are
   snapshot state — before the purity pass ever ran they are all false,
   which is exactly the initial predicate. *)
let restore_state (options : Options.t) (cp : checkpoint) ~(config : Config.t) =
  let prog = Ir.Snapshot.restore cp.cp_snapshot in
  let env =
    {
      prog;
      roots = cp.cp_roots;
      pure = Ipa_pure_const.pure_predicate prog;
      profile = options.Options.profile;
      enabled = Config.enabled config;
    }
  in
  { st_env = env; st_mach = cp.cp_mach }

let entries_slice (config : Config.t) lo hi =
  List.filteri (fun i _ -> i >= lo && i < hi) (pipeline config)

(** [start src config] runs lowering and SSA construction and freezes
    the state before pipeline entry 0 — the root checkpoint every
    prefix of [config]'s family shares. *)
let start ?(options = Options.default) ?(instrument = Instrument.nop)
    (src : Minic.Ast.program) ~(config : Config.t) ~roots : checkpoint =
  let inst = compose_instruments ~sanitize:(sanitize_of options) instrument in
  let state =
    Instrument.phase inst "ir" (fun () ->
        ir_prelude options src ~config ~roots ~notify:(notify_on_pass inst))
  in
  capture_checkpoint 0 state ~config ~roots

(** [advance ~upto cp config] forks the checkpoint, executes pipeline
    entries [cp.index, upto) under [config]'s gates, and freezes the
    result. The input checkpoint is not consumed: advancing is how the
    sweep planner grows a trunk while keeping every divergence point
    alive. *)
let advance ?(options = Options.default) ?(instrument = Instrument.nop)
    ~(upto : int) (cp : checkpoint) (config : Config.t) : checkpoint =
  check_family cp config "Toolchain.advance";
  if upto < cp.cp_index then
    invalid_arg "Toolchain.advance: upto precedes the checkpoint";
  let entries = entries_slice config cp.cp_index upto in
  if
    not
      (List.exists (fun e -> Config.enabled config (entry_name e)) entries)
  then
    (* Every entry in the slice is disabled: nothing would execute, so
       the state is unchanged — share the snapshot instead of paying a
       restore + capture round trip just to bump the index. *)
    { cp with cp_index = upto }
  else begin
    let inst = compose_instruments ~sanitize:(sanitize_of options) instrument in
    let state = restore_state options cp ~config in
    Instrument.phase inst "ir" (fun () ->
        run_entries state config ~notify:(notify_on_pass inst) entries);
    capture_checkpoint upto state ~config ~roots:cp.cp_roots
  end

(** [resume ~from config] replays only the pipeline suffix
    [from.index, end) and finishes the compilation (backend and
    emission included). Byte-identical to [compile] of the same
    configuration whenever [from] holds the state [config]'s own
    pipeline reaches at [from]'s index — in particular whenever [from]
    was captured under configurations agreeing with [config] on
    {!entry_effective} of every entry before that index. *)
let resume ?(options = Options.default) ?(instrument = Instrument.nop)
    ~(from : checkpoint) (config : Config.t) : Emit.binary =
  check_family from config "Toolchain.resume";
  let inst = compose_instruments ~sanitize:(sanitize_of options) instrument in
  let state = restore_state options from ~config in
  Instrument.phase inst "ir" (fun () ->
      if config.Config.level <> Config.O0 then begin
        run_entries state config ~notify:(notify_on_pass inst)
          (entries_slice config from.cp_index (pipeline_length config));
        apply_profile state.st_env
      end);
  backend_emit inst options ~config state

(* ------------------------------------------------------------------ *)
(* Pipeline tracing                                                    *)

type ir_stats = {
  st_instrs : int;  (** real (non-debug) instructions *)
  st_blocks : int;
  st_bindings : int;  (** Dbg bindings with a live operand *)
  st_optimized_out : int;  (** Dbg bindings already lost *)
  st_lines : int;  (** distinct source lines still on instructions *)
}

let ir_stats_of (prog : Ir.program) =
  let instrs = ref 0 and blocks = ref 0 in
  let bindings = ref 0 and dead = ref 0 in
  let lines = Hashtbl.create 64 in
  Hashtbl.iter
    (fun _ fn ->
      Ir.iter_blocks fn (fun b ->
          incr blocks;
          (match b.Ir.term_line with
          | Some l -> Hashtbl.replace lines l ()
          | None -> ());
          List.iter
            (fun (i : Ir.instr) ->
              match i.Ir.ik with
              | Ir.Dbg (_, Some _) -> incr bindings
              | Ir.Dbg (_, None) -> incr dead
              | _ ->
                  incr instrs;
                  (match i.Ir.line with
                  | Some l -> Hashtbl.replace lines l ()
                  | None -> ()))
            b.Ir.instrs))
    prog.Ir.funcs;
  {
    st_instrs = !instrs;
    st_blocks = !blocks;
    st_bindings = !bindings;
    st_optimized_out = !dead;
    st_lines = Hashtbl.length lines;
  }

(** [pipeline_trace src ~config ~roots] replays the IR phase of
    {!compile} and records the statistics after every executed pass —
    the [-fdump-tree-all] analog, showing where instructions, debug
    bindings and line attributions go. The first row ("lower") is the
    freshly lowered program; "mem2reg" follows SSA construction; later
    rows carry the pipeline's pass names. Backend flags do not run at
    the IR level and are reported with unchanged statistics. *)
let pipeline_trace (src : Minic.Ast.program) ~(config : Config.t) ~roots :
    (string * ir_stats) list =
  (* One more consumer of the single driver: same prelude, same entry
     fold as [compile] — the trace can never drift from what [compile]
     executes because there is no second fold to drift. *)
  let steps = ref [] in
  let notify prog = function
    | Ran_pass name -> steps := (name, ir_stats_of prog) :: !steps
    | Set_flag name -> steps := (name ^ " (backend)", ir_stats_of prog) :: !steps
    | Skipped _ -> ()
  in
  ignore (ir_phase Options.default src ~config ~roots ~notify : ir_state);
  List.rev !steps

(** Convenience: parse, check and compile a source string. The
    front-end gets its own span when tracing is on. *)
let compile_source ?options ?instrument source ~config ~roots =
  let ast =
    Obs.Span.wrap "frontend" (fun () -> Minic.Typecheck.parse_and_check source)
  in
  compile ?options ?instrument ast ~config ~roots
