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

(* A pipeline position as defined: the entry, the parameters its
   closure was built with, and whether the closure also reads the
   master [inline] switch — what the entry's behaviour key carries
   ([slots]). *)
type defn = { d_entry : entry; d_params : string Lazy.t; d_gated : bool }

(* Parameters are printed only where a key is built: pipelines are
   rebuilt on every compile. *)
let defn ?(params = lazy "") ?(gated = false) entry =
  { d_entry = entry; d_params = params; d_gated = gated }

let ir_pass name f = defn (Ir_pass (name, f))
let simple name f = ir_pass name (fun env -> f env.prog)
let flag name f = defn (Backend_flag (name, f))

let policy_params (p : Inline.policy) =
  Printf.sprintf "once=%b,small=%d,functions=%d,caller=%d,rounds=%d"
    p.Inline.called_once p.Inline.small_threshold p.Inline.functions_threshold
    p.Inline.max_caller_size p.Inline.rounds

let inline_pass name policy =
  defn ~params:(lazy (policy_params policy))
    (Ir_pass
       ( name,
         fun env ->
           ignore (Inline.run env.prog ~policy ~roots:env.roots);
           apply_profile env ))

(* gcc's specific inlining toggles are all gated by the master [inline]
   switch (-fno-inline turns the inliner off wholesale). *)
let gated_inline_pass name policy =
  defn ~params:(lazy (policy_params policy)) ~gated:true
    (Ir_pass
       ( name,
         fun env ->
           if env.enabled "inline" then begin
             ignore (Inline.run env.prog ~policy ~roots:env.roots);
             apply_profile env
           end ))

let unroll name =
  defn ~params:(lazy "factor=2")
    (Ir_pass
       ( name,
         fun env ->
           Hashtbl.iter
             (fun _ fn -> ignore (Loop_unroll.run fn ~factor:2))
             env.prog.Ir.funcs ))

let gcc_defined (level : Config.level) =
  let base =
    [
      ir_pass "ipa-pure-const" (fun env ->
          Ipa_pure_const.run env.prog;
          env.pure <- Ipa_pure_const.pure_predicate env.prog);
      ir_pass "guess-branch-probability" (fun env ->
          Branch_prob.run_program env.prog;
          apply_profile env);
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
      ir_pass "tree-fre" (fun env ->
          Cse.run_global_program ~pure_calls:env.pure env.prog);
      ir_pass "dce" (fun env -> Dce.run_program ~pure_calls:env.pure env.prog);
    ]
  in
  let o1_extras =
    [
      simple "sra" Sroa.run_program;
      simple "tree-ch" Loop_rotate.run_program;
      simple "tree-loop-optimize" Licm.run_program;
      simple "tree-sink" Sink.run_program;
      ir_pass "tree-dominator-opts" (fun env ->
          Cse.run_global_program ~pure_calls:env.pure env.prog;
          Jump_threading.run_program env.prog);
      simple "tree-ter" Ter.run_program;
    ]
  in
  let o2_extras =
    [
      simple "tree-ivopts" (fun p ->
          Hashtbl.iter (fun _ fn -> ignore (Lsr.run fn)) p.Ir.funcs);
      simple "dse" (fun p -> ignore (Dse.run p));
      (* The -fexpensive-optimizations group: a second redundancy /
         sinking / dead-store round. *)
      ir_pass "expensive-opts" (fun env ->
          Cse.run_global_program ~pure_calls:env.pure env.prog;
          Sink.run_program env.prog;
          ignore (Dse.run env.prog));
      simple "if-conversion" (fun p -> If_conversion.run_program p);
    ]
  in
  let o3_extras =
    [ unroll "cunroll"; simple "tree-slp-vectorize" Slp.run_program ]
  in
  let late =
    [
      simple "thread-jumps" Jump_threading.run_program;
      ir_pass "dce" (fun env -> Dce.run_program ~pure_calls:env.pure env.prog);
    ]
  in
  let backend_flags =
    [
      flag "tree-coalesce-vars" (fun o -> { o with Mach.coalesce = true });
      flag "ira-share-spill-slots" (fun o ->
          { o with Mach.share_spill_slots = true });
      flag "shrink-wrap" (fun o -> { o with Mach.shrink_wrap = true });
      flag "reorder-blocks" (fun o -> { o with Mach.place_blocks = true });
    ]
  in
  let o1_flags =
    [ flag "toplevel-reorder" (fun o -> { o with Mach.icf = true }) ]
  in
  let o2_flags =
    [
      flag "schedule-insns2" (fun o -> { o with Mach.schedule = true });
      flag "crossjumping" (fun o -> { o with Mach.tail_merge = true });
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

let clang_defined (level : Config.level) =
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
      ir_pass "GVN" (fun env ->
          Cse.run_global_program ~pure_calls:env.pure env.prog);
      simple "JumpThreading" Jump_threading.run_program;
      simple "DSE" (fun p -> ignore (Dse.run p));
      unroll "LoopUnroll";
      simple "SimplifyCFG" Simplify_cfg.run_program;
    ]
  in
  let o3 = [ unroll "LoopUnroll"; simple "SLPVectorizer" Slp.run_program ] in
  let dce_late =
    [
      ir_pass "ADCE" (fun env ->
          Dce.run_program ~pure_calls:env.pure env.prog);
    ]
  in
  let purity =
    [
      ir_pass "FunctionAttrs" (fun env ->
          Ipa_pure_const.run env.prog;
          env.pure <- Ipa_pure_const.pure_predicate env.prog);
    ]
  in
  let machine_flags =
    [
      flag "Machine code sinking" (fun o -> { o with Mach.sink = true });
      flag "Control Flow Optimizer" (fun o ->
          { o with Mach.tail_merge = true });
      flag "Branch Prob BB Placement" (fun o ->
          { o with Mach.place_blocks = true });
      flag "Machine Scheduler" (fun o -> { o with Mach.schedule = true });
    ]
  in
  match level with
  | Config.O0 -> []
  | Config.Og | Config.O1 -> purity @ o1 @ dce_late @ machine_flags
  | Config.O2 -> purity @ o1 @ o2 @ dce_late @ machine_flags
  | Config.O3 -> purity @ o1 @ o2 @ o3 @ dce_late @ machine_flags

let defined (c : Config.t) =
  match c.Config.compiler with
  | Config.Gcc -> gcc_defined c.Config.level
  | Config.Clang -> clang_defined c.Config.level

let pipeline (c : Config.t) = List.map (fun d -> d.d_entry) (defined c)

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
   the incremental [prelude]/[advance]/[finish] entry points — runs the
   same prelude, the same entry fold and the same backend below,
   observing progress through one [notify] callback. There is
   deliberately no second copy of the fold anywhere: a driver change is
   a change for all consumers at once. *)

(** What the driver just did at one pipeline position. *)
type step =
  | Ran_pass of string  (** an [Ir_pass] executed (cleanup included) *)
  | Set_flag of string  (** a [Backend_flag] the configuration enables *)
  | Skipped of string  (** the entry was disabled by the configuration *)

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

(* Run a slice of pipeline entries against the environment, firing
   [notify] once per entry (executed or skipped). Backend flags leave
   the program alone: {!backend_inputs} folds them. *)
let run_entries (env : env) (config : Config.t)
    ~(notify : Ir.program -> step -> unit) entries =
  List.iter
    (fun e ->
      match e with
      | Ir_pass (name, f) when Config.enabled config name ->
          f env;
          cleanup env.prog;
          notify env.prog (Ran_pass name)
      | Backend_flag (name, _) when Config.enabled config name ->
          notify env.prog (Set_flag name)
      | e -> notify env.prog (Skipped (entry_name e)))
    entries

(* Lowering and, at every level but O0, SSA construction — everything
   that runs before pipeline entry 0, whatever the configuration. The
   result depends on the level only through "O0 or not". *)
let ir_prelude src ~(level : Config.level) ~notify =
  let prog = Lower.lower_program src in
  (* The freshly lowered program routes merges through slots; the
     sanitizer's "lower" boundary skips the dominance check. *)
  notify prog (Ran_pass "lower");
  if level <> Config.O0 then begin
    (* into-ssa: neither compiler lets you opt out of SSA
       construction. *)
    Hashtbl.iter (fun _ fn -> Mem2reg.run fn) prog.Ir.funcs;
    cleanup prog;
    notify prog (Ran_pass "mem2reg")
  end;
  prog

(* The whole IR phase: prelude, every pipeline entry, final profile
   re-annotation. *)
let ir_phase (options : Options.t) src ~(config : Config.t) ~roots ~notify =
  let prog = ir_prelude src ~level:config.Config.level ~notify in
  if config.Config.level <> Config.O0 then begin
    let env =
      {
        prog;
        roots;
        pure = (fun _ -> false);
        profile = options.Options.profile;
        enabled = Config.enabled config;
      }
    in
    apply_profile env;
    run_entries env config ~notify (pipeline config);
    apply_profile env
  end;
  prog

(* What the backend reads of a configuration besides the program: its
   machine options, with every enabled backend flag folded in, and
   whether entry values are emitted. *)
let backend_of (options : Options.t) (config : Config.t) =
  let base =
    if config.Config.level <> Config.O0 && config.Config.compiler = Config.Clang
    then
      (* clang's register allocator always coalesces and shares stack
         slots and shrink-wraps; gcc exposes these as flags. *)
      {
        Mach.opts_o0 with
        Mach.coalesce = true;
        share_spill_slots = true;
        shrink_wrap = true;
        sched_keep_lines = true;
      }
    else Mach.opts_o0
  in
  let opts =
    List.fold_left
      (fun o e ->
        match e with
        | Backend_flag (name, f) when Config.enabled config name -> f o
        | _ -> o)
      base (pipeline config)
  in
  (* Ablation hook: force the scheduler's line-retention behaviour
     (gcc's scheduler strips displaced lines, clang's keeps them)
     independently of the compiler family. *)
  let opts =
    match options.Options.sched_keep_lines with
    | Some v -> { opts with Mach.sched_keep_lines = v }
    | None -> opts
  in
  let entry_values =
    match options.Options.entry_values with
    | Some v -> v
    | None ->
        config.Config.compiler = Config.Gcc && config.Config.level <> Config.O0
  in
  (opts, entry_values)

let backend_inputs = backend_of Options.default

(* Instruction selection, machine passes and emission from a finished
   IR phase. Instruction selection rewrites the program (out of SSA). *)
let backend_emit inst ((opts : Mach.opts), entry_values) (prog : Ir.program) :
    Emit.binary =
  let mfuncs =
    Instrument.phase inst "backend" (fun () ->
        (* Emission order: source order (our toplevel-reorder only gates
           ICF, which the emitter applies when the flag is on). *)
        let fns =
          Hashtbl.fold (fun _ fn acc -> fn :: acc) prog.Ir.funcs []
          |> List.sort (fun (a : Ir.fn) b ->
                 compare (a.Ir.f_line, a.Ir.f_name) (b.Ir.f_line, b.Ir.f_name))
        in
        List.map
          (fun fn ->
            let m = Isel.translate_fn fn opts in
            inst.Instrument.on_pass "isel" (Instrument.Mach_fn m);
            List.iter
              (fun (name, pass) ->
                pass m;
                inst.Instrument.on_pass name (Instrument.Mach_fn m))
              (Mach_passes.passes opts);
            m)
          fns)
  in
  Instrument.phase inst "emit" (fun () ->
      let bin =
        Emit.emit ~icf:opts.Mach.icf ~entry_values
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
  let prog =
    Instrument.phase inst "ir" (fun () ->
        ir_phase options src ~config ~roots ~notify:(notify_on_pass inst))
  in
  backend_emit inst (backend_of options config) prog

(* ------------------------------------------------------------------ *)
(* Incremental compilation: a forkable IR phase

   The sweep planner drives the IR phase of many configurations of one
   program at once over live [state]s: one prelude, each pipeline entry
   run once for every configuration that runs it under the same
   behaviour key, a fork ([capture], [restore]) where configurations
   disagree, [digest] to see whether forks ended up alike, and one
   [finish] per backend. Each call composes the instruments [compile]
   does, so the sanitizer and the tracer see every boundary that runs.

   Soundness of sharing one run between configurations: an entry's
   behaviour depends on the IR state, on its own closure (name, the
   parameters it was built with, its position) and, for gcc's gated
   inliners, on [Config.enabled "inline"]. [slots] keys all three, so
   configurations that ran the same keys from the same state hold
   identical states (see DESIGN.md "Incremental compilation"). *)

(** The configuration's pipeline aligned on its compiler's slot list —
    the O3 pipeline, which holds every level's pipeline as a
    subsequence by (name, occurrence); [test toolchain] pins that. Slot
    [s] holds the behaviour key and the entry the level runs there, or
    [None] where the level has no entry. A key is the entry's name, its
    occurrence among the pipeline's entries of that name, the
    parameters its closure was built with, and for a gated inliner
    whether the master [inline] switch is off (its closure then does
    nothing, and only the cleanup after it runs). Empty at O0. *)
let slots (c : Config.t) : (string * entry) option array =
  let identified defs =
    let seen = Hashtbl.create 32 in
    List.map
      (fun d ->
        let name = entry_name d.d_entry in
        let occ = Option.value ~default:0 (Hashtbl.find_opt seen name) in
        Hashtbl.replace seen name (occ + 1);
        (Printf.sprintf "%s#%d" name occ, d))
      defs
  in
  let key id d =
    String.concat ""
      [
        id;
        (match Lazy.force d.d_params with "" -> "" | p -> "(" ^ p ^ ")");
        (if d.d_gated && not (Config.enabled c "inline") then "/inline-off"
         else "");
      ]
  in
  match identified (defined c) with
  | [] -> [||]
  | own ->
      let rest = ref own in
      let aligned =
        List.map
          (fun (id, _) ->
            match !rest with
            | (id', d) :: tl when id' = id ->
                rest := tl;
                Some (key id d, d.d_entry)
            | _ -> None)
          (identified (defined (Config.make c.Config.compiler Config.O3)))
      in
      if !rest <> [] then
        invalid_arg
          "Toolchain.slots: a level's pipeline is not a subsequence of its \
           compiler's O3 pipeline";
      Array.of_list aligned

type checkpoint = { cp_snapshot : Ir.Snapshot.t; cp_roots : string list }

type state = {
  s_prog : Ir.program;
  s_roots : string list;
  mutable s_pure : string -> bool;
  mutable s_digest : string option;
      (** the program's digest, while no pass has run since it was taken *)
}

let fresh_state prog roots pure =
  { s_prog = prog; s_roots = roots; s_pure = pure; s_digest = None }

(* What [compile] composes under default options. *)
let default_instruments () =
  compose_instruments ~sanitize:(sanitize_of Options.default) Instrument.nop

let prelude (src : Minic.Ast.program) ~(level : Config.level) ~roots =
  let inst = default_instruments () in
  let prog =
    Instrument.phase inst "ir" (fun () ->
        ir_prelude src ~level ~notify:(notify_on_pass inst))
  in
  fresh_state prog roots (fun _ -> false)

let advance (st : state) (config : Config.t) entries =
  if
    List.exists
      (function
        | Ir_pass (name, _) -> Config.enabled config name
        | Backend_flag _ -> false)
      entries
  then begin
    let env =
      {
        prog = st.s_prog;
        roots = st.s_roots;
        pure = st.s_pure;
        profile = None;
        enabled = Config.enabled config;
      }
    in
    let inst = default_instruments () in
    Instrument.phase inst "ir" (fun () ->
        run_entries env config ~notify:(notify_on_pass inst) entries);
    st.s_pure <- env.pure;
    st.s_digest <- None
  end

let digest (st : state) =
  match st.s_digest with
  | Some d -> d
  | None ->
      let d = Ir.Snapshot.digest_program st.s_prog in
      st.s_digest <- Some d;
      d

let capture (st : state) =
  { cp_snapshot = Ir.Snapshot.capture st.s_prog; cp_roots = st.s_roots }

let checkpoint_bytes cp = Ir.Snapshot.size_bytes cp.cp_snapshot

(* The purity predicate is rebuilt from the restored program itself:
   [Ipa_pure_const.pure_predicate] reads the [is_pure] flags, which are
   snapshot state — before the purity pass ever ran they are all false,
   which is exactly the initial predicate. *)
let restore (cp : checkpoint) =
  let prog = Ir.Snapshot.restore cp.cp_snapshot in
  fresh_state prog cp.cp_roots (Ipa_pure_const.pure_predicate prog)

let finish (st : state) (config : Config.t) =
  backend_emit (default_instruments ()) (backend_inputs config) st.s_prog

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
  ignore (ir_phase Options.default src ~config ~roots ~notify : Ir.program);
  List.rev !steps

(** Convenience: parse, check and compile a source string. The
    front-end gets its own span when tracing is on. *)
let compile_source ?options ?instrument source ~config ~roots =
  let ast =
    Obs.Span.wrap "frontend" (fun () -> Minic.Typecheck.parse_and_check source)
  in
  compile ?options ?instrument ast ~config ~roots
