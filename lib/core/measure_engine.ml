(** The repository's measurement engine: the single owner of
    measurement state. [Ranking], [Tuning], [Experiments], [Ablations],
    [Extensions], the bench harness and the service API all prepare
    their subjects and run their compile / measure / benchmark jobs on
    an engine they are handed, sharing one content-addressed cache:

    - prepared subjects, keyed by {!Evaluation.prepare_key};
    - tier 1, keyed by (source digest, {!Config.fingerprint}): compiled
      binaries of every program, measured or benchmarked — a
      configuration is compiled once per program no matter how many
      tables ask for it. An entry is packed: the binary's [Marshal]
      bytes plus its digests, decoded only where code or debug info is
      read;
    - tier 2, keyed by (subject digest, binary digest): metric records
      and benchmark costs — two configurations whose binaries have
      identical content share one measurement, generalizing the
      paper's Section III-A discard optimization engine-wide. Metrics
      key on {!Emit.binary.full_digest} (identical [.text] can still
      carry different debug info, and the metrics see it); benchmark
      costs key on the execution digest, over what the VM reads: the
      machine code, the frame layouts and the globals. *)

module Memo = Engine.Memo

(* Each primitive below runs only on a cache miss, so its span measures
   actual work (hits never reach it). The [Obs.enabled] guard keeps the
   disabled path allocation-free. *)
let span name subject f =
  if not (Obs.enabled ()) then f ()
  else begin
    Obs.count ("engine/" ^ name);
    Obs.Span.wrap ("engine:" ^ name) ~args:[ ("subject", subject) ] f
  end

let pname (p : Evaluation.prepared) = p.Evaluation.program.Suite_types.p_name

(* The trace is transient: only its metrics are retained, so a
   full-evaluation run holds one metrics record per distinct binary,
   not one trace (traces are orders of magnitude larger). *)
let measure_uncached p bin =
  let tr =
    span "trace" (pname p) (fun () -> Evaluation.trace_config_bin p bin)
  in
  span "metrics" (pname p) (fun () -> Evaluation.metrics_of_trace p bin tr)

(** Total VM cost of every harness seed (the paper's SPEC timing; the
    median-of-three degenerates to one deterministic run), all on one
    load of the binary. *)
let bench_run (p : Suite_types.sprogram) (bin : Emit.binary) =
  span "bench_run" p.Suite_types.p_name @@ fun () ->
  let prog = Vm.load bin in
  List.fold_left
    (fun acc (h : Suite_types.harness) ->
      let inputs =
        if h.Suite_types.h_seeds = [] then [ [] ] else h.Suite_types.h_seeds
      in
      List.fold_left
        (fun acc input ->
          let r =
            Vm.exec prog ~entry:h.Suite_types.h_entry ~input Vm.default_opts
          in
          if r.Vm.timed_out then
            invalid_arg ("bench timed out: " ^ p.Suite_types.p_name);
          acc + r.Vm.cost)
        acc inputs)
    0 p.Suite_types.p_harnesses

(* Benchmark programs carry no corpus; their content address is the
   source plus the harness list (entries and seed workloads). *)
let bench_subject_key (p : Suite_types.sprogram) =
  Digest.to_hex
    (Digest.string
       (Marshal.to_string
          (p.Suite_types.p_source, p.Suite_types.p_harnesses)
          []))

type summary = {
  sm_instrs : int;
  sm_funcs : int;
  sm_line_entries : int;
  sm_steppable_lines : int;
  sm_vars : int;
}

let summary (bin : Emit.binary) =
  {
    sm_instrs = Array.length bin.Emit.code;
    sm_funcs = Array.length bin.Emit.funcs;
    sm_line_entries = List.length bin.Emit.debug.Dwarfish.line_table;
    sm_steppable_lines = List.length (Dwarfish.steppable_lines bin.Emit.debug);
    sm_vars = List.length bin.Emit.debug.Dwarfish.vars;
  }

(* A tier-1 entry. A decoded binary averages about nine times its
   marshalled size in the heap, so the table keeps the bytes plus the
   digests and summary counts its lookups read; only a consumer of code
   or debug info decodes ([unpack]). *)
type packed = {
  pk_full_digest : string;
  pk_text_digest : string;
  pk_exec_digest : string;
  pk_summary : summary;
  pk_bytes : string;
}

(* What the VM reads of a binary: the machine code, the frame layouts
   ([funcs], shrink-wrap's activation points included) and the globals.
   [No_sharing] makes the digest a function of the values alone. *)
let exec_digest (bin : Emit.binary) =
  Digest.to_hex
    (Digest.string
       (Marshal.to_string
          (bin.Emit.text_digest, bin.Emit.funcs, bin.Emit.bin_globals)
          [ Marshal.No_sharing ]))

let pack (bin : Emit.binary) =
  {
    pk_full_digest = bin.Emit.full_digest;
    pk_text_digest = bin.Emit.text_digest;
    pk_exec_digest = exec_digest bin;
    pk_summary = summary bin;
    pk_bytes = Marshal.to_string bin [];
  }

let unpack name pk : Emit.binary =
  span "unpack" name (fun () -> Marshal.from_string pk.pk_bytes 0)

type t = {
  pool : Engine.Pool.t;
  counters : Util.Counters.table;  (** [engine/<cache>/hits|misses|dedups] *)
  store : Engine.Disk_store.t option;
      (** persistent second level behind every memo table *)
  prepares : Evaluation.prepared Memo.t;
      (** prepared subjects: {!Evaluation.prepare_key} *)
  binaries : packed Memo.t;  (** tier 1: (source digest, fingerprint) *)
  measures : Metrics.all_methods Memo.t;
      (** tier 2: (subject digest, full binary digest) *)
  costs : int Memo.t;  (** tier 2: (bench digest, execution digest) *)
}

let create ?workers ?store () =
  let counters = Util.Counters.create () in
  {
    pool = Engine.Pool.create ?workers ();
    counters;
    store;
    prepares = Memo.create ~counters ?store ~name:"prepare" ();
    binaries = Memo.create ~counters ?store ~name:"compile" ();
    measures = Memo.create ~counters ?store ~name:"measure" ();
    costs = Memo.create ~counters ?store ~name:"bench-cost" ();
  }

let prepare t ?fuzz_budget ?seed p =
  Memo.find_or_add t.prepares
    (Evaluation.prepare_key ?fuzz_budget ?seed p)
    (fun () -> Evaluation.prepare ?fuzz_budget ?seed p)

(* Tier-1 keys of one program: what a compile reads — the source text
   and the harness entry roots — digested once, then one key per
   configuration. Computing a key never parses. *)
let compile_keys (p : Suite_types.sprogram) =
  let digest =
    Digest.to_hex
      (Digest.string
         (Marshal.to_string (p.Suite_types.p_source, Suite_types.roots p) []))
  in
  fun config -> digest ^ "/" ^ Config.fingerprint config

(* Tier-1 lookup: the packed entry, plus the live binary when this call
   compiled it — a fresh compile hands its binary straight on, only a
   hit decodes. A fresh compile whose binary digest already sits in a
   tier-2 table is a *dedup* (the discard optimization firing), while a
   tier-1 hit followed by a tier-2 hit is a plain cache hit. [produce]
   runs on a miss only, so a hit never parses. *)
type lookup = { entry : packed; live : Emit.binary option; hit : string }

let tier1 t (p : Suite_types.sprogram) config produce =
  let live = ref None in
  let entry =
    Memo.find_or_add t.binaries (compile_keys p config) (fun () ->
        let bin = span "compile" p.Suite_types.p_name produce in
        live := Some bin;
        pack bin)
  in
  { entry; live = !live; hit = (if !live = None then "hits" else "dedups") }

let binary (p : Suite_types.sprogram) l =
  match l.live with
  | Some bin -> bin
  | None -> unpack p.Suite_types.p_name l.entry

let parse_and_compile (p : Suite_types.sprogram) config () =
  Toolchain.compile (Suite_types.ast p) ~config ~roots:(Suite_types.roots p)

let compile t p config =
  binary p (tier1 t p config (parse_and_compile p config))

let compile_packed t p config =
  (tier1 t p config (parse_and_compile p config)).entry

let measure_lookup t (p : Evaluation.prepared) l =
  let m =
    Memo.find_or_add ~hit:l.hit t.measures
      (p.Evaluation.content_digest ^ "@" ^ l.entry.pk_full_digest)
      (fun () -> measure_uncached p (binary p.Evaluation.program l))
  in
  (m, l.entry)

let measure t (p : Evaluation.prepared) config =
  measure_lookup t p
    (tier1 t p.Evaluation.program config (fun () ->
         Evaluation.compile p config))

(** The paper's headline number for a configuration, engine-cached. *)
let product t prepared config =
  (fst (measure t prepared config)).Metrics.m_hybrid.Metrics.product

let bench_cost t bench config =
  let l = tier1 t bench config (parse_and_compile bench config) in
  Memo.find_or_add ~hit:l.hit t.costs
    (bench_subject_key bench ^ "@" ^ l.entry.pk_exec_digest)
    (fun () -> bench_run bench (binary bench l))

let map t f xs = Engine.Pool.map t.pool f xs
let workers t = Engine.Pool.workers t.pool
let stats t = t.counters
let store t = t.store
let memo t ~name () = Memo.create ~counters:t.counters ?store:t.store ~name ()

(* Per-request counter sinks: {!Util.Counters} sinks under the names
   the service API and the bench harness use. Every counting site bumps
   through [Util.Counters.bump], which also lands in the calling
   request's sink; pool workers inherit it ([Engine.Pool.map]). *)
type request_sink = Util.Counters.sink

let create_request_sink = Util.Counters.create_sink
let with_request_sink = Util.Counters.with_sink
let request_sink_rows = Util.Counters.sink_rows

(* An [Obs] span + counter named [name]; free when observability is
   off. *)
let obs_span name args f =
  if not (Obs.enabled ()) then f ()
  else begin
    Obs.count name;
    Obs.Span.wrap name ~args f
  end

(* Bracket every disk-store I/O with [obs_span]. Installed at module
   init so the engine library itself never depends on lib/obs. *)
let () =
  Engine.Disk_store.set_io_wrap (Some { Engine.Disk_store.wrap = obs_span })

(* The serialization schema stamp: the build stamp (an MD5 of every
   source file under lib/) and the compiler version. An entry written
   by any other build reads as "stale entry, recompute": [Marshal] is
   type-unsafe, and a change anywhere in the code may change what a
   value would be. *)
let cache_schema = Build_stamp.digest ^ "/" ^ Sys.ocaml_version

let cache_dir_of ?dir () =
  match dir with
  | Some d -> d
  | None -> (
      match Sys.getenv_opt "DEBUGTUNER_CACHE" with
      | Some d when d <> "" -> d
      | _ -> "_cache")

let open_store ?dir ?max_bytes () =
  Engine.Disk_store.create ?max_bytes ~schema:cache_schema
    ~dir:(cache_dir_of ?dir ()) ()

(* ------------------------------------------------------------------ *)
(* Pass-prefix incremental compilation (DESIGN.md "Incremental
   compilation"). The configurations of one program mostly run the same
   pipeline entries from the same states: every level but O0 starts
   from one prelude, the levels of a compiler share most entries, and a
   sweep's disable-sets differ in a few. The planner below walks any
   set of configurations of one program over their compilers' slot
   lists ([Toolchain.slots]) and runs each entry once for every
   configuration whose key agrees; only the lone suffixes and the
   backends run as jobs on the Domain pool. Results are seeded into the
   ordinary tier-1 table, byte-identical to straight-line compiles. *)

(* One configuration in the walk: its input position, its slots and,
   per slot, the key under which it runs an IR pass there ([None]: it
   skips the slot — the level has no entry there, the configuration
   disables it, or it is a backend flag, which leaves the IR alone). *)
type member = {
  m_index : int;
  m_config : Config.t;
  m_slots : (string * Toolchain.entry) option array;
  m_keys : string option array;
}

let member index config =
  let slots = Toolchain.slots config in
  {
    m_index = index;
    m_config = config;
    m_slots = slots;
    m_keys =
      Array.map
        (function
          | Some (key, (Toolchain.Ir_pass (name, _) : Toolchain.entry))
            when Config.enabled config name ->
              Some key
          | _ -> None)
        slots;
  }

(* The member's entries in slots [lo, hi). *)
let entries m lo hi =
  List.filter_map
    (fun s -> Option.map snd m.m_slots.(s))
    (List.init (max 0 (hi - lo)) (fun i -> lo + i))

(* Split [xs] into classes by [key], classes in order of first
   appearance, members in input order. *)
let classes key xs =
  let order = ref [] in
  List.iter
    (fun x ->
      let k = key x in
      match List.assoc_opt k !order with
      | Some cell -> cell := x :: !cell
      | None -> order := (k, ref [ x ]) :: !order)
    xs;
  List.rev_map (fun (k, cell) -> (k, List.rev !cell)) !order

(* The prefix sharing the slot trie alone guarantees, as leaf depths:
   purely structural, a function of each configuration's slots and raw
   enabled bits, never of pass behaviour. A group extends its trunk
   while every member has the same key or none at the next slot, and
   splits by key where they differ; a member's depth is the number of
   its own pipeline entries before the slot where it left its last
   group (all of them if it never did). This is what the prefix/*
   counters report — [passes_skipped] is exactly the sum of depths, the
   invariant the property tests pin down — while the execution walk in
   [plan] does strictly better via no-op merging, surfaced separately as
   prefix/merged. Every level but O0 shares the prelude, which no
   counter counts. *)
let structural_depths groups =
  let depths = ref [] in
  let raw m s =
    match m.m_slots.(s) with
    | Some (key, e) when Config.enabled m.m_config (Toolchain.entry_name e) ->
        Some key
    | _ -> None
  in
  let own m s =
    let k = ref 0 in
    for i = 0 to s - 1 do
      if m.m_slots.(i) <> None then incr k
    done;
    !k
  in
  let note s m = depths := own m s :: !depths in
  let rec go s = function
    | [] -> ()
    | [ m ] -> note s m
    | m0 :: rest as all ->
        let n = Array.length m0.m_slots in
        let k = ref s in
        while !k < n && List.for_all (fun m -> raw m !k = raw m0 !k) rest do
          incr k
        done;
        if !k >= n then List.iter (note n) all
        else if !k > s then go !k all
        else
          List.iter
            (fun (_, part) -> go s part)
            (classes (fun m -> raw m s) all)
  in
  List.iter (go 0) groups;
  !depths

(* One unit of sweep work on the pool: a lone configuration's remaining
   entries from a slot, then its backend; or a group of configurations
   that end at one state with equal backend inputs, served by one
   backend run. *)
type job =
  | Suffix of member * int * Toolchain.state
  | Backend of Config.t list * Toolchain.state

(* The walk. The groups at the root: every O0 configuration (lowering
   only, no slots), then every other configuration, which share one
   prelude and split by compiler into one walk per slot list. A group
   whose members agree on the keys of the next slots runs those entries
   once; at a contested slot every distinct key runs on a fork of its
   own, the first on the live state, while the members that skip the
   slot keep the state from before it; forks whose digests are equal
   merge again, the running forks first, so on real programs most
   contested entries turn out to be no-ops and their configurations go
   on together. A group at the end of its slots runs one backend per
   distinct backend input. Deterministic: members keep their input
   order, classes the order of their first fork. *)
let plan ~ast ~roots configs =
  let members = List.mapi member configs in
  let o0, optimized =
    List.partition (fun m -> m.m_config.Config.level = Config.O0) members
  in
  let by_compiler =
    List.map snd (classes (fun m -> m.m_config.Config.compiler) optimized)
  in
  List.iter
    (fun depth ->
      if depth > 0 then begin
        Util.Counters.bump "prefix/hits";
        Util.Counters.bump ~n:depth "prefix/passes_skipped"
      end
      else Util.Counters.bump "prefix/misses")
    (structural_depths (o0 :: by_compiler));
  let capture st =
    let cp = obs_span "prefix:snapshot" [] (fun () -> Toolchain.capture st) in
    Util.Counters.bump
      ~n:(Toolchain.checkpoint_bytes cp)
      "prefix/snapshot_bytes";
    cp
  in
  let restore cp =
    obs_span "prefix:restore" [] (fun () -> Toolchain.restore cp)
  in
  let digest st = obs_span "prefix:digest" [] (fun () -> Toolchain.digest st) in
  let jobs = ref [] in
  let ends group st =
    match classes (fun m -> Toolchain.backend_inputs m.m_config) group with
    | [] -> ()
    | (_, first) :: others ->
        let job ms st =
          jobs := Backend (List.map (fun m -> m.m_config) ms, st) :: !jobs
        in
        if others <> [] then begin
          let cp = capture st in
          List.iter (fun (_, ms) -> job ms (restore cp)) others
        end;
        job first st
  in
  let rec walk group st s =
    match group with
    | [] -> ()
    | [ m ] -> jobs := Suffix (m, s, st) :: !jobs
    | m0 :: rest ->
        let n = Array.length m0.m_keys in
        let j = ref s in
        while
          !j < n && List.for_all (fun m -> m.m_keys.(!j) = m0.m_keys.(!j)) rest
        do
          incr j
        done;
        let j = !j in
        if j > s then begin
          (* Agreed slots [s, j): run them once. *)
          obs_span "prefix:advance"
            [ ("upto", string_of_int j) ]
            (fun () -> Toolchain.advance st m0.m_config (entries m0 s j));
          walk group st j
        end
        else if s >= n then ends group st
        else probe group st s
  and probe group st s =
    let running, skipping =
      List.partition (fun (key, _) -> key <> None)
        (classes (fun m -> m.m_keys.(s)) group)
    in
    (* Only the members that skip the slot compare against the state
       before it. *)
    let before = if skipping = [] then "" else digest st in
    let cp = capture st in
    let forks =
      List.mapi
        (fun i (_, ms) ->
          let m = List.hd ms in
          let st = if i = 0 then st else restore cp in
          obs_span "prefix:probe"
            [ ("slot", string_of_int s) ]
            (fun () -> Toolchain.advance st m.m_config (entries m s (s + 1)));
          (digest st, lazy st, ms))
        running
      @ List.map (fun (_, ms) -> (before, lazy (restore cp), ms)) skipping
    in
    List.iter
      (fun (_, same) ->
        let _, st, _ = List.hd same in
        let ms =
          List.sort
            (fun a b -> compare a.m_index b.m_index)
            (List.concat_map (fun (_, _, ms) -> ms) same)
        in
        walk ms (Lazy.force st) (s + 1))
      (classes (fun (d, _, _) -> d) forks)
  in
  let prelude group =
    let level = (List.hd group).m_config.Config.level in
    obs_span "prefix:prelude" [] (fun () -> Toolchain.prelude ast ~level ~roots)
  in
  if o0 <> [] then ends o0 (prelude o0);
  (match by_compiler with
  | [] -> ()
  | first :: others ->
      let st = prelude first in
      let cp = if others = [] then None else Some (capture st) in
      walk first st 0;
      List.iter (fun group -> walk group (restore (Option.get cp)) 0) others);
  List.rev !jobs

(* Run one job: the configurations it served and their binary. *)
let run_job = function
  | Suffix (m, s, st) ->
      ( [ m.m_config ],
        obs_span "prefix:resume"
          [ ("config", Config.fingerprint m.m_config) ]
          (fun () ->
            Toolchain.advance st m.m_config
              (entries m s (Array.length m.m_slots));
            Toolchain.finish st m.m_config) )
  | Backend (cs, st) ->
      let rep = List.hd cs in
      Util.Counters.bump ~n:(List.length cs - 1) "prefix/merged";
      ( cs,
        obs_span "prefix:resume"
          [ ("config", Config.fingerprint rep) ]
          (fun () -> Toolchain.finish st rep) )

(* The sweep's filter probes tier 1 once per configuration (memory,
   then disk); a planned compile is then published with [Memo.fill],
   which counts the miss without probing again. The source is parsed
   only when there is work to plan. With [live], returns the lookup of
   every configuration it compiled, its binary included; without, the
   binaries are dropped as soon as they are packed. *)
let sweep t (p : Suite_types.sprogram) ~ast ~live configs =
  let key = compile_keys p in
  let seen = Hashtbl.create 16 in
  let fresh c =
    let fp = Config.fingerprint c in
    if Hashtbl.mem seen fp then false
    else begin
      Hashtbl.add seen fp ();
      true
    end
  in
  let todo =
    List.filter
      (fun c -> fresh c && Option.is_none (Memo.find_opt t.binaries (key c)))
      configs
  in
  if todo = [] then []
  else
    let jobs = plan ~ast:(ast ()) ~roots:(Suite_types.roots p) todo in
    List.concat
      (map t
         (fun job ->
           let cs, bin = run_job job in
           (* One backend run, packed once; every configuration it
              served is seeded the same entry. *)
           let entry = lazy (pack bin) in
           List.map
             (fun c ->
               let entry =
                 Memo.fill t.binaries (key c) (fun () -> Lazy.force entry)
               in
               let live = if live then Some bin else None in
               (c, { entry; live; hit = "dedups" }))
             cs)
         jobs)

let compile_sweep t (p : Suite_types.sprogram) configs =
  ignore (sweep t p ~ast:(fun () -> Suite_types.ast p) ~live:false configs)

let measure_sweep t (p : Evaluation.prepared) configs =
  let fresh = Hashtbl.create 16 in
  List.iter
    (fun (c, l) -> Hashtbl.replace fresh (Config.fingerprint c) l)
    (sweep t p.Evaluation.program
       ~ast:(fun () -> p.Evaluation.ast)
       ~live:true configs);
  List.map
    (fun config ->
      let fp = Config.fingerprint config in
      match Hashtbl.find_opt fresh fp with
      | Some l ->
          Hashtbl.remove fresh fp;
          measure_lookup t p l
      | None -> measure t p config)
    configs

(** One flat, sorted [(name, value)] table over every counter source:
    this engine's caches, its store, the process table (sanitizer,
    prefix planner, shard and search counters) and the live [Obs]
    session — so [bench --stats] and the CLI render one table through
    one code path, text or JSON alike. *)
let stats_table t : (string * int) list =
  let store_rows =
    match store t with None -> [] | Some s -> Engine.Disk_store.counters s
  in
  let obs_rows =
    List.map (fun (n, v) -> ("obs/" ^ n, v)) (Obs.current_counters ())
  in
  List.sort compare
    (Util.Counters.rows (stats t)
    @ store_rows
    @ Util.Counters.rows Util.Counters.process
    @ obs_rows)
