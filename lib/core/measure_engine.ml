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

let measure t (p : Evaluation.prepared) config =
  let l =
    tier1 t p.Evaluation.program config (fun () -> Evaluation.compile p config)
  in
  let m =
    Memo.find_or_add ~hit:l.hit t.measures
      (p.Evaluation.content_digest ^ "@" ^ l.entry.pk_full_digest)
      (fun () -> measure_uncached p (binary p.Evaluation.program l))
  in
  (m, l.entry)

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

(* The serialization schema stamp: [Marshal] is type-unsafe, so any
   change to the marshalled value layouts (or the compiler that decides
   them) must read as "stale entry, recompute". Bump the leading tag
   whenever a persisted type changes shape: [v2] persists the compile
   cache as packed entries, [v3] adds their summary counts. *)
let cache_schema = "debugtuner-v3/" ^ Sys.ocaml_version

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
   compilation"). A sweep's configurations mostly run the identical
   pipeline prefix up to their first divergence; the planner below
   groups a config set by shared prefix, executes each shared segment
   once through [Toolchain.advance], and schedules only the divergent
   suffixes ([Toolchain.resume]) on the Domain pool. Results are seeded
   into the ordinary tier-1 table, so they are byte-identical and
   indistinguishable from straight-line compiles to every consumer. *)

(* One unit of sweep work: a suffix compile forked from a shared
   checkpoint, a group of configurations proven state-identical at the
   end of the pipeline (one backend run serves them all), or a
   configuration with no shareable prefix (singleton pipeline family),
   compiled straight. *)
type sweep_job =
  | Suffix of Config.t * Toolchain.checkpoint
  | Merged of Config.t list * Toolchain.checkpoint
  | Straight of Config.t

(* The prefix-sharing the divergence trie alone guarantees, as leaf
   depths: purely structural (a function of the enabled-bit vectors,
   never of pass behaviour). This is what the prefix/* counters report
   — [passes_skipped] is exactly the sum of shared-prefix lengths, the
   invariant the property tests pin down — while the execution walk in
   [plan_family] is free to do strictly better via no-op merging,
   surfaced separately as prefix/merged. *)
let structural_depths n tagged =
  let depths = ref [] in
  let note idx (c, _) = depths := (c, idx) :: !depths in
  let rec go idx tagged =
    match tagged with
    | [] -> ()
    | [ single ] -> note idx single
    | ((_, b0) :: rest) as all ->
        let k = ref idx in
        while
          !k < n && List.for_all (fun (_, b) -> b.(!k) = b0.(!k)) rest
        do
          incr k
        done;
        let k = !k in
        if k > idx then begin
          if k >= n then List.iter (note k) all else go k all
        end
        else if idx >= n then
          (* Identical bit vectors under distinct fingerprints (disabled
             passes outside this pipeline; always the case at O0, where
             the pipeline is empty). *)
          List.iter (note idx) all
        else begin
          let yes, no = List.partition (fun (_, b) -> b.(idx)) all in
          go idx yes;
          go idx no
        end
  in
  go 0 tagged;
  !depths

(* Divergence-tree construction for one pipeline family (all configs
   share compiler + level, hence the same pass table). Trunk segments on
   which every remaining config agrees are executed once via [advance];
   at the first disagreeing entry the contested entry is probed: it runs
   once on the enabled side, and if the state digest (and accumulated
   backend options) did not change, the entry was a no-op on this
   subject, the split is immaterial, and both sides continue together —
   on real suite programs most disabled passes are no-ops, so most
   sweep configurations merge all the way to the end of the pipeline
   and share a single backend run ([Merged]). Only genuinely divergent
   groups are partitioned and planned recursively; singletons run their
   unique suffix as a leaf [resume]. Deterministic: configs keep their
   input order, the enabled branch is planned first. *)
let plan_family ~ast ~roots configs =
  let rep = List.hd configs in
  let entries = Array.of_list (Toolchain.pipeline rep) in
  let n = Array.length entries in
  (* Raw bits drive the structural counters (the shared-prefix model the
     property tests pin down); effective bits — which fold in the gcc
     gated inliners' master-"inline" read — drive the execution walk,
     because only they determine an entry's behaviour. *)
  let bits c =
    Array.map (fun e -> Config.enabled c (Toolchain.entry_name e)) entries
  in
  let effective c = Array.map (fun e -> Toolchain.entry_effective c e) entries in
  List.iter
    (fun (_, depth) ->
      if depth > 0 then begin
        Util.Counters.bump "prefix/hits";
        Util.Counters.bump ~n:depth "prefix/passes_skipped"
      end
      else Util.Counters.bump "prefix/misses")
    (structural_depths n (List.map (fun c -> (c, bits c)) configs));
  let tagged = List.map (fun c -> (c, effective c)) configs in
  let note_capture cp =
    Util.Counters.bump
      ~n:(Toolchain.checkpoint_bytes cp)
      "prefix/snapshot_bytes"
  in
  let cp0 =
    obs_span "prefix:snapshot" [ ("upto", "0") ] (fun () ->
        Toolchain.start ast ~config:rep ~roots)
  in
  note_capture cp0;
  let jobs = ref [] in
  let rec plan cp tagged =
    let idx = Toolchain.checkpoint_index cp in
    match tagged with
    | [] -> ()
    | [ (c, _) ] -> jobs := Suffix (c, cp) :: !jobs
    | _ when idx >= n ->
        (* Two or more configs state-identical at the end of the
           pipeline: one backend run serves the whole group. *)
        jobs := Merged (List.map fst tagged, cp) :: !jobs
    | ((c0, b0) :: rest) as all ->
        let j = ref idx in
        while
          !j < n && List.for_all (fun (_, b) -> b.(!j) = b0.(!j)) rest
        do
          incr j
        done;
        let j = !j in
        if j > idx then begin
          (* Agreed segment [idx, j): execute it once. When every entry
             in it is disabled, [advance] shares the snapshot and there
             is no new capture to account for. *)
          let cp' =
            obs_span "prefix:snapshot"
              [ ("upto", string_of_int j) ]
              (fun () -> Toolchain.advance ~upto:j cp c0)
          in
          let executed = ref false in
          for i = idx to j - 1 do
            if b0.(i) then executed := true
          done;
          if !executed then note_capture cp';
          plan cp' all
        end
        else begin
          (* Contested entry [idx]: probe it on the enabled side. *)
          let yes, no = List.partition (fun (_, b) -> b.(idx)) all in
          let rep_yes = fst (List.hd yes) in
          let cp_yes =
            obs_span "prefix:snapshot"
              [ ("upto", string_of_int (idx + 1)) ]
              (fun () -> Toolchain.advance ~upto:(idx + 1) cp rep_yes)
          in
          if
            Toolchain.checkpoint_digest cp_yes = Toolchain.checkpoint_digest cp
            && Toolchain.checkpoint_opts cp_yes = Toolchain.checkpoint_opts cp
          then
            (* The entry was a no-op on this subject: skipping it and
               running it coincide, so the split is immaterial and
               everyone continues from the post-entry state. *)
            plan cp_yes all
          else begin
            note_capture cp_yes;
            plan cp_yes yes;
            plan cp no
          end
        end
  in
  plan cp0 tagged;
  List.rev !jobs

(* The sweep's filter probes tier 1 once per configuration (memory,
   then disk); a planned compile is then published with [Memo.fill],
   which counts the miss without probing again. The source is parsed
   only when there is work to plan. *)
let compile_sweep t (p : Suite_types.sprogram) configs =
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
  if todo <> [] then begin
    let ast = Suite_types.ast p and roots = Suite_types.roots p in
    let publish c produce =
      ignore (Memo.fill t.binaries (key c) produce : packed)
    in
    (* Group by pipeline family, preserving input order. *)
    let families = ref [] in
    List.iter
      (fun c ->
        let fam = (c.Config.compiler, c.Config.level) in
        match List.assoc_opt fam !families with
        | Some cell -> cell := c :: !cell
        | None -> families := !families @ [ (fam, ref [ c ]) ])
      todo;
    let jobs =
      List.concat_map
        (fun (_, cell) ->
          match List.rev !cell with
          | [ c ] -> [ Straight c ]
          | group -> plan_family ~ast ~roots group)
        !families
    in
    ignore
      (map t
         (fun job ->
           match job with
           | Straight c ->
               Util.Counters.bump "prefix/misses";
               publish c (fun () ->
                   pack
                     (span "compile" p.Suite_types.p_name (fun () ->
                          Toolchain.compile ast ~config:c ~roots)))
           | Suffix (c, cp) ->
               publish c (fun () ->
                   pack
                     (obs_span "prefix:resume"
                        [ ("config", Config.fingerprint c) ]
                        (fun () -> Toolchain.resume ~from:cp c)))
           | Merged (cs, cp) ->
               (* One backend run, packed once; every config in the
                  group is seeded the same entry. *)
               let rep = List.hd cs in
               let entry =
                 lazy
                   (pack
                      (obs_span "prefix:resume"
                         [ ("config", Config.fingerprint rep) ]
                         (fun () -> Toolchain.resume ~from:cp rep)))
               in
               Util.Counters.bump ~n:(List.length cs - 1) "prefix/merged";
               List.iter (fun c -> publish c (fun () -> Lazy.force entry)) cs)
         jobs
        : unit list)
  end

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
