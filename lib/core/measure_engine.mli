(** The repository's measurement engine — the single owner of
    measurement state and the single entry point for preparing subjects
    and for compiling, measuring and benchmarking (program,
    configuration) pairs, with a content-addressed cache and an optional
    [Domain] worker pool (see [lib/engine] for the generic substrate and
    DESIGN.md "Measurement engine" for the design). There is no
    process-wide engine: every caller is handed one explicitly.

    Prepared subjects are keyed by {!Evaluation.prepare_key}. Tier 1 is
    keyed by (source digest, {!Config.fingerprint}) for every program,
    measured or benchmarked — the digest covers the program's source
    text and harness entry roots, everything a compile reads — and
    caches compiled binaries, so a configuration is compiled once per
    program. A tier-1 entry is {!packed}: the binary's [Marshal] bytes
    plus its digests. Lookups that need only a digest never decode;
    {!compile}, and a tier-2 miss that must trace or run the binary,
    decode it (an [engine:unpack] span when traced); a fresh compile
    hands its live binary on without decoding. Tier 2 caches metrics,
    keyed by (subject digest, full binary digest), and benchmark costs,
    keyed by (benchmark digest, execution digest) — two configurations
    whose binaries share content share one measurement (the engine-wide
    generalization of the paper's Section III-A discard optimization). *)

type t

val create : ?workers:int -> ?store:Engine.Disk_store.t -> unit -> t
(** Fresh caches, zeroed counters. [workers] sizes the pool behind
    {!map} (default 1 = sequential; parallel runs reduce in input order
    and stay byte-identical). [store] backs every cache tier with a
    persistent on-disk store (see {!open_store}): results already on
    disk are served without recomputing, fresh results are published
    back, so runs are resumable and warm re-runs near-instant — still
    byte-identical to cold ones. *)

val cache_schema : string
(** The serialization schema stamp written into every persistent cache
    entry: ["debugtuner-v3/" ^ Sys.ocaml_version]. Entries written under
    any other stamp are stale — evicted and recomputed, never decoded
    ([Marshal] is type-unsafe). *)

val open_store :
  ?dir:string -> ?max_bytes:int -> unit -> Engine.Disk_store.t
(** Open the repository's persistent artifact store. The directory is
    [dir] if given, else [$DEBUGTUNER_CACHE] if set and non-empty, else
    ["_cache"]. Always stamped with {!cache_schema}. *)

val prepare :
  t ->
  ?fuzz_budget:int ->
  ?seed:int ->
  Suite_types.sprogram ->
  Evaluation.prepared
(** {!Evaluation.prepare}, cached on {!Evaluation.prepare_key}: with a
    store, a prepared subject persists across processes. *)

type summary = {
  sm_instrs : int;  (** machine instructions ([code]) *)
  sm_funcs : int;  (** emitted functions ([funcs]) *)
  sm_line_entries : int;  (** line-table entries *)
  sm_steppable_lines : int;  (** distinct lines in the line table *)
  sm_vars : int;  (** variables with location info *)
}
(** The counts a [Compile] [Summary] view prints. *)

val summary : Emit.binary -> summary

type packed = private {
  pk_full_digest : string;  (** {!Emit.binary.full_digest} *)
  pk_text_digest : string;  (** {!Emit.binary.text_digest} *)
  pk_exec_digest : string;
      (** digest of what the VM reads: the [.text] digest, the frame
          layouts ([funcs]) and the globals *)
  pk_summary : summary;  (** taken from the live binary when packed *)
  pk_bytes : string;  (** the binary's [Marshal] bytes, made once *)
}
(** A tier-1 entry: a binary kept as its store bytes plus digests. The
    entry is what the store persists, so a warm-store hit decodes
    nothing until code is read. *)

val compile : t -> Suite_types.sprogram -> Config.t -> Emit.binary
(** Tier-1 cached compilation. A hit never parses; it decodes the
    packed entry. A miss parses the source once and returns the binary
    it compiled. *)

val compile_packed : t -> Suite_types.sprogram -> Config.t -> packed
(** {!compile} for a caller that reads only digests or summary counts:
    the tier-1 entry, never decoded. *)

val measure :
  t -> Evaluation.prepared -> Config.t -> Metrics.all_methods * packed
(** Tier-2 cached measurement: trace the binary over the prepared
    corpora and compute all four metric methods. Only the metrics are
    kept; the trace is dropped. The binary comes from tier 1, shared
    with {!compile} of the subject's program; a miss compiles the AST
    the prepared subject carries. Two configurations of the same
    subject whose binaries share a [full_digest] share one metrics
    record; a hit reached through a fresh compile counts as
    [engine/measure/dedups]. Returns the metrics and the tier-1 entry
    measured; a tier-2 hit decodes nothing. *)

val product : t -> Evaluation.prepared -> Config.t -> float
(** The paper's headline number (hybrid product), engine-cached. *)

val bench_cost : t -> Suite_types.sprogram -> Config.t -> int
(** Tier-2 cached benchmark cost, keyed by the binary's execution
    digest: binaries the VM cannot tell apart share one cost, no re-run.
    A hit decodes nothing. *)

val map : t -> ('a -> 'b) -> 'a list -> 'b list
(** Deterministic ordered parallel map on the engine's pool; [f] may
    issue engine jobs (the caches are domain-safe). Pool workers run in
    the caller's counter scope, so parallel work inside a request is
    attributed to that request. *)

(** {1 Per-request counter attribution}

    Every count in the repository goes through one
    {!Util.Counters.bump}, which adds to a table (this engine's, its
    store's, or the process table) and to every sink the calling
    request has open. A request's rows therefore hold exactly its own
    work, pool workers included, with the row names {!stats_table}
    renders — however many requests run alongside it. No snapshot is
    ever subtracted. *)

type request_sink = Util.Counters.sink

val create_request_sink : unit -> request_sink
(** A fresh, empty sink. *)

val with_request_sink : request_sink -> (unit -> 'a) -> 'a
(** [with_request_sink s f] runs [f] with [s] open for the calling
    thread ({!Util.Counters.with_sink}): [f]'s counts land in [s] and in
    any sink already open around it. Concurrent callers on distinct
    threads or domains do not interfere. *)

val request_sink_rows : request_sink -> (string * int) list
(** The sink's accumulated rows, sorted, zero rows dropped — the shape
    and names of {!stats_table}. *)

(** {1 Pass-prefix incremental compilation}

    A sweep's configurations (Ranking's one-disabled-each set, Tuning's
    search frontier) mostly run the identical pipeline prefix up to
    their first divergence. The sweep planner groups a config set by
    shared prefix, executes each shared segment once
    ({!Toolchain.advance} over an {!Ir.Snapshot}-backed checkpoint),
    and schedules only the divergent suffixes ({!Toolchain.resume}) on
    the Domain pool. Contested entries are probed as they run: when an
    entry leaves the state digest (and backend options) unchanged it
    was a no-op on this subject, the divergence is immaterial, and both
    sides keep sharing — configs merging all the way to the end of the
    pipeline share a single backend run. Every produced binary is
    byte-identical to a straight-line compile and is seeded into the
    ordinary tier-1 table, so downstream consumers cannot tell the
    difference — except in wall clock. See DESIGN.md "Incremental
    compilation". *)

val compile_sweep : t -> Suite_types.sprogram -> Config.t list -> unit
(** Prewarm tier 1 for a sweep over one program: compile every
    not-yet-cached configuration, sharing pipeline prefixes. After the
    call, {!compile}, {!measure} and {!bench_cost} of any swept
    configuration reach a tier-1 hit. Duplicate fingerprints are
    planned once; each planned configuration probes the store once, and
    the source is parsed only when something is left to plan.

    Planner activity goes to the process counter table:
    [prefix/hits] (sweep compiles that skipped a shared prefix),
    [prefix/misses] (sweep compiles with nothing to share),
    [prefix/snapshot_bytes], [prefix/passes_skipped] (total pipeline
    entries not re-executed), [prefix/merged] (configs served a
    sibling's binary outright because every contested entry between
    them was a no-op). [hits]/[misses]/[passes_skipped] report the
    structural divergence trie — [passes_skipped] is exactly the sum of
    shared-prefix lengths, independent of how much better no-op merging
    did. *)

val workers : t -> int

val stats : t -> Util.Counters.table
(** This engine's cache counters: [engine/<cache>/hits|misses|dedups]
    for every memo table it owns or hands out ({!memo}). A dedup is a
    tier-2 content collision — a fresh compile whose binary digest was
    already measured, served without re-tracing or re-running. *)

val store : t -> Engine.Disk_store.t option
(** The persistent store this engine was created with, if any. *)

val stats_table : t -> (string * int) list
(** One flat [(name, value)] table merging every counter source, sorted
    by name, zero rows dropped:
    - this engine's caches ([engine/<cache>/hits|misses|dedups]);
    - its disk store, if any
      ([store/<cache>/hits|misses|writes|corrupt|stale|evicted|evicted_ext]);
    - the process table: sanitizer boundaries
      ([sanitize/<pass>/checked|failures]), the pass-prefix planner
      ([prefix/hits|misses|snapshot_bytes|passes_skipped|merged], see
      {!compile_sweep}), the sharded experiment runner
      ([shard/programs|rows|resumed_programs]) and tuning search
      ([search/<name>], see {!Tuning.search});
    - the live [Obs] session's counters ([obs/<name>]).

    The single stats path behind [bench --stats] and the CLI, in both
    text and JSON renderings. *)

val memo : t -> name:string -> (unit -> 'a Engine.Memo.t)
(** A fresh memo table wired to this engine's counters, for derived
    results keyed by {!Config.fingerprint} (rankings, trade-off points,
    speedup rows). *)
