(** The measurement engine's generic substrate: a persistent store,
    memo tables and a worker pool, ignorant of the compiler model.

    Every table of the paper's evaluation is assembled from the same
    primitive — compile a program under a configuration, trace it, and
    compute metrics — and the experiment drivers re-request identical
    jobs thousands of times. [Debugtuner.Measure_engine] caches that
    primitive; this library holds the pieces it is built from:

    - {!Disk_store}: a persistent content-addressed artifact store — a
      versioned on-disk cache directory behind every memo table, so
      measurement survives process restarts and long experiment runs
      are resumable;
    - {!Memo}: a mutex-protected content-addressed memo table (string
      key -> value) whose hits, misses and dedups are counted in a
      {!Util.Counters} table, so the caching is observable (surfaced by
      [bench/main.exe --stats]);
    - {!Pool}: an optional [Domain]-based worker pool with a
      deterministic ordered reduction — results come back in input
      order, so parallel runs print byte-identical tables.

    The library depends on the standard library, [Unix] (for the disk
    store's atomic-rename publication and LRU clock) and [util] (for
    {!Util.Counters}, which also carries every count to the calling
    request's sink). *)

(** {1 Persistent content-addressed artifact store} *)

(** A disk-backed second level behind the in-memory memo tables: a
    cache directory of write-once entries, keyed by the same content
    addresses, published with atomic write-then-rename so concurrent
    writers (domains of one process, or separate processes sharing the
    directory) can never expose a half-written entry under its final
    name. Every entry carries a format-version + schema stamp and a
    payload checksum: stale or damaged entries are detected on read,
    evicted, counted, and recomputed — never trusted. The store is
    size-bounded with LRU eviction (a read refreshes the entry's
    mtime). All failures degrade to cache misses; the store can never
    change a result or fail a run. *)
module Disk_store : sig
  type t

  val format_version : int
  (** Bumped whenever the on-disk entry layout changes; entries written
      by any other version self-invalidate on read. *)

  val create : ?max_bytes:int -> ?schema:string -> dir:string -> unit -> t
  (** Open (creating if needed) the store rooted at [dir]. [schema] is
      the caller's serialization-format stamp — entries written under a
      different schema are treated as stale. [max_bytes] bounds the
      total entry payload on disk (default 512 MiB); exceeding it
      triggers LRU eviction. *)

  val dir : t -> string

  val get : t -> cache:string -> key:string -> string option
  (** The stored bytes for [key] in the named cache, verifying the
      version stamp and checksum. Stale and corrupt entries are evicted
      and reported as misses. *)

  val put : t -> cache:string -> key:string -> string -> unit
  (** Publish an entry atomically (write to a temp file, then rename).
      Failures are swallowed: the store degrades to a miss. *)

  val invalidate : t -> cache:string -> key:string -> unit
  (** Evict one entry and count it as corrupt — for callers whose
      decoding failed after {!get} succeeded. *)

  val clear : t -> int
  (** Remove every entry (and abandoned temp files); returns how many
      entries were removed. *)

  val gc : t -> int
  (** Maintenance sweep: drop stale/corrupt entries, enforce
      [max_bytes] by LRU, remove abandoned temp files. Returns the
      number of stale/corrupt entries removed. *)

  val entry_count : t -> int
  val size_bytes : t -> int

  val summary : t -> (string * int * int) list
  (** Per-cache [(name, entries, bytes)], sorted. *)

  val counters : t -> (string * int) list
  (** This handle's activity as {!Util.Counters.rows} —
      [store/<cache>/hits|misses|writes|corrupt|stale|evicted|evicted_ext].
      [evicted] counts this handle's own LRU/gc removals; [evicted_ext]
      counts entries this handle published that later vanished from
      disk, i.e. evictions performed by another process sharing the
      directory. *)

  (** {2 Observability seam} *)

  type io_wrap = {
    wrap : 'a. string -> (string * string) list -> (unit -> 'a) -> 'a;
  }

  val set_io_wrap : io_wrap option -> unit
  (** Install a wrapper bracketing every store I/O ([store:get],
      [store:put], [store:gc]) — Measure_engine points this at [Obs]
      spans/counters without this library depending on lib/obs. *)
end

(** {1 Content-addressed memo tables} *)

module Memo : sig
  type 'a t

  val create :
    ?counters:Util.Counters.table ->
    ?store:Disk_store.t ->
    name:string ->
    unit ->
    'a t
  (** A fresh table. When [counters] is given, lookups bump
      [engine/<name>/hits|misses] there. When [store] is given,
      the table is read-through / write-through persistent: misses consult the disk store (under
      the cache named [name], values [Marshal]ed) and computed values
      are published back. A disk payload that fails to decode is
      evicted and recomputed. *)

  val find_or_add : ?hit:string -> 'a t -> string -> (unit -> 'a) -> 'a
  (** [find_or_add t key produce] returns the cached value for [key],
      running [produce] (outside the table lock) on a miss. [produce]
      must be deterministic in [key]: under parallel execution two
      domains may race on the same key and the first inserted value
      wins. [hit] names the counter a hit bumps (default ["hits"]; the
      measurement engine's tier 2 passes ["dedups"] for a hit reached
      through a fresh compile). *)

  val fill : 'a t -> string -> (unit -> 'a) -> 'a
  (** [find_or_add]'s miss path alone: count a miss, run [produce] and
      publish its value, reading neither memory nor disk first — for a
      key a {!find_opt} has just missed, so the store is probed once. *)

  val find_opt : 'a t -> string -> 'a option
  val add : 'a t -> string -> 'a -> unit
end

(** {1 Deterministic worker pool} *)

module Pool : sig
  type t

  val create : ?workers:int -> unit -> t
  (** [workers <= 1] (the default) is the sequential fallback: [map] is
      exactly [List.map]. *)

  val workers : t -> int

  val map : t -> ('a -> 'b) -> 'a list -> 'b list
  (** Ordered parallel map: the result list matches the input order
      element-for-element regardless of worker count or scheduling, so
      any reduction over it is deterministic. Exceptions raised by [f]
      are re-raised (the one attached to the earliest input wins).
      Workers run {!Util.Counters.within} the caller's scope, so their
      counts land in the caller's request sinks. *)
end
