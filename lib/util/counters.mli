(** Named counters: the one way the repository counts.

    A {!table} holds named integer counters. {!bump} adds to one table
    and to every {!sink} the calling request has open, so a service
    request can report exactly its own work while other requests run:
    a sink is found through [Domain.DLS], keyed by thread as well
    (systhreads share a domain), and the bump path takes no lock at
    all — a table is an immutable map from name to [Atomic] cell, held
    in an [Atomic] and extended by compare-and-set the first time a
    name is used.

    Rows ({!rows}, {!sink_rows}) are always sorted by name with zero
    rows dropped. *)

type table

val create : unit -> table
(** A fresh, empty table. *)

val process : table
(** The process-wide table: the default target of {!bump}. *)

val bump : ?table:table -> ?n:int -> string -> unit
(** [bump ?table ?n name] adds [n] (default 1) to [name] in [table]
    (default {!process}) and in every sink open in the calling
    scope. Domain- and thread-safe; lock-free. *)

val rows : table -> (string * int) list
(** Every non-zero counter, sorted by name. *)

(** {1 Request-scoped sinks} *)

type sink
(** A table that receives the bumps made inside {!with_sink}. *)

val create_sink : unit -> sink

val with_sink : sink -> (unit -> 'a) -> 'a
(** [with_sink s f] runs [f] with [s] open for the calling thread: every
    bump [f] makes (directly, or on pool workers that {!within} its
    scope) lands in [s] and is still forwarded to the sinks already
    open around it. Concurrent callers on distinct threads or domains
    never see each other's bumps. *)

val sink_rows : sink -> (string * int) list
(** The sink's rows, in the shape of {!rows}. *)

val scoped : (unit -> 'a) -> 'a * (string * int) list
(** [scoped f] is [f ()] together with the rows its own work produced —
    {!with_sink} over a fresh sink. *)

(** {1 Carrying a scope to another domain} *)

type scope
(** The sinks open at one point of execution. *)

val current_scope : unit -> scope

val within : scope -> (unit -> 'a) -> 'a
(** [within sc f] runs [f] on the calling thread with exactly the sinks
    of [sc] open — how a worker pool makes its workers count for the
    request that spawned them. *)
