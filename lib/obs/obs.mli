(** Zero-cost-when-disabled tracing: spans, counters, per-pass
    profiles, Chrome [trace_event] export and a self-time report.

    Install a session with {!start}; every recording entry point is a
    single match on the session ref when disabled — no clock read, no
    allocation — so call sites stay instrumented unconditionally. *)

module Clock : sig
  val now_ns : unit -> int64
  (** Monotonic clock, nanoseconds (bechamel's [CLOCK_MONOTONIC] stub;
      no allocation). *)
end

(** {1 Sessions} *)

(** A complete span (Chrome [ph:"X"]), recorded when it closes. *)
type event = {
  ev_name : string;
  ev_dur : int64;  (** duration in ns *)
  ev_ts : int64;  (** start, in ns since the session started *)
  ev_tid : int;  (** recording domain — engine workers get own lanes *)
  ev_args : (string * string) list;  (** per-span key/value attributes *)
}

type session

val start : unit -> unit
(** Install a fresh process-wide recording session (idempotent). *)

val stop : unit -> session option
(** Uninstall and return the active session, if any. *)

val enabled : unit -> bool

(** {1 Recording} *)

module Span : sig
  val wrap : ?args:(string * string) list -> string -> (unit -> 'a) -> 'a
  (** [wrap name f] runs [f] inside a span, recorded even when [f]
      raises. Disabled: exactly [f ()]. *)
end

val count : ?n:int -> string -> unit
(** Bump the active session's [obs/<name>] counter (default 1) through
    {!Util.Counters.bump}, so the calling request's sinks see it too.
    No-op when disabled. *)

val pipeline_instrument : unit -> Instrument.t option
(** The tracer's view of one compilation — [Some] only while a session
    is active. Each phase becomes a span named ["phase:<name>"], emitted
    when the phase ends; each pass becomes a span (self time by
    construction: the span runs from the previous boundary to this one)
    and accumulates into the session's per-pass profiles with
    IR/debug-info deltas. A span
    the compiling domain completes between two boundaries ([Toolchain]'s
    ["cleanup"]) becomes a profile row of its own, with zero deltas, and
    its time leaves the pass's row. Create one per compile: the closure
    carries that compile's boundary state. *)

(** {1 Session contents} *)

val events : session -> event list
(** Spans in emission order: a span follows the spans nested in it. *)

val counters : session -> (string * int) list
(** Session counters (without the [obs/] prefix), sorted by name. *)

val current_counters : unit -> (string * int) list
(** Counters of the active session; [[]] when disabled. *)

type pass_profile = {
  pr_pass : string;
  pr_calls : int;  (** pass invocations across all compiles recorded *)
  pr_ns : int64;  (** total wall time across invocations *)
  pr_delta : Instrument.counts;
      (** summed per-invocation deltas: instruction/block counts and
          debug-info line/variable coverage *)
}

val profiles : session -> pass_profile list
(** Per-pass profiles in first-execution order. *)

(** {1 Exporters} *)

val to_chrome_json : session -> string
(** The Chrome [trace_event] JSON document ([{"traceEvents": [...]}]),
    loadable in [chrome://tracing] / Perfetto; timestamps in
    microseconds relative to session start. *)

type self_row = {
  sr_name : string;
  sr_calls : int;
  sr_total_ns : int64;
  sr_self_ns : int64;  (** total minus time spent in nested spans *)
}

val self_times : session -> self_row list
(** Per-name self times, sorted descending. *)

val self_time_report : session -> string
(** {!self_times} rendered as a text table. *)

(** {1 Validation} *)

type validation = {
  v_events : int;  (** events checked (metadata excluded) *)
  v_spans : (string * int) list;
      (** per-name span counts ([B] and [X] events), sorted *)
}

val validate_chrome : string -> (validation, string) result
(** Check a Chrome [trace_event] document: well-formed JSON, every event
    carries a string name, a [ph] of B/E/X/M, a non-negative numeric
    [ts] (and [dur] for X), and per-[(pid, tid)] lane the B/E events
    nest and balance. *)
