(** Command-line options shared by the bench harness and the CLI: each
    switch's name, metavariable and help string declared exactly once.
    The bench harness consumes the switches of {!common} via {!parse};
    the cmdliner CLI builds its [Arg.info]s from the same {!spec}s and
    from the CLI-only ones ({!socket} onwards). Keep this module
    free of cmdliner — util underpins every library in the repo. *)

type spec = {
  o_name : string;  (** long option, with the leading "--" *)
  o_docv : string option;  (** argument metavariable; [None] = flag *)
  o_doc : string;
      (** help string, in cmdliner's doc markup: write
          [$(b,DEBUGTUNER_CACHE)], never a bare ['$'] *)
}

val stats : spec
val json : spec
val jobs : spec
val sanitize : spec
val trace : spec
val profile : spec
val cache_dir : spec
val no_cache : spec
val socket : spec
val listen : spec
val timeout : spec
val queue_limit : spec
val connect : spec
val shard : spec
val corpus : spec
val partial_dir : spec

type common = {
  mutable c_stats : bool;
  mutable c_json : string option;
  mutable c_jobs : int;
  mutable c_sanitize : bool;
  mutable c_trace : string option;
  mutable c_profile : bool;
  mutable c_cache_dir : string option;
  mutable c_no_cache : bool;
}

val defaults : unit -> common

val parse_shard : string -> (int * int, string) result
(** The single strict ["I/N"] shard-spec parser shared by every
    front-end: 1-based index, [1 <= I <= N], digits only. Anything else
    ([0/4], [5/4], ["a/b"], missing slash) is an [Error] carrying a
    one-line message ready for a [debugtuner: <msg>] usage error. *)

val parse : common -> string list -> string list
(** [parse c argv] consumes every option of {!common} from [argv] into
    [c] and returns the unrecognized arguments in their original order.
    Raises [Invalid_argument] on a missing or malformed option
    argument. *)

val kv_lines : (string * int) list -> string list
(** A unified counter table as aligned ["name   value"] text lines. *)

val kv_json_rows : (string * int) list -> string list
(** The same table as one JSON object per row
    ([{"name": ..., "value": ...}]); the caller joins and indents. *)
