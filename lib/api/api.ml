(** The one typed Request/Response API every front-end dispatches
    through.

    A {!Request.t} is a serializable description of one unit of work —
    exactly what a CLI invocation's flags encode today: a subject
    program, a {!Config.t}, and per-kind options. {!execute} turns a
    request into a {!Response.t}: a status, the canonical rendered
    report (the bytes the CLI prints), an optional secondary artifact
    (a trace JSON, an AutoFDO profile), and the request's own counter
    rows (named as in {!Measure_engine.stats_table}). The CLI is one
    transport over this module (parse flags, execute, print); the
    [debugtuner serve] daemon ([Api_server]) is a second one
    (length-prefixed JSON over a Unix socket, see [Framing]) — both
    produce byte-identical output for the same request, asserted in
    ci.sh.

    The JSON codecs are canonical (fixed field order, no whitespace),
    stamped with {!version}, tolerate unknown fields on decode, and
    reject documents stamped with any other version. *)

module Config = Debugtuner.Config
module Measure_engine = Debugtuner.Measure_engine
module Evaluation = Debugtuner.Evaluation
module Experiments = Debugtuner.Experiments
module Toolchain = Debugtuner.Toolchain
module Ranking = Debugtuner.Ranking
module Tuning = Debugtuner.Tuning
module Autofdo = Debugtuner.Autofdo
module Value_oracle = Debugtuner.Value_oracle

let version = 1

(* ------------------------------------------------------------------ *)
(* Jobs: the sharded corpus-experiment description                      *)

(** A complete, serializable description of one corpus-experiment run —
    what to measure (corpus spec + configuration set), what to render
    (table selection), and which slice of the work this process owns
    (shard spec). The same job value drives every front-end: the CLI
    runs it in-process, [--connect] ships it to the daemon, the bench
    harness and the shard workers build it programmatically. Because
    the whole description travels in the request, [n] workers given the
    same job (with different shard indices) partition the identical
    corpus without any other coordination channel. *)
module Job = struct
  type t = {
    j_tables : string list;
        (** which final tables to render ({!table_names}); [[]] = all.
            Ignored by sharded runs, which return rows, not tables. *)
    j_seed : int;  (** corpus generator seed *)
    j_corpus : int;  (** corpus size (number of programs) *)
    j_configs : Config.t list;
        (** configurations to measure, in presentation order;
            [[]] = the standard set ({!Experiments.all_standard_configs}) *)
    j_shard : (int * int) option;
        (** [Some (i, n)]: run only shard [i] of [n] (1-based,
            [1 <= i <= n]) and return a {!Partial.t} instead of tables *)
  }

  let table_names = [ "summary"; "families" ]
  (** The renderable corpus tables, in {!Experiments.corpus_tables}
      order. *)

  let make ?(tables = []) ?(configs = []) ?shard ~seed ~corpus () =
    { j_tables = tables; j_seed = seed; j_corpus = corpus;
      j_configs = configs; j_shard = shard }
end

(** One shard's result: the row fragment it computed plus everything
    needed to validate a merge (corpus identity, shard arithmetic,
    configuration order). This is at once the [Response] payload of a
    sharded [Experiments] request, the element type of a [Merge]
    request, and — via {!partial_to_json} — the canonical partial-file
    format shard workers leave in [--partial-dir]. *)
module Partial = struct
  type t = {
    pt_shard : int;  (** this shard's 1-based index *)
    pt_shards : int;  (** total shard count *)
    pt_seed : int;
    pt_corpus : int;  (** the job's corpus spec, echoed *)
    pt_digest : string;
        (** {!Experiments.corpus_digest} — merge refuses partials that
            disagree, or that disagree with this build's generator *)
    pt_configs : string list;  (** {!Config.name}s in presentation order *)
    pt_programs : int;  (** corpus entries this shard measured *)
    pt_rows : Experiments.corpus_row list;
  }
end

(* ------------------------------------------------------------------ *)
(* Requests                                                            *)

module Request = struct
  (** What to operate on. File I/O stays in the transport: a CLI path
      argument is read client-side into [Inline], so the daemon never
      touches a client's filesystem. *)
  type subject =
    | Named of string  (** a built-in suite / SPEC / selfcomp program *)
    | Inline of { in_name : string; in_source : string }

  (** The compile-family sub-modes: everything derived from one
      compiled binary (the CLI's compile/measure/dump/verify/disasm/
      dwarf-size/passes/pass-trace/trace/debug/sample/value-check). *)
  type view =
    | Summary
    | Measure
    | Dump of string list  (** sections; [[]] = all *)
    | Verify
    | Disasm of string option
    | Dwarf_size
    | Passes
    | Pass_trace
    | Trace of { t_entry : string option; t_input : int list }
    | Debug of { d_entry : string option; d_commands : string list }
    | Sample of { s_entry : string option; s_period : int }
    | Value_check of { v_entry : string option; v_input : int list }

  type bench_action =
    | Exec of { x_entry : string; x_input : int list }
    | Cost

  type cache_action = Op_stats | Op_clear | Op_gc

  type stats_what = Counters | Suite | Server

  type t =
    | Compile of {
        c_subject : subject;
        c_config : Config.t;
        c_profile : string option;  (** AutoFDO text profile, inline *)
        c_sanitize : bool;
        c_view : view;
      }
    | Rank of { r_config : Config.t; r_k : int }
    | Tune of { t_config : Config.t; t_y : int }
    | Search of {
        se_config : Config.t;  (** the base level whose 2^N space to search *)
        se_strategy : Tuning.strategy;
        se_budget : int;
        se_seed : int;
        se_debug_weight : float;
        se_speed_weight : float;
      }
    | Check of {
        k_subject : subject option;
        k_fuzz : int;
        k_seed : int;
        k_suite : bool;
      }
    | Profile of {
        p_subject : subject;
        p_config : Config.t;
        p_sanitize : bool;
        p_stats : bool;
        p_trace : bool;  (** capture a Chrome trace as the artifact *)
      }
    | Bench of {
        b_subject : subject;
        b_config : Config.t;
        b_action : bench_action;
      }
    | Cache_op of { o_action : cache_action; o_dir : string option }
    | Stats of { s_what : stats_what }
    | Experiments of { e_job : Job.t }
        (** run a corpus-experiment job (or one shard of it) *)
    | Merge of { m_partials : Partial.t list }
        (** fold a complete set of shard partials into the final
            tables — byte-identical to the unsharded run *)

  let subject_name = function
    | Named n -> n
    | Inline { in_name; _ } -> in_name
end

(* ------------------------------------------------------------------ *)
(* Responses                                                           *)

module Response = struct
  type status = Ok | Error of string | Overloaded

  (** The typed result payload, for clients that want structure rather
      than the rendered [text]. *)
  type data =
    | D_none
    | D_compiled of {
        dc_program : string;
        dc_config : string;
        dc_instrs : int;
        dc_funcs : int;
        dc_text_digest : string;
      }
    | D_ranked of {
        dr_config : string;
        dr_top : (string * float * float) list;
            (** pass, +% geomean increment, average rank *)
      }
    | D_tuned of {
        dt_config : string;
        dt_disabled : string list;
        dt_debug : float;
        dt_speedup : float;
      }
    | D_frontier of {
        df_config : string;  (** base level searched *)
        df_strategy : string;
        df_seed : int;
        df_budget : int;
        df_evaluated : int;
        df_dominated : int;
        df_front : (string * float * float) list;
            (** config name, debug product, speedup — the Pareto front,
                sorted by (debug, speedup, name) *)
      }
    | D_checked of {
        dk_programs : int;
        dk_configs : int;
        dk_runs : int;
        dk_skipped : int;
        dk_failures : int;
      }
    | D_cost of int
    | D_counters of (string * int) list
    | D_partial of Partial.t
        (** a sharded [Experiments] run's typed result fragment *)

  type t = {
    status : status;
    text : string;
        (** canonical rendering — exactly what the CLI prints on stdout *)
    artifact : string option;
        (** secondary document (trace JSON, AutoFDO profile text); the
            transport decides where it goes ([-o FILE], stdout, ...) *)
    data : data;
    stats : (string * int) list;
        (** this request's own counter rows, named as in
            {!Measure_engine.stats_table}: every count its work made
            (pool workers included) lands in the request's sink (see
            {!Util.Counters}), so requests running alongside it never
            leak in *)
    exit_code : int;
  }

  let ok ?(artifact = None) ?(data = D_none) ?(exit_code = 0) text stats =
    { status = Ok; text; artifact; data; stats; exit_code }
end

(* ------------------------------------------------------------------ *)
(* JSON codecs                                                         *)

module J = Util.Json

exception Decode_error of string

(** One description per wire type. A value of type ['a Codec.t] is
    built from the combinators below, and both its encoder and its
    decoder come from that one description. Decoders look fields up by
    name, so unknown fields are ignored, and a field of the wrong type
    reads as missing. *)
module Codec = struct
  type 'a t = { enc : 'a -> J.t; dec : J.t -> 'a }

  let dfail fmt = Printf.ksprintf (fun s -> raise (Decode_error s)) fmt

  (* A leaf met a value of the wrong type; the field around it reports
     the field as missing. *)
  exception Mismatch

  let leaf enc get =
    { enc; dec = (fun j -> match get j with Some v -> v | None -> raise Mismatch) }

  let int = leaf (fun i -> J.Num (float_of_int i)) J.int
  let float = leaf (fun f -> J.Num f) J.num
  let string = leaf (fun s -> J.Str s) J.str
  let bool = leaf (fun b -> J.Bool b) J.bool

  let list c =
    {
      enc = (fun l -> J.Arr (List.map c.enc l));
      dec = (function J.Arr l -> List.map c.dec l | _ -> raise Mismatch);
    }

  let conv proj inj c =
    { enc = (fun x -> c.enc (proj x)); dec = (fun j -> inj (c.dec j)) }

  (** Names written as strings; [what] names the enumeration in errors. *)
  let enum what name of_name =
    {
      enc = (fun x -> J.Str (name x));
      dec =
        (fun j ->
          let s = string.dec j in
          match of_name s with Some x -> x | None -> dfail "unknown %s %S" what s);
    }

  let enum_list what name values =
    enum what name (fun s -> List.find_opt (fun v -> name v = s) values)

  (* -- objects -- *)

  type 'a field = { put : 'a -> (string * J.t) list; get : J.t -> 'a }

  let missing name = dfail "missing field %S" name
  let read name c v = try c.dec v with Mismatch -> missing name

  let req name c =
    {
      put = (fun x -> [ (name, c.enc x) ]);
      get =
        (fun j ->
          match J.field name j with Some v -> read name c v | None -> missing name);
    }

  (** [None] is written as null, or left out with [~null:false]; null and
      a missing key both read as [None]. *)
  let opt ?(null = true) name c =
    {
      put =
        (function
        | Some x -> [ (name, c.enc x) ]
        | None -> if null then [ (name, J.Null) ] else []);
      get =
        (fun j ->
          match J.field name j with
          | None | Some J.Null -> None
          | Some v -> Some (read name c v));
    }

  (* Fields are written in order and read in order. *)
  let ( @+ ) a b =
    {
      put = (fun (x, y) -> a.put x @ b.put y);
      get =
        (fun j ->
          let x = a.get j in
          (x, b.get j));
    }

  let obj1 f = { enc = (fun x -> J.Obj (f.put x)); dec = f.get }
  let obj2 a b = obj1 (a @+ b)

  let obj3 a b c =
    conv (fun (a, b, c) -> (a, (b, c))) (fun (a, (b, c)) -> (a, b, c)) (obj2 a (b @+ c))

  let obj4 a b c d =
    conv
      (fun (a, b, c, d) -> (a, (b, (c, d))))
      (fun (a, (b, (c, d))) -> (a, b, c, d))
      (obj2 a (b @+ c @+ d))

  let obj5 a b c d e =
    conv
      (fun (a, b, c, d, e) -> (a, (b, (c, (d, e)))))
      (fun (a, (b, (c, (d, e)))) -> (a, b, c, d, e))
      (obj2 a (b @+ c @+ d @+ e))

  let obj6 a b c d e f =
    conv
      (fun (a, b, c, d, e, f) -> (a, (b, (c, (d, (e, f))))))
      (fun (a, (b, (c, (d, (e, f))))) -> (a, b, c, d, e, f))
      (obj2 a (b @+ c @+ d @+ e @+ f))

  let obj7 a b c d e f g =
    conv
      (fun (a, b, c, d, e, f, g) -> (a, (b, (c, (d, (e, (f, g)))))))
      (fun (a, (b, (c, (d, (e, (f, g)))))) -> (a, b, c, d, e, f, g))
      (obj2 a (b @+ c @+ d @+ e @+ f @+ g))

  let obj8 a b c d e f g h =
    conv
      (fun (a, b, c, d, e, f, g, h) -> (a, (b, (c, (d, (e, (f, (g, h))))))))
      (fun (a, (b, (c, (d, (e, (f, (g, h))))))) -> (a, b, c, d, e, f, g, h))
      (obj2 a (b @+ c @+ d @+ e @+ f @+ g @+ h))

  (* [versioned] and [union] add keys to the objects they wrap. *)
  let members = function J.Obj fields -> fields | _ -> invalid_arg "Codec.members"

  (** Stamped with ["v"], which is checked before anything else. *)
  let versioned c =
    let stamp = "v" in
    {
      enc = (fun x -> J.Obj ((stamp, int.enc version) :: members (c.enc x)));
      dec =
        (fun j ->
          (match J.field stamp j with
          | Some (J.Num f) when f = float_of_int version -> ()
          | Some (J.Num f) ->
              dfail "unsupported api version %s (this build speaks %d)"
                (J.number_to_string f) version
          | _ -> dfail "missing version stamp %S" stamp);
          c.dec j);
    }

  type 'a case = Case : string * 'b t * ('b -> 'a) * ('a -> 'b option) -> 'a case

  let case name c inj proj = Case (name, c, inj, proj)

  let case0 name v =
    let none = obj1 { put = (fun () -> []); get = ignore } in
    case name none (fun () -> v) (fun x -> if x = v then Some () else None)

  let kind = req "kind" string

  (** One object per case, tagged with the case's ["kind"]; [what] names
      the tag in errors. *)
  let union what cases =
    {
      enc =
        (fun x ->
          let rec go = function
            | [] -> invalid_arg "Codec.union"
            | Case (name, c, _, proj) :: rest -> (
                match proj x with
                | Some y -> J.Obj (kind.put name @ members (c.enc y))
                | None -> go rest)
          in
          go cases);
      dec =
        (fun j ->
          let k = kind.get j in
          match List.find_opt (fun (Case (name, _, _, _)) -> name = k) cases with
          | Some (Case (_, c, inj, _)) -> inj (c.dec j)
          | None -> dfail "unknown %s %S" what k);
    }

  (* -- the wire types -- *)

  let strategy = enum "search strategy" Tuning.strategy_name Tuning.strategy_of_string

  let cache_op =
    enum_list "cache op"
      (function Request.Op_stats -> "stats" | Op_clear -> "clear" | Op_gc -> "gc")
      Request.[ Op_stats; Op_clear; Op_gc ]

  let stats_what =
    enum_list "stats selector"
      (function Request.Counters -> "counters" | Suite -> "suite" | Server -> "server")
      Request.[ Counters; Suite; Server ]

  let config : Config.t t =
    conv
      (fun (c : Config.t) -> (c.compiler, c.level, c.disabled))
      (fun (compiler, level, disabled) -> Config.make ~disabled compiler level)
      (obj3
         (req "compiler" (enum_list "compiler" Config.compiler_name [ Gcc; Clang ]))
         (req "level" (enum_list "level" Config.level_name [ O0; Og; O1; O2; O3 ]))
         (req "disabled" (list string)))

  (** [config]'s decoder, under the name perfbench/ reads it by. *)
  let config_of_json = config.dec

  (* A named subject has no "source" key at all. *)
  let subject : Request.subject t =
    conv
      (function
        | Request.Named n -> (n, None)
        | Inline { in_name; in_source } -> (in_name, Some in_source))
      (function
        | n, None -> Request.Named n
        | in_name, Some in_source -> Inline { in_name; in_source })
      (obj2 (req "name" string) (opt ~null:false "source" string))

  let input = req "input" (list int)

  let view : Request.view t =
    let entry = opt "entry" string in
    union "view kind"
      Request.
        [
          case0 "summary" Summary;
          case0 "measure" Measure;
          case "dump" (obj1 (req "sections" (list string))) (fun s -> Dump s)
            (function Dump s -> Some s | _ -> None);
          case0 "verify" Verify;
          case "disasm" (obj1 (opt "func" string)) (fun f -> Disasm f)
            (function Disasm f -> Some f | _ -> None);
          case0 "dwarf-size" Dwarf_size;
          case0 "passes" Passes;
          case0 "pass-trace" Pass_trace;
          case "trace" (obj2 entry input)
            (fun (t_entry, t_input) -> Trace { t_entry; t_input })
            (function Trace { t_entry; t_input } -> Some (t_entry, t_input) | _ -> None);
          case "debug"
            (obj2 entry (req "commands" (list string)))
            (fun (d_entry, d_commands) -> Debug { d_entry; d_commands })
            (function
              | Debug { d_entry; d_commands } -> Some (d_entry, d_commands) | _ -> None);
          case "sample"
            (obj2 entry (req "period" int))
            (fun (s_entry, s_period) -> Sample { s_entry; s_period })
            (function
              | Sample { s_entry; s_period } -> Some (s_entry, s_period) | _ -> None);
          case "value-check" (obj2 entry input)
            (fun (v_entry, v_input) -> Value_check { v_entry; v_input })
            (function
              | Value_check { v_entry; v_input } -> Some (v_entry, v_input) | _ -> None);
        ]

  let bench_action : Request.bench_action t =
    union "bench action"
      Request.
        [
          case0 "cost" Cost;
          case "exec"
            (obj2 (req "entry" string) input)
            (fun (x_entry, x_input) -> Exec { x_entry; x_input })
            (function Exec { x_entry; x_input } -> Some (x_entry, x_input) | _ -> None);
        ]

  let shard =
    conv Fun.id
      (fun (i, n) ->
        if 1 <= i && i <= n then (i, n)
        else dfail "invalid shard %d/%d (need 1 <= index <= count)" i n)
      (obj2 (req "index" int) (req "count" int))

  let job : Job.t t =
    conv
      (fun { Job.j_tables; j_seed; j_corpus; j_configs; j_shard } ->
        (j_tables, j_seed, j_corpus, j_configs, j_shard))
      (fun (j_tables, j_seed, j_corpus, j_configs, j_shard) ->
        { Job.j_tables; j_seed; j_corpus; j_configs; j_shard })
      (obj5
         (req "tables" (list string))
         (req "seed" int) (req "corpus" int)
         (req "configs" (list config))
         (opt "shard" shard))

  (* Metric fields round-trip exactly: the canonical writer prints
     non-integral floats with %.17g, so a merge of JSON-decoded rows
     renders byte-identically to the single-process run. *)
  let corpus_row : Experiments.corpus_row t =
    conv
      (fun (r : Experiments.corpus_row) ->
        (r.cr_index, r.cr_program, r.cr_family, r.cr_config, r.cr_avail, r.cr_cov,
         r.cr_product))
      (fun (cr_index, cr_program, cr_family, cr_config, cr_avail, cr_cov, cr_product) ->
        { Experiments.cr_index; cr_program; cr_family; cr_config; cr_avail; cr_cov;
          cr_product })
      (obj7 (req "index" int) (req "program" string) (req "family" string)
         (req "config" string) (req "avail" float) (req "cov" float)
         (req "product" float))

  (* The partial carries its own version stamp: the same document is a
     standalone file in --partial-dir, so it must self-describe like
     any top-level request/response. *)
  let partial : Partial.t t =
    versioned
      (conv
         (fun (p : Partial.t) ->
           (p.pt_shard, p.pt_shards, p.pt_seed, p.pt_corpus, p.pt_digest, p.pt_configs,
            p.pt_programs, p.pt_rows))
         (fun (pt_shard, pt_shards, pt_seed, pt_corpus, pt_digest, pt_configs,
               pt_programs, pt_rows) ->
           if not (1 <= pt_shard && pt_shard <= pt_shards) then
             dfail "invalid partial shard %d/%d (need 1 <= shard <= shards)" pt_shard
               pt_shards;
           { Partial.pt_shard; pt_shards; pt_seed; pt_corpus; pt_digest; pt_configs;
             pt_programs; pt_rows })
         (obj8 (req "shard" int) (req "shards" int) (req "seed" int) (req "corpus" int)
            (req "digest" string)
            (req "configs" (list string))
            (req "programs" int)
            (req "rows" (list corpus_row))))

  let request : Request.t t =
    let subject_f = req "subject" subject and config_f = req "config" config in
    let sanitize = req "sanitize" bool and seed = req "seed" int in
    versioned
      (union "request kind"
         Request.
           [
             case "compile"
               (obj5 subject_f config_f (opt "profile" string) sanitize (req "view" view))
               (fun (c_subject, c_config, c_profile, c_sanitize, c_view) ->
                 Compile { c_subject; c_config; c_profile; c_sanitize; c_view })
               (function
                 | Compile { c_subject; c_config; c_profile; c_sanitize; c_view } ->
                     Some (c_subject, c_config, c_profile, c_sanitize, c_view)
                 | _ -> None);
             case "rank"
               (obj2 config_f (req "k" int))
               (fun (r_config, r_k) -> Rank { r_config; r_k })
               (function Rank { r_config; r_k } -> Some (r_config, r_k) | _ -> None);
             case "tune"
               (obj2 config_f (req "y" int))
               (fun (t_config, t_y) -> Tune { t_config; t_y })
               (function Tune { t_config; t_y } -> Some (t_config, t_y) | _ -> None);
             case "search"
               (obj6 config_f (req "strategy" strategy) (req "budget" int) seed
                  (req "debug_weight" float) (req "speed_weight" float))
               (fun (se_config, se_strategy, se_budget, se_seed, se_debug_weight,
                     se_speed_weight) ->
                 Search
                   { se_config; se_strategy; se_budget; se_seed; se_debug_weight;
                     se_speed_weight })
               (function
                 | Search
                     { se_config; se_strategy; se_budget; se_seed; se_debug_weight;
                       se_speed_weight } ->
                     Some
                       (se_config, se_strategy, se_budget, se_seed, se_debug_weight,
                        se_speed_weight)
                 | _ -> None);
             case "check"
               (obj4 (opt "subject" subject) (req "fuzz" int) seed (req "suite" bool))
               (fun (k_subject, k_fuzz, k_seed, k_suite) ->
                 Check { k_subject; k_fuzz; k_seed; k_suite })
               (function
                 | Check { k_subject; k_fuzz; k_seed; k_suite } ->
                     Some (k_subject, k_fuzz, k_seed, k_suite)
                 | _ -> None);
             case "profile"
               (obj5 subject_f config_f sanitize (req "stats" bool) (req "trace" bool))
               (fun (p_subject, p_config, p_sanitize, p_stats, p_trace) ->
                 Profile { p_subject; p_config; p_sanitize; p_stats; p_trace })
               (function
                 | Profile { p_subject; p_config; p_sanitize; p_stats; p_trace } ->
                     Some (p_subject, p_config, p_sanitize, p_stats, p_trace)
                 | _ -> None);
             case "bench"
               (obj3 subject_f config_f (req "action" bench_action))
               (fun (b_subject, b_config, b_action) ->
                 Bench { b_subject; b_config; b_action })
               (function
                 | Bench { b_subject; b_config; b_action } ->
                     Some (b_subject, b_config, b_action)
                 | _ -> None);
             case "cache"
               (obj2 (req "op" cache_op) (opt "dir" string))
               (fun (o_action, o_dir) -> Cache_op { o_action; o_dir })
               (function
                 | Cache_op { o_action; o_dir } -> Some (o_action, o_dir) | _ -> None);
             case "stats" (obj1 (req "what" stats_what)) (fun s_what -> Stats { s_what })
               (function Stats { s_what } -> Some s_what | _ -> None);
             case "experiments" (obj1 (req "job" job))
               (fun e_job -> Experiments { e_job })
               (function Experiments { e_job } -> Some e_job | _ -> None);
             case "merge"
               (obj1 (req "partials" (list partial)))
               (fun m_partials -> Merge { m_partials })
               (function Merge { m_partials } -> Some m_partials | _ -> None);
           ])

  let stats = list (obj2 (req "name" string) (req "value" int))

  let data : Response.data t =
    let config = req "config" string in
    let point name x y = list (obj3 (req name string) (req x float) (req y float)) in
    union "data kind"
      Response.
        [
          case0 "none" D_none;
          case "compiled"
            (obj5 (req "program" string) config (req "instrs" int) (req "funcs" int)
               (req "text_digest" string))
            (fun (dc_program, dc_config, dc_instrs, dc_funcs, dc_text_digest) ->
              D_compiled { dc_program; dc_config; dc_instrs; dc_funcs; dc_text_digest })
            (function
              | D_compiled { dc_program; dc_config; dc_instrs; dc_funcs; dc_text_digest }
                ->
                  Some (dc_program, dc_config, dc_instrs, dc_funcs, dc_text_digest)
              | _ -> None);
          case "ranked"
            (obj2 config (req "top" (point "pass" "pct" "rank")))
            (fun (dr_config, dr_top) -> D_ranked { dr_config; dr_top })
            (function
              | D_ranked { dr_config; dr_top } -> Some (dr_config, dr_top) | _ -> None);
          case "tuned"
            (obj4 config (req "disabled" (list string)) (req "debug" float)
               (req "speedup" float))
            (fun (dt_config, dt_disabled, dt_debug, dt_speedup) ->
              D_tuned { dt_config; dt_disabled; dt_debug; dt_speedup })
            (function
              | D_tuned { dt_config; dt_disabled; dt_debug; dt_speedup } ->
                  Some (dt_config, dt_disabled, dt_debug, dt_speedup)
              | _ -> None);
          case "frontier"
            (obj7 config (req "strategy" string) (req "seed" int) (req "budget" int)
               (req "evaluated" int) (req "dominated" int)
               (req "front" (point "name" "debug" "speedup")))
            (fun (df_config, df_strategy, df_seed, df_budget, df_evaluated, df_dominated,
                  df_front) ->
              D_frontier
                { df_config; df_strategy; df_seed; df_budget; df_evaluated; df_dominated;
                  df_front })
            (function
              | D_frontier
                  { df_config; df_strategy; df_seed; df_budget; df_evaluated;
                    df_dominated; df_front } ->
                  Some
                    (df_config, df_strategy, df_seed, df_budget, df_evaluated,
                     df_dominated, df_front)
              | _ -> None);
          case "checked"
            (obj5 (req "programs" int) (req "configs" int) (req "runs" int)
               (req "skipped" int) (req "failures" int))
            (fun (dk_programs, dk_configs, dk_runs, dk_skipped, dk_failures) ->
              D_checked { dk_programs; dk_configs; dk_runs; dk_skipped; dk_failures })
            (function
              | D_checked { dk_programs; dk_configs; dk_runs; dk_skipped; dk_failures } ->
                  Some (dk_programs, dk_configs, dk_runs, dk_skipped, dk_failures)
              | _ -> None);
          case "cost" (obj1 (req "cost" int)) (fun c -> D_cost c)
            (function D_cost c -> Some c | _ -> None);
          case "counters" (obj1 (req "rows" stats)) (fun rows -> D_counters rows)
            (function D_counters rows -> Some rows | _ -> None);
          case "partial" (obj1 (req "partial" partial)) (fun p -> D_partial p)
            (function D_partial p -> Some p | _ -> None);
        ]

  (* "ok", "overloaded", or {"error": message}. *)
  let status : Response.status t =
    let error = obj1 (req "error" string) in
    {
      enc =
        (function
        | Response.Ok -> J.Str "ok"
        | Overloaded -> J.Str "overloaded"
        | Error msg -> error.enc msg);
      dec =
        (function
        | J.Str "ok" -> Response.Ok
        | J.Str "overloaded" -> Overloaded
        | J.Obj _ as j -> Error (error.dec j)
        | _ -> dfail "bad status");
    }

  let response : Response.t t =
    versioned
      (conv
         (fun (r : Response.t) ->
           (r.status, r.exit_code, r.text, r.artifact, r.data, r.stats))
         (fun (status, exit_code, text, artifact, data, stats) ->
           { Response.status; exit_code; text; artifact; data; stats })
         (obj6 (req "status" status) (req "exit" int) (req "text" string)
            (opt "artifact" string) (req "data" data) (req "stats" stats)))
end

let decode (c : 'a Codec.t) text =
  match c.dec (J.parse text) with
  | v -> Ok v
  | exception Decode_error msg -> Error msg
  | exception J.Parse_error msg -> Error ("malformed JSON: " ^ msg)

let request_to_json r = J.to_string (Codec.request.enc r)
let request_of_json text = decode Codec.request text
let response_to_json r = J.to_string (Codec.response.enc r)
let response_of_json text = decode Codec.response text

let partial_to_json p = J.to_string (Codec.partial.enc p)
(** The canonical shard-partial file format ([--partial-dir]). *)

let partial_of_json text = decode Codec.partial text

(* ------------------------------------------------------------------ *)
(* Execution context                                                   *)

(** One context per process: the shared measurement engine, which owns
    the optional persistent store, the prepared subjects and every
    compile. The daemon keeps a single context alive across every
    client, so the millionth request hits warm memo tables; the CLI
    builds one per invocation. Subjects are prepared through the
    engine's persisted ["prepare"] table, as in {!Experiments}, so a
    daemon restarted over its store reads them back instead of fuzzing
    again.

    The daemon executes one request at a time, but {!execute} stays safe
    to call from many threads or domains at once on a shared context:
    the engine's memo tables and the disk store are domain-safe by
    construction, per-request counters come from request-scoped sinks
    (see {!Measure_engine.with_request_sink}) whose bump path takes no
    lock, and a global mutex serializes [profile] requests (the [Obs]
    session is process-wide). *)
type ctx = { engine : Measure_engine.t }

let create_ctx ?(workers = 1) ?store () =
  { engine = Measure_engine.create ~workers ?store () }

(** Server-introspection hook: [Api_server] installs its live counters
    here so a [Stats Server] request can be answered without a
    dependency cycle. *)
let server_counters_hook : (unit -> (string * int) list) ref = ref (fun () -> [])

(* ------------------------------------------------------------------ *)
(* Executors (the former CLI subcommand bodies, rendering to buffers)  *)

let bpf = Printf.bprintf

(* An inline subject is not parsed here: its source is first parsed
   where its AST is first needed ([Suite_types.ast], e.g. on a tier-1
   miss), which also checks that it defines [main]. A warm request
   therefore parses nothing. *)
let subject_program (s : Request.subject) : Suite_types.sprogram =
  match s with
  | Request.Inline { in_name; in_source } ->
      {
        Suite_types.p_name = in_name;
        p_source = in_source;
        p_harnesses =
          [ { Suite_types.h_name = "main"; h_entry = "main"; h_seeds = [ [] ] } ];
      }
  | Request.Named name -> (
      match
        List.find_opt (fun p -> p.Suite_types.p_name = name) Programs.all
      with
      | Some p -> p
      | None -> (
          match
            List.find_opt (fun p -> p.Suite_types.p_name = name) Spec.all
          with
          | Some p -> p
          | None ->
              if name = "selfcomp" then Selfcomp.program
              else failwith ("unknown program " ^ name)))

(** Prepared subjects are expensive (fuzzing-derived corpora): the
    engine keeps them, and on disk when the context has a store, so warm
    and restarted daemons skip preparation. *)
let prepared_of ctx p = Measure_engine.prepare ctx.engine p

let prepared_suite ctx = List.map (prepared_of ctx) Programs.all

(** Plain compiles (default options) go through the engine's tier 1,
    the same binaries {!exec_measure} and the sweeps use, so a warm
    daemon serves repeated views of the same (program, config) without
    recompiling. Sanitized or profile-fed compiles run straight — their
    side effects are the point. *)
let compile_subject ctx (p : Suite_types.sprogram) (cfg : Config.t)
    ~(profile : string option) ~(sanitize : bool) : Emit.binary =
  if profile = None && not sanitize then Measure_engine.compile ctx.engine p cfg
  else
    let profile = Option.map Autofdo.profile_of_string profile in
    Toolchain.compile
      ~options:(Toolchain.Options.make ?profile ~sanitize ())
      (Suite_types.ast p) ~config:cfg ~roots:(Suite_types.roots p)

let default_entry (p : Suite_types.sprogram) = function
  | Some e -> e
  | None -> (List.hd p.Suite_types.p_harnesses).Suite_types.h_entry

(* -- compile-family views -- *)

let exec_summary b (p : Suite_types.sprogram) cfg (bin : Emit.binary) =
  bpf b "%s at %s\n" p.Suite_types.p_name (Config.name cfg);
  bpf b "  code: %d instructions, %d functions\n"
    (Array.length bin.Emit.code)
    (Array.length bin.Emit.funcs);
  bpf b "  line table: %d entries, %d steppable lines\n"
    (List.length bin.Emit.debug.Dwarfish.line_table)
    (List.length (Dwarfish.steppable_lines bin.Emit.debug));
  bpf b "  variables with location info: %d\n"
    (List.length bin.Emit.debug.Dwarfish.vars);
  bpf b "  .text digest: %s\n" bin.Emit.text_digest;
  Response.D_compiled
    {
      dc_program = p.Suite_types.p_name;
      dc_config = Config.name cfg;
      dc_instrs = Array.length bin.Emit.code;
      dc_funcs = Array.length bin.Emit.funcs;
      dc_text_digest = bin.Emit.text_digest;
    }

let exec_measure ctx b (p : Suite_types.sprogram) cfg =
  let prepared = prepared_of ctx p in
  let m, _ = Measure_engine.measure ctx.engine prepared cfg in
  bpf b "%s at %s (vs the O0 baseline)\n" p.Suite_types.p_name (Config.name cfg);
  let show name (s : Metrics.score) =
    bpf b "  %-10s availability=%.4f line-coverage=%.4f product=%.4f\n" name
      s.Metrics.availability s.Metrics.line_coverage s.Metrics.product
  in
  show "static" m.Metrics.m_static;
  show "static-dbg" m.Metrics.m_static_dbg;
  show "dynamic" m.Metrics.m_dynamic;
  show "hybrid" m.Metrics.m_hybrid

let exec_dump b (p : Suite_types.sprogram) cfg bin sections =
  let sections =
    match sections with
    | [] -> Dwarfdump.all_sections
    | names ->
        List.map
          (fun n ->
            match Dwarfdump.section_of_string n with
            | Some s -> s
            | None -> failwith ("unknown section " ^ n))
          names
  in
  bpf b "%s at %s: %s\n\n" p.Suite_types.p_name (Config.name cfg)
    (Dwarfdump.summary bin);
  Buffer.add_string b (Dwarfdump.dump ~sections bin);
  Buffer.add_char b '\n';
  Buffer.add_string b (Dwarfdump.locstats_to_string (Dwarfdump.locstats bin))

let exec_verify b (p : Suite_types.sprogram) cfg bin =
  let ds = Debug_verify.verify bin in
  bpf b "%s at %s: %s" p.Suite_types.p_name (Config.name cfg)
    (Debug_verify.report ds);
  if ds <> [] then 1 else 0

let exec_dwarf_size b (p : Suite_types.sprogram) (cfg : Config.t) =
  let ast = Suite_types.ast p in
  bpf b "%-8s %12s %12s %12s %8s %8s\n" "level" ".debug_line" ".debug_loc"
    "total" "entries" "vars";
  List.iter
    (fun level ->
      let lcfg = Config.make cfg.Config.compiler level in
      let bin =
        Toolchain.compile ast ~config:lcfg ~roots:(Suite_types.roots p)
      in
      let line, locs, total = Dwarf_encode.section_sizes bin.Emit.debug in
      bpf b "%-8s %11dB %11dB %11dB %8d %8d\n" (Config.level_name level) line
        locs total
        (List.length bin.Emit.debug.Dwarfish.line_table)
        (List.length bin.Emit.debug.Dwarfish.vars))
    (Config.O0 :: Config.standard_levels cfg.Config.compiler)

let exec_pass_trace b (p : Suite_types.sprogram) cfg =
  let trace =
    Toolchain.pipeline_trace (Suite_types.ast p) ~config:cfg
      ~roots:(Suite_types.roots p)
  in
  bpf b "%-28s %8s %7s %9s %9s %6s\n" "pass" "instrs" "blocks" "bindings"
    "opt-out" "lines";
  let prev = ref None in
  List.iter
    (fun (name, (st : Toolchain.ir_stats)) ->
      let delta get =
        match !prev with
        | Some p when get p <> get st -> Printf.sprintf "%+d" (get st - get p)
        | _ -> ""
      in
      bpf b "%-28s %5d %2s %4d %2s %6d %2s %6d %2s %4d %2s\n" name
        st.Toolchain.st_instrs
        (delta (fun s -> s.Toolchain.st_instrs))
        st.Toolchain.st_blocks
        (delta (fun s -> s.Toolchain.st_blocks))
        st.Toolchain.st_bindings
        (delta (fun s -> s.Toolchain.st_bindings))
        st.Toolchain.st_optimized_out
        (delta (fun s -> s.Toolchain.st_optimized_out))
        st.Toolchain.st_lines
        (delta (fun s -> s.Toolchain.st_lines));
      prev := Some st)
    trace

let exec_trace (p : Suite_types.sprogram) bin entry input =
  let entry = default_entry p entry in
  let t = Debugger.trace bin ~entry ~inputs:[ input ] in
  Trace_json.to_string t

let exec_debug b (p : Suite_types.sprogram) bin entry commands =
  let entry = default_entry p entry in
  if commands = [] then
    Buffer.add_string b
      "no commands; pass them positionally or via -x FILE (commands: \
       break/tbreak/delete L, run [inputs], continue, step, next, finish, \
       print VAR, info locals|line|breakpoints, backtrace, quit)\n"
  else Buffer.add_string b (Session.script bin ~entry commands)

let exec_sample b (p : Suite_types.sprogram) cfg bin entry period =
  let entry = default_entry p entry in
  let workloads =
    List.concat_map (fun h -> h.Suite_types.h_seeds) p.Suite_types.p_harnesses
  in
  let coll = Autofdo.collect bin ~entry ~workloads ~period ~seed:7 in
  let text = Autofdo.profile_to_string coll.Autofdo.profile in
  bpf b
    "profiled %s at %s: %d samples taken, %d lost (%.1f%%) to missing line \
     info\n"
    p.Suite_types.p_name (Config.name cfg) coll.Autofdo.samples_taken
    coll.Autofdo.samples_lost
    (if coll.Autofdo.samples_taken = 0 then 0.0
     else
       100.0
       *. float_of_int coll.Autofdo.samples_lost
       /. float_of_int coll.Autofdo.samples_taken);
  text

let exec_value_check b (p : Suite_types.sprogram) (cfg : Config.t) entry input =
  let entry = default_entry p entry in
  let r =
    Value_oracle.check (Suite_types.ast p) ~config:cfg
      ~roots:(Suite_types.roots p) ~entry ~input
  in
  bpf b "%s at %s (%s):\n%s" p.Suite_types.p_name (Config.name cfg) entry
    (Value_oracle.report_to_string r);
  if cfg.Config.level = Config.O0 && r.Value_oracle.rp_mismatches <> [] then 1
  else 0

let run_compile ctx ~subject ~config ~profile ~sanitize (view : Request.view) =
  let b = Buffer.create 1024 in
  match view with
  | Request.Passes ->
      List.iter
        (fun name ->
          Buffer.add_string b name;
          Buffer.add_char b '\n')
        (Toolchain.pass_names config);
      (Buffer.contents b, None, Response.D_none, 0)
  | Request.Dwarf_size ->
      let p = subject_program subject in
      exec_dwarf_size b p config;
      (Buffer.contents b, None, Response.D_none, 0)
  | Request.Pass_trace ->
      let p = subject_program subject in
      exec_pass_trace b p config;
      (Buffer.contents b, None, Response.D_none, 0)
  | Request.Measure ->
      let p = subject_program subject in
      exec_measure ctx b p config;
      (Buffer.contents b, None, Response.D_none, 0)
  | Request.Value_check { v_entry; v_input } ->
      let p = subject_program subject in
      let code = exec_value_check b p config v_entry v_input in
      (Buffer.contents b, None, Response.D_none, code)
  | Request.Summary | Request.Dump _ | Request.Verify | Request.Disasm _
  | Request.Trace _ | Request.Debug _ | Request.Sample _ -> (
      let p = subject_program subject in
      let bin = compile_subject ctx p config ~profile ~sanitize in
      match view with
      | Request.Summary ->
          let data = exec_summary b p config bin in
          (Buffer.contents b, None, data, 0)
      | Request.Dump sections ->
          exec_dump b p config bin sections;
          (Buffer.contents b, None, Response.D_none, 0)
      | Request.Verify ->
          let code = exec_verify b p config bin in
          (Buffer.contents b, None, Response.D_none, code)
      | Request.Disasm func ->
          Buffer.add_string b (Objdump.disassemble ?func bin);
          (Buffer.contents b, None, Response.D_none, 0)
      | Request.Trace { t_entry; t_input } ->
          let artifact = exec_trace p bin t_entry t_input in
          (Buffer.contents b, Some artifact, Response.D_none, 0)
      | Request.Debug { d_entry; d_commands } ->
          exec_debug b p bin d_entry d_commands;
          (Buffer.contents b, None, Response.D_none, 0)
      | Request.Sample { s_entry; s_period } ->
          let artifact = exec_sample b p config bin s_entry s_period in
          (Buffer.contents b, Some artifact, Response.D_none, 0)
      | _ -> assert false)

(* -- rank / tune -- *)

let run_rank ctx ~config ~k =
  let b = Buffer.create 1024 in
  bpf b "ranking %s passes on the 13-program suite...\n" (Config.name config);
  let prepared = prepared_suite ctx in
  let lr = Ranking.rank ~engine:ctx.engine prepared config in
  bpf b "%-4s %-26s %8s %8s\n" "#" "pass" "+%" "avg rank";
  let top = ref [] in
  List.iteri
    (fun i (e : Ranking.pass_effect) ->
      if i < k then begin
        bpf b "%-4d %-26s %8.2f %8.2f\n" (i + 1) e.Ranking.pe_pass
          e.Ranking.pe_geo_increment_pct e.Ranking.pe_avg_rank;
        top :=
          (e.Ranking.pe_pass, e.Ranking.pe_geo_increment_pct, e.Ranking.pe_avg_rank)
          :: !top
      end)
    lr.Ranking.lr_effects;
  ( Buffer.contents b,
    None,
    Response.D_ranked { dr_config = Config.name config; dr_top = List.rev !top },
    0 )

let run_tune ctx ~config ~y =
  let b = Buffer.create 1024 in
  bpf b "tuning %s (disabling top %d)...\n" (Config.name config) y;
  let prepared = prepared_suite ctx in
  let lr = Ranking.rank ~engine:ctx.engine prepared config in
  let dy = Tuning.dy_config lr ~y in
  bpf b "%s disables: %s\n" (Config.name dy)
    (String.concat ", " dy.Config.disabled);
  let o0_costs = Tuning.o0_costs ~engine:ctx.engine Spec.all in
  let base_pt =
    Tuning.measure_point ~engine:ctx.engine prepared ~o0_costs Spec.all config
  in
  let dy_pt =
    Tuning.measure_point ~engine:ctx.engine prepared ~o0_costs Spec.all dy
  in
  bpf b "%-12s debug=%.4f speedup=%.4f\n" (Config.name config)
    base_pt.Tuning.cp_debug base_pt.Tuning.cp_speedup;
  bpf b "%-12s debug=%.4f (%+.2f%%) speedup=%.4f (%+.2f%%)\n" (Config.name dy)
    dy_pt.Tuning.cp_debug
    (Util.Stats.pct_delta base_pt.Tuning.cp_debug dy_pt.Tuning.cp_debug)
    dy_pt.Tuning.cp_speedup
    (Util.Stats.pct_delta base_pt.Tuning.cp_speedup dy_pt.Tuning.cp_speedup);
  ( Buffer.contents b,
    None,
    Response.D_tuned
      {
        dt_config = Config.name dy;
        dt_disabled = dy.Config.disabled;
        dt_debug = dy_pt.Tuning.cp_debug;
        dt_speedup = dy_pt.Tuning.cp_speedup;
      },
    0 )

(* -- search -- *)

(** The frontier artifact: a standalone, self-stamped canonical JSON
    document (every float through {!Util.Json}'s [%.17g] writer), so the
    CI determinism leg can byte-diff it across runs and [--jobs]
    settings. *)
let frontier_json ~config (r : Tuning.search_result) =
  J.to_string
    (J.Obj
       [
         ("v", J.Num (float_of_int version));
         ("kind", J.Str "frontier");
         ("base", J.Str (Config.name config));
         ("strategy", J.Str (Tuning.strategy_name r.Tuning.sr_strategy));
         ("seed", J.Num (float_of_int r.Tuning.sr_seed));
         ("budget", J.Num (float_of_int r.Tuning.sr_budget));
         (* no [resumed] here: the artifact is a pure function of
            (strategy, seed, budget, suite) — byte-identical whether the
            evaluations ran cold or came back from the store *)
         ("evaluated", J.Num (float_of_int r.Tuning.sr_evaluated));
         ("dominated", J.Num (float_of_int r.Tuning.sr_dominated));
         ( "frontier",
           J.Arr
             (List.map
                (fun (f : Tuning.frontier_point) ->
                  J.Obj
                    [
                      ("name", J.Str (Config.name f.Tuning.fp_config));
                      ("config", Codec.config.enc f.Tuning.fp_config);
                      ("debug", J.Num f.Tuning.fp_debug);
                      ("speedup", J.Num f.Tuning.fp_speedup);
                    ])
                r.Tuning.sr_frontier) );
       ])

let run_search ctx ~config ~strategy ~budget ~seed ~debug_weight ~speed_weight =
  let b = Buffer.create 1024 in
  bpf b "searching %s disable-sets (%s, budget %d, seed %d)...\n"
    (Config.name config)
    (Tuning.strategy_name strategy)
    budget seed;
  let prepared = prepared_suite ctx in
  (* Seed the search with the greedy dy points of this base: the front
     can only improve on them, so it weakly dominates the paper's greedy
     trade-off by construction and strictly wherever the search finds
     anything better. *)
  let lr = Ranking.rank ~engine:ctx.engine prepared config in
  let seeds = List.map (fun y -> Tuning.dy_config lr ~y) [ 3; 5; 7; 9 ] in
  let o0_costs = Tuning.o0_costs ~engine:ctx.engine Spec.all in
  let opts =
    {
      Tuning.so_strategy = strategy;
      so_budget = budget;
      so_seed = seed;
      so_debug_weight = debug_weight;
      so_speed_weight = speed_weight;
      so_seeds = seeds;
    }
  in
  let r =
    Tuning.search ~engine:ctx.engine prepared ~o0_costs Spec.all ~base:config
      ~opts
  in
  bpf b "%d candidates evaluated (%d served from the store), %d dominated\n"
    r.Tuning.sr_evaluated r.Tuning.sr_resumed r.Tuning.sr_dominated;
  bpf b "Pareto front (%d points):\n" (List.length r.Tuning.sr_frontier);
  bpf b "%-16s %10s %10s  %s\n" "config" "debug" "speedup" "disabled";
  List.iter
    (fun (f : Tuning.frontier_point) ->
      bpf b "%-16s %10.4f %10.4f  %s\n"
        (Config.name f.Tuning.fp_config)
        f.Tuning.fp_debug f.Tuning.fp_speedup
        (match f.Tuning.fp_config.Config.disabled with
        | [] -> "-"
        | l -> String.concat "," l))
    r.Tuning.sr_frontier;
  ( Buffer.contents b,
    Some (frontier_json ~config r),
    Response.D_frontier
      {
        df_config = Config.name config;
        df_strategy = Tuning.strategy_name r.Tuning.sr_strategy;
        df_seed = r.Tuning.sr_seed;
        df_budget = r.Tuning.sr_budget;
        df_evaluated = r.Tuning.sr_evaluated;
        df_dominated = r.Tuning.sr_dominated;
        df_front =
          List.map
            (fun (f : Tuning.frontier_point) ->
              ( Config.name f.Tuning.fp_config,
                f.Tuning.fp_debug,
                f.Tuning.fp_speedup ))
            r.Tuning.sr_frontier;
      },
    0 )

(* -- check -- *)

(** [(pass, checked, failures)] from [sanitize/<pass>/...] rows, sorted
    by pass. *)
let sanitize_passes rows =
  List.filter_map
    (fun (name, checked) ->
      match String.split_on_char '/' name with
      | [ "sanitize"; pass; "checked" ] ->
          let failures = "sanitize/" ^ pass ^ "/failures" in
          Some
            ( pass,
              checked,
              Option.value ~default:0 (List.assoc_opt failures rows) )
      | _ -> None)
    rows
  |> List.sort compare

let run_check ctx ~subject ~fuzz ~seed ~suite =
  let b = Buffer.create 1024 in
  let store = Measure_engine.store ctx.engine in
  let reports = ref [] in
  (* This request's own boundary checks (pool workers included), never
     those of requests running alongside it. *)
  let (), rows =
    Util.Counters.scoped @@ fun () ->
    (match subject with
    | Some s ->
        let p = subject_program s in
        bpf b "checking %s across O0-O3 x {gcc, clang}...\n"
          p.Suite_types.p_name;
        let failures, (runs, skipped) =
          Diff_oracle.check_program ?store p
        in
        reports :=
          [
            {
              Diff_oracle.r_programs = 1;
              r_configs = List.length (Diff_oracle.configs ());
              r_runs = runs;
              r_skipped = skipped;
              r_failures = failures;
            };
          ]
    | None ->
        if suite then begin
          bpf b
            "checking the suite across O0-O3 x {gcc, clang} (sanitizer \
             on)...\n";
          reports := [ Diff_oracle.check_suite ?store () ]
        end);
    if fuzz > 0 then begin
      bpf b "fuzzing %d synthetic program(s) from seed %d...\n" fuzz seed;
      reports :=
        !reports @ [ Diff_oracle.fuzz ?store ~count:fuzz ~seed () ]
    end
  in
  List.iter
    (fun r ->
      Buffer.add_string b (Diff_oracle.report_to_string r);
      Buffer.add_char b '\n')
    !reports;
  (match sanitize_passes rows with
  | [] -> ()
  | cs ->
      bpf b "sanitizer boundaries validated:\n";
      List.iter
        (fun (pass, checks, failures) ->
          bpf b "  %-26s %7d checked %s\n" pass checks
            (if failures = 0 then "" else Printf.sprintf "%d FAILED" failures))
        cs);
  let totals =
    List.fold_left
      (fun (p, c, r, s, f) (rep : Diff_oracle.report) ->
        ( p + rep.Diff_oracle.r_programs,
          max c rep.Diff_oracle.r_configs,
          r + rep.Diff_oracle.r_runs,
          s + rep.Diff_oracle.r_skipped,
          f + List.length rep.Diff_oracle.r_failures ))
      (0, 0, 0, 0, 0) !reports
  in
  let dk_programs, dk_configs, dk_runs, dk_skipped, dk_failures = totals in
  let code = if List.for_all Diff_oracle.clean !reports then 0 else 1 in
  ( Buffer.contents b,
    None,
    Response.D_checked { dk_programs; dk_configs; dk_runs; dk_skipped; dk_failures },
    code )

(* -- profile -- *)

(** The [Obs] session is process-wide (one recording at a time), so
    profile requests are the one request kind that still serializes
    against each other: a second concurrent profile fails with the same
    error a nested session would have raised. *)
let profile_mu = Mutex.create ()

let run_profile_locked ctx ~subject ~config ~sanitize ~stats ~trace =
  let p = subject_program subject in
  let b = Buffer.create 1024 in
  if Obs.enabled () then
    failwith "an observability session is already active in this process";
  Obs.start ();
  let stop_started () = ignore (Obs.stop () : Obs.session option) in
  match
    Toolchain.compile (Suite_types.ast p) ~config
      ~roots:(Suite_types.roots p)
      ~options:(Toolchain.Options.make ~sanitize ())
  with
  | exception e ->
      stop_started ();
      raise e
  | bin ->
      (* Snapshot the unified counter table while the session is live
         (the obs/* rows read the active session). *)
      let counter_rows =
        if stats then Measure_engine.stats_table ctx.engine else []
      in
      let session =
        match Obs.stop () with Some s -> s | None -> assert false
      in
      let profs = Obs.profiles session in
      let total_ns =
        List.fold_left (fun a pr -> Int64.add a pr.Obs.pr_ns) 0L profs
      in
      bpf b "%s at %s: %d pass executions, %.3f ms in passes\n\n"
        p.Suite_types.p_name (Config.name config)
        (List.fold_left (fun a pr -> a + pr.Obs.pr_calls) 0 profs)
        (Int64.to_float total_ns /. 1e6);
      let pct ns =
        if total_ns = 0L then "-"
        else
          Printf.sprintf "%.1f"
            (100.0 *. Int64.to_float ns /. Int64.to_float total_ns)
      in
      let rows =
        List.map
          (fun pr ->
            [
              pr.Obs.pr_pass;
              string_of_int pr.Obs.pr_calls;
              Printf.sprintf "%.3f" (Int64.to_float pr.Obs.pr_ns /. 1e6);
              pct pr.Obs.pr_ns;
              string_of_int pr.Obs.pr_delta.Instrument.c_instrs;
              string_of_int pr.Obs.pr_delta.Instrument.c_lines;
              string_of_int pr.Obs.pr_delta.Instrument.c_vars;
            ])
          (List.sort (fun a b -> Int64.compare b.Obs.pr_ns a.Obs.pr_ns) profs)
      in
      Buffer.add_string b
        (Util.Tablefmt.render
           (Util.Tablefmt.make ~title:"Per-pass self time (sorted)"
              ~header:
                [ "pass"; "calls"; "ms"; "self%"; "d-instrs"; "d-lines"; "d-vars" ]
              rows));
      Buffer.add_char b '\n';
      if stats then begin
        Buffer.add_string b
          "== Counters (engine caches / sanitizer / obs) ==\n";
        List.iter
          (fun line ->
            Buffer.add_string b line;
            Buffer.add_char b '\n')
          (Util.Cliopts.kv_lines counter_rows);
        Buffer.add_char b '\n'
      end;
      bpf b "binary: %d instructions, text digest %s\n"
        (Array.length bin.Emit.code) bin.Emit.text_digest;
      let artifact =
        if not trace then None
        else begin
          let js = Obs.to_chrome_json session in
          (* Self-check the artifact before shipping it: balanced spans
             and at least one span per profiled pass. *)
          (match Obs.validate_chrome js with
          | Error msg -> failwith ("trace validation failed: " ^ msg)
          | Ok v ->
              let missing =
                List.filter
                  (fun pr ->
                    match List.assoc_opt pr.Obs.pr_pass v.Obs.v_spans with
                    | Some n when n >= 1 -> false
                    | _ -> true)
                  profs
              in
              if missing <> [] then
                failwith
                  ("trace validation failed: no span for: "
                  ^ String.concat ", "
                      (List.map (fun pr -> pr.Obs.pr_pass) missing)));
          Some js
        end
      in
      (Buffer.contents b, artifact, Response.D_none, 0)

let run_profile ctx ~subject ~config ~sanitize ~stats ~trace =
  if not (Mutex.try_lock profile_mu) then
    failwith "an observability session is already active in this process";
  Fun.protect
    ~finally:(fun () -> Mutex.unlock profile_mu)
    (fun () -> run_profile_locked ctx ~subject ~config ~sanitize ~stats ~trace)

(* -- bench / cache / stats -- *)

let run_bench ctx ~subject ~config (action : Request.bench_action) =
  let p = subject_program subject in
  match action with
  | Request.Cost ->
      let cost = Measure_engine.bench_cost ctx.engine p config in
      ( Printf.sprintf "%s at %s: %d cycles\n" p.Suite_types.p_name
          (Config.name config) cost,
        None,
        Response.D_cost cost,
        0 )
  | Request.Exec { x_entry; x_input } ->
      let bin =
        compile_subject ctx p config ~profile:None ~sanitize:false
      in
      let r = Vm.run bin ~entry:x_entry ~input:x_input Vm.default_opts in
      let b = Buffer.create 128 in
      bpf b "output: [%s]\n"
        (String.concat "; " (List.map string_of_int r.Vm.output));
      bpf b "cost: %d cycles, %d instructions%s\n" r.Vm.cost r.Vm.instrs
        (if r.Vm.timed_out then "  (TIMED OUT)" else "");
      (Buffer.contents b, None, Response.D_cost r.Vm.cost, 0)

let run_cache_op ctx ~action ~dir =
  let b = Buffer.create 256 in
  let store =
    match (dir, Measure_engine.store ctx.engine) with
    | None, Some s -> s
    | _ -> Measure_engine.open_store ?dir ()
  in
  (match action with
  | Request.Op_stats ->
      bpf b "cache %s (format v%d)\n"
        (Engine.Disk_store.dir store)
        Engine.Disk_store.format_version;
      let summary = Engine.Disk_store.summary store in
      if summary = [] then Buffer.add_string b "  (empty)\n"
      else
        List.iter
          (fun (cache, entries, bytes) ->
            bpf b "  %-14s %6d entries %10d bytes\n" cache entries bytes)
          summary;
      bpf b "  %-14s %6d entries %10d bytes\n" "total"
        (Engine.Disk_store.entry_count store)
        (Engine.Disk_store.size_bytes store)
  | Request.Op_clear ->
      let n = Engine.Disk_store.clear store in
      bpf b "cache %s: removed %d entr%s\n"
        (Engine.Disk_store.dir store)
        n
        (if n = 1 then "y" else "ies")
  | Request.Op_gc ->
      let n = Engine.Disk_store.gc store in
      bpf b "cache %s: dropped %d stale/corrupt entr%s, %d entries (%d bytes) kept\n"
        (Engine.Disk_store.dir store)
        n
        (if n = 1 then "y" else "ies")
        (Engine.Disk_store.entry_count store)
        (Engine.Disk_store.size_bytes store));
  (Buffer.contents b, None, Response.D_none, 0)

let run_stats ctx (what : Request.stats_what) =
  let b = Buffer.create 512 in
  match what with
  | Request.Suite ->
      Buffer.add_string b "test suite (13 programs):\n";
      List.iter
        (fun (p : Suite_types.sprogram) ->
          bpf b "  %-12s %d harness(es)\n" p.Suite_types.p_name
            (List.length p.Suite_types.p_harnesses))
        Programs.all;
      Buffer.add_string b "SPEC CPU 2017 analogs:\n";
      List.iter
        (fun (p : Suite_types.sprogram) -> bpf b "  %s\n" p.Suite_types.p_name)
        Spec.all;
      Buffer.add_string b "large AutoFDO workload:\n";
      Buffer.add_string b "  selfcomp\n";
      (Buffer.contents b, None, Response.D_none, 0)
  | Request.Counters ->
      let rows = Measure_engine.stats_table ctx.engine in
      Buffer.add_string b "== Counters (engine caches / sanitizer / obs) ==\n";
      List.iter
        (fun line ->
          Buffer.add_string b line;
          Buffer.add_char b '\n')
        (Util.Cliopts.kv_lines rows);
      (Buffer.contents b, None, Response.D_counters rows, 0)
  | Request.Server ->
      let rows = !server_counters_hook () in
      if rows = [] then Buffer.add_string b "(no server in this process)\n"
      else
        List.iter
          (fun line ->
            Buffer.add_string b line;
            Buffer.add_char b '\n')
          (Util.Cliopts.kv_lines rows);
      (Buffer.contents b, None, Response.D_counters rows, 0)

(* -- experiments / merge: the sharded corpus runner (ROADMAP item 5) -- *)

let job_spec (job : Job.t) =
  if job.Job.j_corpus < 1 then failwith "corpus size must be >= 1";
  { Experiments.cs_seed = job.Job.j_seed; cs_n = job.Job.j_corpus }

let job_configs (job : Job.t) =
  match job.Job.j_configs with
  | [] -> Experiments.all_standard_configs
  | cs -> cs

(** Pick the requested tables out of {!Experiments.corpus_tables}
    output (which renders every table, in {!Job.table_names} order). *)
let select_tables (job : Job.t) tables =
  match job.Job.j_tables with
  | [] -> tables
  | wanted ->
      let named = List.combine Job.table_names tables in
      List.map
        (fun name ->
          match List.assoc_opt name named with
          | Some t -> t
          | None ->
              failwith
                (Printf.sprintf "unknown table %S (tables: %s)" name
                   (String.concat ", " Job.table_names)))
        wanted

let run_experiments ctx (job : Job.t) =
  let spec = job_spec job in
  let configs = job_configs job in
  let config_names = List.map Config.name configs in
  let digest = Experiments.corpus_digest spec in
  match job.Job.j_shard with
  | None ->
      let rows = Experiments.corpus_rows ~engine:ctx.engine spec configs in
      let tables =
        select_tables job
          (Experiments.corpus_tables spec ~configs:config_names rows)
      in
      let text = String.concat "" (List.map Util.Tablefmt.render tables) in
      (text, None, Response.D_none, 0)
  | Some (i, n) ->
      let shard = { Experiments.sh_index = i; sh_count = n } in
      let rows =
        Experiments.corpus_rows ~engine:ctx.engine ~shard spec configs
      in
      let programs =
        List.length
          (List.sort_uniq compare
             (List.map (fun r -> r.Experiments.cr_index) rows))
      in
      let partial =
        {
          Partial.pt_shard = i;
          pt_shards = n;
          pt_seed = spec.Experiments.cs_seed;
          pt_corpus = spec.Experiments.cs_n;
          pt_digest = digest;
          pt_configs = config_names;
          pt_programs = programs;
          pt_rows = rows;
        }
      in
      let text =
        Printf.sprintf
          "shard %d/%d: %d program(s), %d row(s) (corpus n=%d seed=%d digest \
           %s)\n"
          i n programs (List.length rows) spec.Experiments.cs_n
          spec.Experiments.cs_seed digest
      in
      (text, None, Response.D_partial partial, 0)

(** Fold a complete partial set into the final tables. Pure validation
    plus rendering — no engine work, so merging is cheap enough to run
    anywhere (CLI, daemon, bench). [corpus_tables] re-sorts the row set
    before any reduction, so the output is byte-identical to the
    unsharded run however the rows were partitioned. *)
let run_merge (partials : Partial.t list) =
  match partials with
  | [] -> failwith "merge needs at least one shard partial"
  | first :: rest ->
      List.iter
        (fun (p : Partial.t) ->
          if
            p.Partial.pt_shards <> first.Partial.pt_shards
            || p.Partial.pt_seed <> first.Partial.pt_seed
            || p.Partial.pt_corpus <> first.Partial.pt_corpus
            || p.Partial.pt_digest <> first.Partial.pt_digest
            || p.Partial.pt_configs <> first.Partial.pt_configs
          then
            failwith
              (Printf.sprintf
                 "shard %d/%d disagrees with shard %d/%d on corpus or \
                  configuration set"
                 p.Partial.pt_shard p.Partial.pt_shards first.Partial.pt_shard
                 first.Partial.pt_shards))
        rest;
      let spec =
        {
          Experiments.cs_seed = first.Partial.pt_seed;
          cs_n = first.Partial.pt_corpus;
        }
      in
      let expect = Experiments.corpus_digest spec in
      if first.Partial.pt_digest <> expect then
        failwith
          (Printf.sprintf
             "corpus digest mismatch: partials carry %s, this build generates \
              %s"
             first.Partial.pt_digest expect);
      let n = first.Partial.pt_shards in
      let seen =
        List.sort compare (List.map (fun p -> p.Partial.pt_shard) partials)
      in
      let wanted = List.init n (fun i -> i + 1) in
      if seen <> wanted then
        failwith
          (Printf.sprintf "incomplete merge: have shard(s) %s of %d"
             (String.concat ", " (List.map string_of_int seen))
             n);
      let rows = List.concat_map (fun p -> p.Partial.pt_rows) partials in
      let text =
        Experiments.render_corpus_tables spec ~configs:first.Partial.pt_configs
          rows
      in
      (text, None, Response.D_none, 0)

(* ------------------------------------------------------------------ *)
(* The dispatcher                                                      *)

let run_request ctx (req : Request.t) =
  match req with
  | Request.Compile { c_subject; c_config; c_profile; c_sanitize; c_view } ->
      run_compile ctx ~subject:c_subject ~config:c_config ~profile:c_profile
        ~sanitize:c_sanitize c_view
  | Request.Rank { r_config; r_k } -> run_rank ctx ~config:r_config ~k:r_k
  | Request.Tune { t_config; t_y } -> run_tune ctx ~config:t_config ~y:t_y
  | Request.Search
      { se_config; se_strategy; se_budget; se_seed; se_debug_weight;
        se_speed_weight } ->
      run_search ctx ~config:se_config ~strategy:se_strategy ~budget:se_budget
        ~seed:se_seed ~debug_weight:se_debug_weight
        ~speed_weight:se_speed_weight
  | Request.Check { k_subject; k_fuzz; k_seed; k_suite } ->
      run_check ctx ~subject:k_subject ~fuzz:k_fuzz ~seed:k_seed ~suite:k_suite
  | Request.Profile { p_subject; p_config; p_sanitize; p_stats; p_trace } ->
      run_profile ctx ~subject:p_subject ~config:p_config ~sanitize:p_sanitize
        ~stats:p_stats ~trace:p_trace
  | Request.Bench { b_subject; b_config; b_action } ->
      run_bench ctx ~subject:b_subject ~config:b_config b_action
  | Request.Cache_op { o_action; o_dir } ->
      run_cache_op ctx ~action:o_action ~dir:o_dir
  | Request.Stats { s_what } -> run_stats ctx s_what
  | Request.Experiments { e_job } -> run_experiments ctx e_job
  | Request.Merge { m_partials } -> run_merge m_partials

let error_message = function
  | Failure msg -> msg
  | Minic.Parser.Error (msg, line) ->
      Printf.sprintf "parse error line %d: %s" line msg
  | Minic.Lexer.Error (msg, line) ->
      Printf.sprintf "lex error line %d: %s" line msg
  | Minic.Typecheck.Error (msg, line) ->
      Printf.sprintf "check error line %d: %s" line msg
  | Sys_error msg -> msg
  | e -> Printexc.to_string e

(** Test seam: called at the top of every {!execute}, inside the
    request's sink scope. The daemon tests park it on a mutex to hold a
    request in flight deterministically. *)
let execute_gate : (unit -> unit) ref = ref (fun () -> ())

(** Execute one request against a context. Never raises: failures come
    back as [Error] responses with a one-line message and exit code 2.
    Safe to call concurrently from many threads or domains on a shared
    context — see {!ctx} — and the response's [stats] field is the
    request's private sink ({!Measure_engine.request_sink_rows}): its
    own counter activity, unpolluted by whatever ran alongside it. *)
let execute (ctx : ctx) (req : Request.t) : Response.t =
  let sink = Measure_engine.create_request_sink () in
  let finish status text artifact data exit_code =
    let stats = Measure_engine.request_sink_rows sink in
    { Response.status; text; artifact; data; stats; exit_code }
  in
  match
    Measure_engine.with_request_sink sink (fun () ->
        !execute_gate ();
        Obs.Span.wrap "api:execute" (fun () -> run_request ctx req))
  with
  | text, artifact, data, exit_code ->
      finish Response.Ok text artifact data exit_code
  | exception e -> finish (Response.Error (error_message e)) "" None Response.D_none 2
