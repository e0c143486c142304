(* Measurement-engine substrate: a persistent content-addressed store,
   content-addressed memo tables with observable counters, and a
   deterministic Domain worker pool (see engine.mli for the contract). *)

module Counters = Util.Counters

(* Persistent content-addressed artifact store: a cache directory of
   write-once entries published by atomic write-then-rename, each
   carrying a format-version stamp, its full key and a payload checksum
   so stale or damaged entries self-invalidate on read instead of ever
   being trusted. Values are opaque byte strings (the Memo layer above
   handles (de)serialization); keys are the same content addresses the
   in-memory tables use. Safe under concurrent writers in separate
   domains or separate processes: a half-written temp file is never
   visible under its final name, so the worst a race costs is a
   recomputation. *)
module Disk_store = struct
  let format_version = 1

  (* Observability seam: Measure_engine installs a
     polymorphic wrapper that brackets every store I/O in an [Obs] span
     and counter without this library depending on lib/obs. *)
  type io_wrap = {
    wrap : 'a. string -> (string * string) list -> (unit -> 'a) -> 'a;
  }

  let io_wrap : io_wrap option ref = ref None
  let set_io_wrap w = io_wrap := w

  let wrapped name args f =
    match !io_wrap with None -> f () | Some w -> w.wrap name args f

  type t = {
    root : string;
    schema : string;
    max_bytes : int;
    mutex : Mutex.t;
    mutable size : int;  (** approximate: concurrent processes drift it *)
    counters : Counters.table;
        (** [store/<cache>/<field>]: hits, misses, writes, corrupt
            (truncated / bit-flipped / undecodable), stale (version or
            schema mismatch), evicted (this handle's LRU / gc removals)
            and evicted_ext (entries this handle published that later
            vanished from disk — evicted by another process sharing the
            directory) *)
    written : (string, unit) Hashtbl.t;
        (** entry paths this handle published (and has not itself
            removed): a later disk miss on one of them means another
            process evicted it — the cross-process eviction signal *)
  }

  let default_max_bytes = 512 * 1024 * 1024

  let locked t f =
    Mutex.lock t.mutex;
    Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

  let note t cache field =
    Counters.bump ~table:t.counters ("store/" ^ cache ^ "/" ^ field)

  let objects_dir t = Filename.concat t.root "objects"
  let tmp_dir t = Filename.concat t.root "tmp"

  let rec mkdir_p dir =
    if dir = "" || dir = "." || dir = "/" || Sys.file_exists dir then ()
    else begin
      mkdir_p (Filename.dirname dir);
      try Sys.mkdir dir 0o755 with Sys_error _ -> ()
    end

  let readdir_sorted dir =
    match Sys.readdir dir with
    | entries ->
        Array.sort compare entries;
        entries
    | exception Sys_error _ -> [||]

  let is_dir d = try Sys.is_directory d with Sys_error _ -> false

  (* Every published entry, deterministically ordered:
     [f acc ~cache path]. *)
  let fold_entries t f acc =
    Array.fold_left
      (fun acc cache ->
        let cdir = Filename.concat (objects_dir t) cache in
        if not (is_dir cdir) then acc
        else
          Array.fold_left
            (fun acc shard ->
              let sdir = Filename.concat cdir shard in
              if not (is_dir sdir) then acc
              else
                Array.fold_left
                  (fun acc file -> f acc ~cache (Filename.concat sdir file))
                  acc (readdir_sorted sdir))
            acc (readdir_sorted cdir))
      acc
      (readdir_sorted (objects_dir t))

  let file_size path = try (Unix.stat path).Unix.st_size with _ -> 0
  let file_mtime path = try (Unix.stat path).Unix.st_mtime with _ -> 0.0

  let scan_size t = fold_entries t (fun acc ~cache:_ p -> acc + file_size p) 0

  let create ?(max_bytes = default_max_bytes) ?(schema = "") ~dir () =
    mkdir_p (Filename.concat dir "objects");
    mkdir_p (Filename.concat dir "tmp");
    let t =
      {
        root = dir;
        schema;
        max_bytes = max 1 max_bytes;
        mutex = Mutex.create ();
        size = 0;
        counters = Counters.create ();
        written = Hashtbl.create 64;
      }
    in
    t.size <- scan_size t;
    t

  let dir t = t.root

  let entry_path t ~cache ~key =
    let digest = Digest.to_hex (Digest.string key) in
    Filename.concat
      (Filename.concat (Filename.concat (objects_dir t) cache)
         (String.sub digest 0 2))
      digest

  (* On-disk entry layout (everything length-prefixed by the header
     line, so a parse can only succeed on a byte-exact document):

       DTSTORE1 <version> <schema-len> <key-len> <payload-len> <md5(payload)>\n
       <schema>\n
       <key>\n
       <payload>                                        (end of file)   *)

  type bad = Corrupt | Stale | Other_key

  exception Bad of bad

  let read_entry t ?expect_key path =
    let ic = open_in_bin path in
    Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
    let fail b = raise (Bad b) in
    let header =
      match input_line ic with
      | line -> line
      | exception End_of_file -> fail Corrupt
    in
    match String.split_on_char ' ' header with
    | [ magic; ver; slen; klen; plen; sum ] ->
        if magic <> "DTSTORE1" then fail Corrupt;
        let int s =
          match int_of_string_opt s with
          | Some n when n >= 0 -> n
          | _ -> fail Corrupt
        in
        let ver = int ver
        and slen = int slen
        and klen = int klen
        and plen = int plen in
        let really n =
          match really_input_string ic n with
          | s -> s
          | exception End_of_file -> fail Corrupt
        in
        let newline () =
          match input_char ic with
          | '\n' -> ()
          | _ -> fail Corrupt
          | exception End_of_file -> fail Corrupt
        in
        let schema = really slen in
        newline ();
        if ver <> format_version || schema <> t.schema then fail Stale;
        let key = really klen in
        newline ();
        (match expect_key with
        | Some k when k <> key -> fail Other_key
        | _ -> ());
        let payload = really plen in
        let at_eof =
          match input_char ic with
          | _ -> false
          | exception End_of_file -> true
        in
        if not at_eof then fail Corrupt;
        if Digest.to_hex (Digest.string payload) <> sum then fail Corrupt;
        payload
    | _ -> fail Corrupt

  (* Remove an entry, keeping the size estimate in step. Assumes the
     lock is NOT held. *)
  let remove_entry t path =
    let bytes = file_size path in
    match Sys.remove path with
    | () ->
        locked t (fun () ->
            t.size <- max 0 (t.size - bytes);
            Hashtbl.remove t.written path)
    | exception Sys_error _ -> ()

  (* LRU eviction to ~7/8 of the bound (amortizes rescans). Assumes the
     lock is held; rescans the directory so concurrent processes'
     entries are accounted. *)
  let evict_locked t =
    let entries =
      fold_entries t
        (fun acc ~cache p -> (file_mtime p, p, cache, file_size p) :: acc)
        []
    in
    t.size <- List.fold_left (fun a (_, _, _, s) -> a + s) 0 entries;
    if t.size > t.max_bytes then begin
      let target = t.max_bytes * 7 / 8 in
      List.iter
        (fun (mtime, path, cache, bytes) ->
          if t.size > target then
            (* Re-stat before removing: between the scan above and this
               removal another process may have republished the entry
               (tmp+rename) or refreshed its LRU clock with a hit — the
               scanned mtime is then stale, and deleting a freshly
               written or freshly used entry is the one eviction-vs-
               writer race that actually hurts. A newer mtime means the
               entry earned a later LRU position; leave it alone. *)
            if file_mtime path > mtime then ()
            else
              match Sys.remove path with
              | () ->
                  t.size <- max 0 (t.size - bytes);
                  Hashtbl.remove t.written path;
                  note t cache "evicted"
              | exception Sys_error _ -> ())
        (List.sort compare entries)
    end

  let tmp_seq = Atomic.make 0

  let put t ~cache ~key data =
    wrapped "store:put" [ ("cache", cache) ] @@ fun () ->
    (* A failed write (disk full, permissions, racing eviction) must
       never fail the measurement — the store degrades to a miss. *)
    try
      let path = entry_path t ~cache ~key in
      mkdir_p (Filename.dirname path);
      let tmp =
        Filename.concat (tmp_dir t)
          (Printf.sprintf "%d-%d.tmp" (Unix.getpid ())
             (Atomic.fetch_and_add tmp_seq 1))
      in
      mkdir_p (tmp_dir t);
      let oc = open_out_bin tmp in
      let bytes =
        Fun.protect ~finally:(fun () -> close_out_noerr oc) @@ fun () ->
        let header =
          Printf.sprintf "DTSTORE1 %d %d %d %d %s\n" format_version
            (String.length t.schema) (String.length key) (String.length data)
            (Digest.to_hex (Digest.string data))
        in
        output_string oc header;
        output_string oc t.schema;
        output_char oc '\n';
        output_string oc key;
        output_char oc '\n';
        output_string oc data;
        String.length header + String.length t.schema + String.length key
        + String.length data + 2
      in
      let replaced = file_size path in
      Sys.rename tmp path;
      note t cache "writes";
      locked t (fun () ->
          Hashtbl.replace t.written path ();
          t.size <- max 0 (t.size + bytes - replaced);
          if t.size > t.max_bytes then evict_locked t)
    with _ -> ()

  let get t ~cache ~key =
    wrapped "store:get" [ ("cache", cache) ] @@ fun () ->
    let path = entry_path t ~cache ~key in
    if not (Sys.file_exists path) then begin
      (* A miss on an entry we ourselves published (and did not remove)
         means another process's eviction took it: the cross-process
         eviction signal, counted separately from our own LRU work. *)
      note t cache "misses";
      locked t (fun () ->
          if Hashtbl.mem t.written path then begin
            Hashtbl.remove t.written path;
            note t cache "evicted_ext"
          end);
      None
    end
    else
      match read_entry t ~expect_key:key path with
      | payload ->
          note t cache "hits";
          (* LRU clock: a hit refreshes the entry's mtime. *)
          (try Unix.utimes path 0.0 0.0 with _ -> ());
          Some payload
      | exception Bad Other_key ->
          (* An md5 collision between distinct keys: not our entry, so
             leave it alone and recompute. *)
          note t cache "misses";
          None
      | exception Bad Stale ->
          remove_entry t path;
          note t cache "stale";
          None
      | exception Bad Corrupt ->
          remove_entry t path;
          note t cache "corrupt";
          None
      | exception _ ->
          note t cache "misses";
          None

  (* The caller decoded a checksummed payload and failed — a schema
     drift the version stamp did not capture. Evict and count. *)
  let invalidate t ~cache ~key =
    remove_entry t (entry_path t ~cache ~key);
    note t cache "corrupt"

  let remove_tmp t ~max_age =
    let now = Unix.time () in
    Array.iter
      (fun f ->
        let p = Filename.concat (tmp_dir t) f in
        if now -. file_mtime p > max_age then
          try Sys.remove p with Sys_error _ -> ())
      (readdir_sorted (tmp_dir t))

  let clear t =
    locked t @@ fun () ->
    let n =
      fold_entries t
        (fun acc ~cache:_ p ->
          match Sys.remove p with
          | () -> acc + 1
          | exception Sys_error _ -> acc)
        0
    in
    (* Prune the now-empty shard/cache directories (best-effort). *)
    Array.iter
      (fun cache ->
        let cdir = Filename.concat (objects_dir t) cache in
        Array.iter
          (fun shard ->
            try Sys.rmdir (Filename.concat cdir shard) with Sys_error _ -> ())
          (readdir_sorted cdir);
        try Sys.rmdir cdir with Sys_error _ -> ())
      (readdir_sorted (objects_dir t));
    remove_tmp t ~max_age:(-1.0);
    Hashtbl.reset t.written;
    t.size <- 0;
    n

  (* Full maintenance sweep: drop stale / corrupt entries, enforce the
     size bound, remove abandoned temp files. Returns how many entries
     were removed. *)
  let gc t =
    wrapped "store:gc" [] @@ fun () ->
    locked t @@ fun () ->
    let removed = ref 0 in
    fold_entries t
      (fun () ~cache path ->
        match read_entry t path with
        | (_ : string) -> ()
        | exception Bad (Stale | Corrupt) | exception Sys_error _ ->
            let bytes = file_size path in
            (match Sys.remove path with
            | () ->
                incr removed;
                t.size <- max 0 (t.size - bytes);
                Hashtbl.remove t.written path;
                note t cache "evicted"
            | exception Sys_error _ -> ())
        | exception Bad Other_key -> assert false)
      ();
    t.size <- scan_size t;
    if t.size > t.max_bytes then evict_locked t;
    remove_tmp t ~max_age:900.0;
    !removed

  let entry_count t = fold_entries t (fun acc ~cache:_ _ -> acc + 1) 0
  let size_bytes t = locked t (fun () -> t.size)

  (** Per-cache [(name, entries, bytes)], sorted by cache name. *)
  let summary t =
    let tbl = Hashtbl.create 8 in
    fold_entries t
      (fun () ~cache p ->
        let n, b =
          Option.value ~default:(0, 0) (Hashtbl.find_opt tbl cache)
        in
        Hashtbl.replace tbl cache (n + 1, b + file_size p))
      ();
    Hashtbl.fold (fun cache (n, b) acc -> (cache, n, b) :: acc) tbl []
    |> List.sort compare

  let counters t = Counters.rows t.counters
end

module Memo = struct
  type 'a t = {
    mutex : Mutex.t;
    table : (string, 'a) Hashtbl.t;
    counters : Counters.table option;
    name : string;
    store : Disk_store.t option;
  }

  let create ?counters ?store ~name () =
    {
      mutex = Mutex.create ();
      table = Hashtbl.create 64;
      counters;
      name;
      store;
    }

  let locked t f =
    Mutex.lock t.mutex;
    Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

  (* [field] is hits, misses or dedups (a tier-2 content collision: a
     fresh compile whose binary digest was already measured). *)
  let bump t field =
    match t.counters with
    | None -> ()
    | Some table -> Counters.bump ~table ("engine/" ^ t.name ^ "/" ^ field)

  let mem_add t key v =
    locked t (fun () ->
        if not (Hashtbl.mem t.table key) then Hashtbl.replace t.table key v)

  (* Write-through to the disk store. Serialization is [Marshal] on the
     memo's value type — the table's name doubles as the on-disk cache
     name, and the store's schema stamp guards against layout drift. A
     value Marshal rejects (closures) silently stays memory-only. *)
  let disk_put t key v =
    match t.store with
    | None -> ()
    | Some s -> (
        match Marshal.to_string v [] with
        | data -> Disk_store.put s ~cache:t.name ~key data
        | exception _ -> ())

  (* Memory first, then disk; a disk hit is promoted into the memory
     table so repeated lookups stay cheap and physically shared. A
     payload that passes the checksum but fails to decode is a schema
     drift the version stamp missed: evict it and miss. *)
  let find_opt t key =
    match locked t (fun () -> Hashtbl.find_opt t.table key) with
    | Some v -> Some v
    | None -> (
        match t.store with
        | None -> None
        | Some s -> (
            match Disk_store.get s ~cache:t.name ~key with
            | None -> None
            | Some data -> (
                match Marshal.from_string data 0 with
                | v ->
                    mem_add t key v;
                    (* Serve the table's copy: a racing insert may have
                       won, and every lookup of a key then returns one
                       value, so no second copy stays live beside the
                       table's. *)
                    locked t (fun () -> Hashtbl.find_opt t.table key)
                | exception _ ->
                    Disk_store.invalidate s ~cache:t.name ~key;
                    None)))

  let add t key v =
    mem_add t key v;
    disk_put t key v

  (* The producer runs outside the lock so other domains can use the
     table meanwhile; a concurrent duplicate computation of the same key
     is harmless because producers are deterministic and [add] keeps the
     first value. *)
  let fill t key produce =
    bump t "misses";
    let v = produce () in
    add t key v;
    v

  let find_or_add ?(hit = "hits") t key produce =
    match find_opt t key with
    | Some v ->
        bump t hit;
        v
    | None -> fill t key produce
end

module Pool = struct
  type t = { workers : int }

  let create ?(workers = 1) () = { workers = max 1 workers }

  let workers t = t.workers

  let map t f xs =
    let n = List.length xs in
    (* Calls from a worker (an [f] that itself maps, e.g. a per-program
       sweep inside a per-suite map) run sequentially: nested spawning
       would oversubscribe the machine quadratically. *)
    if t.workers <= 1 || n <= 1 || not (Domain.is_main_domain ()) then
      List.map f xs
    else begin
      let items = Array.of_list xs in
      (* Each slot is written by exactly one domain (the one that claimed
         its index) and read only after every join — no data race. *)
      let results = Array.make n None in
      let next = Atomic.make 0 in
      (* Workers count for the request that spawned them. *)
      let scope = Counters.current_scope () in
      let worker () =
        let rec loop () =
          let i = Atomic.fetch_and_add next 1 in
          if i < n then begin
            (results.(i) <-
               Some (try Ok (f items.(i)) with e -> Error e));
            loop ()
          end
        in
        Counters.within scope loop
      in
      let domains =
        List.init (min t.workers n) (fun _ -> Domain.spawn worker)
      in
      List.iter Domain.join domains;
      (* Ordered reduction: walk the slots in input order, so the output
         (and any table built from it) is identical to the sequential
         run; the earliest input's exception wins, as List.map's would. *)
      Array.to_list results
      |> List.map (function
           | Some (Ok r) -> r
           | Some (Error e) -> raise e
           | None -> assert false)
    end
end
