(** The [debugtuner serve] daemon: a persistent process owning one
    {!Api.ctx} — engine memo tables, disk store, prepared corpora —
    shared by every client, so warm requests cost approximately
    nothing.

    Transports: always a Unix-domain socket; optionally a TCP listener
    ([~listen:"HOST:PORT"]) speaking the identical length-prefixed JSON
    codec ([Framing] is transport-agnostic). One accept thread per
    listener; one lightweight thread per connection (a session, with
    its own id).

    Execution: admitted requests run one at a time, under [exec_mu], on
    their session threads, which all live on the main domain. There is
    no executor domain pool, for two reasons. Every domain joins every
    stop-the-world minor collection, so in a process whose heap the warm
    memo tables have grown, extra domains cost more than they bring.
    And {!Engine.Pool.map} fans out only from the main domain, so a
    request executing here can spread its own sweeps over the engine's
    workers ([serve --jobs N]). Requests waiting for [exec_mu] are not
    served in any promised order.

    Admission is bounded: at most [queue_limit] requests may be admitted
    (executing or waiting for [exec_mu]) at once; beyond that a client
    gets an immediate [Overloaded] response — backpressure, never a
    hang. *)

type t = {
  ctx : Api.ctx;
  socket_path : string;
  queue_limit : int;
  listen_fd : Unix.file_descr;
  tcp : (Unix.file_descr * string * int) option;  (** fd, host, bound port *)
  lock : Mutex.t;
  exec_mu : Mutex.t;  (** held by the one request executing *)
  mutable stopping : bool;
  mutable in_flight : int;  (** admitted requests not yet answered *)
  mutable sessions : int;  (** connections accepted so far *)
  mutable live_sessions : int;
  mutable requests : int;  (** requests admitted and executed *)
  mutable overloaded : int;  (** requests refused by admission control *)
  mutable protocol_errors : int;  (** undecodable frames *)
  mutable client_threads : Thread.t list;
}

let counters t =
  Mutex.lock t.lock;
  let rows =
    [
      ("serve/sessions", t.sessions);
      ("serve/live_sessions", t.live_sessions);
      ("serve/requests", t.requests);
      ("serve/in_flight", t.in_flight);
      ("serve/overloaded", t.overloaded);
      ("serve/protocol_errors", t.protocol_errors);
    ]
  in
  Mutex.unlock t.lock;
  List.filter (fun (_, v) -> v <> 0) rows

let default_queue_limit = 8

(** ["HOST:PORT"] → (host, resolved address, port). Unparseable specs
    and unresolvable hosts raise [Invalid_argument]. *)
let parse_listen spec =
  match String.rindex_opt spec ':' with
  | None -> invalid_arg (Printf.sprintf "bad HOST:PORT %S" spec)
  | Some i -> (
      let host = String.sub spec 0 i in
      let port_s = String.sub spec (i + 1) (String.length spec - i - 1) in
      match int_of_string_opt port_s with
      | None ->
          invalid_arg (Printf.sprintf "bad HOST:PORT %S" spec)
      | Some port when port < 0 || port > 65535 ->
          invalid_arg (Printf.sprintf "bad HOST:PORT %S" spec)
      | Some port ->
          let addr =
            if host = "" || host = "localhost" then Unix.inet_addr_loopback
            else
              match Unix.inet_addr_of_string host with
              | a -> a
              | exception Failure _ -> (
                  match Unix.gethostbyname host with
                  | { Unix.h_addr_list = [||]; _ } | (exception Not_found) ->
                      invalid_arg
                        (Printf.sprintf "cannot resolve host %S" host)
                  | h -> h.Unix.h_addr_list.(0))
          in
          let host = if host = "" then "localhost" else host in
          (host, addr, port))

let error_response msg =
  {
    Api.Response.status = Api.Response.Error msg;
    text = "";
    artifact = None;
    data = Api.Response.D_none;
    stats = [];
    exit_code = 2;
  }

(** Bind and listen; does not accept yet (call {!serve} or {!start}).
    An existing socket file at [socket] is replaced — stale sockets
    from a killed daemon must not block a restart. [listen] adds a TCP
    listener ("HOST:PORT"; port 0 binds an ephemeral port, reported by
    {!listen_addr}). *)
let create ?(queue_limit = default_queue_limit) ?listen ~socket
    (ctx : Api.ctx) =
  if queue_limit < 1 then invalid_arg "queue_limit must be >= 1";
  (try Unix.unlink socket with Unix.Unix_error _ -> ());
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (match
     Unix.bind fd (Unix.ADDR_UNIX socket);
     Unix.listen fd 64
   with
  | () -> ()
  | exception e ->
      Unix.close fd;
      raise e);
  let tcp =
    match listen with
    | None -> None
    | Some spec -> (
        let host, addr, port = parse_listen spec in
        let tfd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
        match
          Unix.setsockopt tfd Unix.SO_REUSEADDR true;
          Unix.bind tfd (Unix.ADDR_INET (addr, port));
          Unix.listen tfd 64;
          (match Unix.getsockname tfd with
          | Unix.ADDR_INET (_, p) -> p
          | _ -> port)
        with
        | bound -> Some (tfd, host, bound)
        | exception e ->
            Unix.close tfd;
            Unix.close fd;
            raise e)
  in
  let t =
    {
      ctx;
      socket_path = socket;
      queue_limit;
      listen_fd = fd;
      tcp;
      lock = Mutex.create ();
      exec_mu = Mutex.create ();
      stopping = false;
      in_flight = 0;
      sessions = 0;
      live_sessions = 0;
      requests = 0;
      overloaded = 0;
      protocol_errors = 0;
      client_threads = [];
    }
  in
  Api.server_counters_hook := (fun () -> counters t);
  t

let listen_addr t = match t.tcp with None -> None | Some (_, h, p) -> Some (h, p)

let overloaded_response =
  {
    Api.Response.status = Api.Response.Overloaded;
    text = "";
    artifact = None;
    data = Api.Response.D_none;
    stats = [];
    exit_code = 3;
  }

let protocol_error_response msg = error_response msg

(* Admission control: admit (true) or refuse (false) without blocking. *)
let admit t =
  Mutex.lock t.lock;
  let ok = t.in_flight < t.queue_limit && not t.stopping in
  if ok then begin
    t.in_flight <- t.in_flight + 1;
    t.requests <- t.requests + 1
  end
  else t.overloaded <- t.overloaded + 1;
  Mutex.unlock t.lock;
  ok

let release t =
  Mutex.lock t.lock;
  t.in_flight <- t.in_flight - 1;
  Mutex.unlock t.lock

let bump t f =
  Mutex.lock t.lock;
  f t;
  Mutex.unlock t.lock

let handle_request t ~session payload =
  match Api.request_of_json payload with
  | Error msg ->
      bump t (fun t -> t.protocol_errors <- t.protocol_errors + 1);
      protocol_error_response ("bad request: " ^ msg)
  | Ok req ->
      if not (admit t) then overloaded_response
      else
        Fun.protect
          ~finally:(fun () -> release t)
          (fun () ->
            Mutex.protect t.exec_mu (fun () ->
                try
                  Obs.Span.wrap
                    ~args:[ ("session", string_of_int session) ]
                    "serve:request"
                    (fun () -> Api.execute t.ctx req)
                with e -> error_response (Printexc.to_string e)))

let handle_session t ~session fd =
  let rec loop () =
    match Framing.read_frame_opt fd with
    | None -> ()
    | Some payload ->
        let resp = handle_request t ~session payload in
        Framing.write_frame fd (Api.response_to_json resp);
        loop ()
    | exception (Framing.Closed | Framing.Oversized _ | Unix.Unix_error _) ->
        ()
  in
  (try loop () with _ -> ());
  (try Unix.close fd with Unix.Unix_error _ -> ());
  bump t (fun t -> t.live_sessions <- t.live_sessions - 1)

(* One accept loop per listener; TCP connections get NODELAY (the
   protocol is small request/response frames — Nagle only adds
   latency). *)
let accept_loop t ~nodelay listen_fd =
  let rec loop () =
    match Unix.accept listen_fd with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
    | exception Unix.Unix_error _ ->
        (* listening socket closed by [stop] (or unusable): shut down *)
        ()
    | fd, _ ->
        if nodelay then
          (try Unix.setsockopt fd Unix.TCP_NODELAY true
           with Unix.Unix_error _ -> ());
        let session =
          Mutex.lock t.lock;
          t.sessions <- t.sessions + 1;
          t.live_sessions <- t.live_sessions + 1;
          let id = t.sessions in
          Mutex.unlock t.lock;
          id
        in
        let th =
          Thread.create (fun () -> handle_session t ~session fd) ()
        in
        bump t (fun t -> t.client_threads <- th :: t.client_threads);
        loop ()
  in
  loop ()

(** Accept loop(s); blocks until {!stop}. *)
let serve t =
  match t.tcp with
  | None -> accept_loop t ~nodelay:false t.listen_fd
  | Some (tfd, _, _) ->
      let tcp_thread =
        Thread.create (fun () -> accept_loop t ~nodelay:true tfd) ()
      in
      accept_loop t ~nodelay:false t.listen_fd;
      Thread.join tcp_thread

(** Run the accept loop on a background thread (in-process daemon, as
    used by tests and the serve bench). *)
let start t = Thread.create serve t

(** Make {!serve} return: mark stopping and shut the listening sockets
    down. [shutdown] (not just [close]) is what wakes an [accept]
    blocked in another thread. Safe to call from a signal handler —
    no joins, no locks. *)
let interrupt t =
  t.stopping <- true;
  (try Unix.shutdown t.listen_fd Unix.SHUTDOWN_ALL
   with Unix.Unix_error _ -> ());
  match t.tcp with
  | None -> ()
  | Some (tfd, _, _) -> (
      try Unix.shutdown tfd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ())

(** Stop accepting, drain every in-flight request, then remove the
    socket file — in that order. Session threads are joined first (each
    finishes once its client disconnects and its admitted requests are
    answered), and only then does the socket file disappear: a vanished
    socket means no work remains, so a supervisor watching for it cannot
    observe a "stopped" daemon that is still computing. Idempotent. *)
let stop t =
  interrupt t;
  (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
  (match t.tcp with
  | None -> ()
  | Some (tfd, _, _) -> (
      try Unix.close tfd with Unix.Unix_error _ -> ()));
  let threads =
    Mutex.lock t.lock;
    let ths = t.client_threads in
    t.client_threads <- [];
    Mutex.unlock t.lock;
    ths
  in
  List.iter Thread.join threads;
  (try Unix.unlink t.socket_path with Unix.Unix_error _ -> ())

let socket_path t = t.socket_path
