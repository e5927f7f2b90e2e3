(* The long-running compile daemon.

   Request lines arrive on stdin (default) or a Unix-domain socket;
   responses leave as compact JSONL on the corresponding output, one line
   per request, under a mutex (requests may complete out of order when the
   pool is wide — clients correlate by id).

   Lifecycle:
     boot      load the solver-cache snapshot (corrupt -> quarantined, cold)
     loop      poll input with a short select timeout so SIGTERM/SIGINT are
               noticed promptly; admit requests up to max_inflight, shed the
               rest with structured `overloaded` errors; submit each to the
               process pool (Pool.submit runs it inline at jobs = 1)
     drain     stop accepting, wait for in-flight requests up to the grace
               period, snapshot the caches, exit 0; requests still queued
               or running when the grace expires are dropped with the
               process, since the pool never joins its workers at exit

   Everything that can fail at runtime (snapshot IO, a poisoned request)
   degrades: logged to stderr, never a crash. *)

type config = {
  socket : string option;
  deadline_ms : float option;
  max_inflight : int;
  snapshot_dir : string option;
  snapshot_every : int;
  stats_every : int;
  drain_grace_ms : float;
  scrub : bool;
}

let default_config =
  {
    socket = None;
    deadline_ms = None;
    max_inflight = 64;
    snapshot_dir = None;
    snapshot_every = 32;
    stats_every = 0;
    drain_grace_ms = 2000.0;
    scrub = false;
  }

let snapshot_version = 1

let log fmt = Printf.eprintf ("fastsc serve: " ^^ fmt ^^ "\n%!")

(* -- snapshots --------------------------------------------------------------- *)

let snapshot_path dir = Filename.concat dir "solver_cache.json"

let load_snapshot dir =
  match Snapshot.load ~path:(snapshot_path dir) ~version:snapshot_version with
  | Snapshot.Missing -> log "snapshot: none found, booting cold"
  | Snapshot.Quarantined reason -> log "snapshot: quarantined (%s), booting cold" reason
  | Snapshot.Loaded payload ->
    let n = Freq_alloc.import_cache payload in
    log "snapshot: loaded %d solver-cache entr%s" n (if n = 1 then "y" else "ies")

let snapshot_mutex = Mutex.create ()

let save_snapshot dir =
  Mutex.lock snapshot_mutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock snapshot_mutex)
    (fun () ->
      try
        Snapshot.save ~path:(snapshot_path dir) ~version:snapshot_version
          (Freq_alloc.export_cache ())
      with exn -> log "snapshot: save failed (%s)" (Printexc.to_string exn))

(* -- input: line-at-a-time with prompt stop polling -------------------------- *)

(* Raw Unix reads (no Stdlib buffering) so select can tell us when data is
   available; the short timeout keeps the loop responsive to the stop flag
   set by the signal handlers.  EINTR is the signal arriving mid-call — loop
   and let the flag decide. *)
let make_line_reader ~stop fd =
  let pending : string Queue.t = Queue.create () in
  let partial = Buffer.create 256 in
  let chunk = Bytes.create 4096 in
  let eof = ref false in
  let rec next () =
    if not (Queue.is_empty pending) then Some (Queue.pop pending)
    else if !eof || Atomic.get stop then None
    else begin
      (match Unix.select [ fd ] [] [] 0.05 with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      | [], _, _ -> ()
      | _ -> (
        match Unix.read fd chunk 0 (Bytes.length chunk) with
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
        | 0 ->
          eof := true;
          if Buffer.length partial > 0 then begin
            Queue.push (Buffer.contents partial) pending;
            Buffer.clear partial
          end
        | k ->
          for i = 0 to k - 1 do
            match Bytes.get chunk i with
            | '\n' ->
              Queue.push (Buffer.contents partial) pending;
              Buffer.clear partial
            | c -> Buffer.add_char partial c
          done));
      next ()
    end
  in
  next

(* -- the serve loop ---------------------------------------------------------- *)

type state = {
  stop : bool Atomic.t;
  inflight : int Atomic.t;
  completed : int Atomic.t;
  out_mutex : Mutex.t;
  telemetry : Telemetry.t;
}

let scrub_enabled config =
  config.scrub || Sys.getenv_opt "FASTSC_SERVE_SCRUB" = Some "1"

let respond ~config ~state oc resp =
  let line = Protocol.response_line ~scrub:(scrub_enabled config) resp in
  Mutex.lock state.out_mutex;
  (try
     output_string oc line;
     output_char oc '\n';
     flush oc
   with Sys_error _ -> ());
  Mutex.unlock state.out_mutex

let error_response err_id code message =
  Protocol.Error_response { err_id; code; message }

let handle_line ~config ~state oc line =
  let line = String.trim line in
  if line <> "" then
    match Json.parse line with
    | exception Json.Parse_error msg ->
      respond ~config ~state oc
        (error_response "" Protocol.Bad_request_code ("invalid JSON: " ^ msg))
    | doc -> (
      (* salvage the id first so even a mistyped request gets a correlated
         error back *)
      let rid =
        match Json.member "id" doc with Some (Json.String s) -> s | _ -> ""
      in
      match Protocol.request_of_json doc with
      | exception Protocol.Bad_request msg ->
        respond ~config ~state oc (error_response rid Protocol.Bad_request_code msg)
      | req ->
        let admitted = Atomic.fetch_and_add state.inflight 1 in
        if admitted >= config.max_inflight then begin
          ignore (Atomic.fetch_and_add state.inflight (-1));
          respond ~config ~state oc
            (error_response req.Protocol.id Protocol.Overloaded
               (Printf.sprintf "%d requests in flight (max %d)" admitted
                  config.max_inflight))
        end
        else begin
          let job () =
            let resp =
              try Ladder.compile ?default_deadline_ms:config.deadline_ms req with
              | Protocol.Bad_request msg ->
                error_response req.Protocol.id Protocol.Bad_request_code msg
              | exn ->
                error_response req.Protocol.id Protocol.Internal
                  (Printexc.to_string exn)
            in
            respond ~config ~state oc resp;
            if config.stats_every > 0 then Telemetry.record state.telemetry resp;
            let completed = 1 + Atomic.fetch_and_add state.completed 1 in
            if config.stats_every > 0 && completed mod config.stats_every = 0 then
              log "%s" (Telemetry.line state.telemetry);
            (match config.snapshot_dir with
            | Some dir
              when config.snapshot_every > 0 && completed mod config.snapshot_every = 0
              ->
              save_snapshot dir
            | _ -> ());
            (* released last: a drain that sees no request in flight knows
               every job has finished, periodic snapshot included *)
            ignore (Atomic.fetch_and_add state.inflight (-1))
          in
          Pool.submit job
        end)

let drain ~config ~state =
  let deadline = Deadline.after_ms ~label:"drain" config.drain_grace_ms in
  while Atomic.get state.inflight > 0 && not (Deadline.expired deadline) do
    try Unix.sleepf 0.01 with Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done;
  let left = Atomic.get state.inflight in
  if left > 0 then log "drain: grace expired with %d request(s) in flight" left;
  Option.iter save_snapshot config.snapshot_dir;
  log "drained %d request(s) served" (Atomic.get state.completed)

let serve_channel ~config ~state fd oc =
  let next_line = make_line_reader ~stop:state.stop fd in
  let rec loop () =
    match next_line () with
    | Some line ->
      handle_line ~config ~state oc line;
      loop ()
    | None -> ()
  in
  loop ()

let serve_socket ~config ~state path =
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  let listener = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind listener (Unix.ADDR_UNIX path);
  Unix.listen listener 8;
  log "listening on %s" path;
  let rec accept_loop () =
    if not (Atomic.get state.stop) then begin
      (match Unix.select [ listener ] [] [] 0.05 with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      | [], _, _ -> ()
      | _ -> (
        match Unix.accept listener with
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
        | client, _ ->
          let oc = Unix.out_channel_of_descr client in
          (* one client at a time: requests still fan across the pool, and
             this connection's responses must all land before close *)
          serve_channel ~config ~state client oc;
          let deadline = Deadline.after_ms ~label:"connection" config.drain_grace_ms in
          while Atomic.get state.inflight > 0 && not (Deadline.expired deadline) do
            try Unix.sleepf 0.01 with Unix.Unix_error (Unix.EINTR, _, _) -> ()
          done;
          (try flush oc with Sys_error _ -> ());
          (try Unix.close client with Unix.Unix_error _ -> ())));
      accept_loop ()
    end
  in
  accept_loop ();
  (try Unix.close listener with Unix.Unix_error _ -> ());
  (try Unix.unlink path with Unix.Unix_error _ -> ())

let run config =
  let stop = Atomic.make false in
  let on_signal = Sys.Signal_handle (fun _ -> Atomic.set stop true) in
  Sys.set_signal Sys.sigterm on_signal;
  Sys.set_signal Sys.sigint on_signal;
  Option.iter load_snapshot config.snapshot_dir;
  let state =
    {
      stop;
      inflight = Atomic.make 0;
      completed = Atomic.make 0;
      out_mutex = Mutex.create ();
      telemetry = Telemetry.create ();
    }
  in
  log "ready (jobs=%d, max_inflight=%d%s)" (Pool.default_jobs ()) config.max_inflight
    (match config.deadline_ms with
    | None -> ""
    | Some d -> Printf.sprintf ", deadline=%gms" d);
  (match config.socket with
  | None -> serve_channel ~config ~state Unix.stdin stdout
  | Some path -> serve_socket ~config ~state path);
  drain ~config ~state
