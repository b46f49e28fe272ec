(* The daemon: listener + per-connection reader threads around one
   dispatcher thread that owns the query session. See server.mli for the
   architecture contract; the invariant to preserve everywhere is that
   ONLY the dispatcher touches the session (its caches are single-domain
   objects) — connection threads parse, submit, wait and write. *)

module Session = Foc_serve.Session
module Engine = Foc_nd.Engine
module Eval_obs = Foc_eval.Eval_obs
module Scope = Foc_obs.Scope
module Metrics = Foc_obs.Metrics
module Store = Foc_store.Store
module Wal = Foc_store.Wal

type address = Unix_sock of string | Tcp of string * int

type config = {
  address : address;
  engine : Engine.config;
  budget_mb : int;
  jobs : int;
  max_queue : int;
  client_budget : int;
  max_batch : int;
  slow_ms : float;
  slow_log : string option;
  trace_file : string option;
  trace_cap : int option;
  store : string option;
  checkpoint_every : int;
  max_cursors : int;
}

let default_config address =
  {
    address;
    engine = Engine.default_config;
    budget_mb = 256;
    jobs = 1;
    max_queue = 256;
    client_budget = 0;
    max_batch = 32;
    slow_ms = 0.;
    slow_log = None;
    trace_file = None;
    trace_cap = None;
    store = None;
    checkpoint_every = 1024;
    max_cursors = 8;
  }

(* a parsed request waiting for (or holding) its answer *)
type job =
  | JCheck of Foc_logic.Ast.formula
  | JCount of Foc_logic.Ast.term
  | JWrite of bool * string * int array  (* insert?, relation, tuple *)
  | JExplain of Foc_logic.Ast.formula
  | JQuery of Foc_logic.Query.t * Protocol.query_req * int
    (* parsed query, raw request (limit/chunk/after), owning conn id *)
  | JFetch of int * int option * int  (* cursor id, chunk, conn id *)
  | JClose of int * int  (* cursor id, conn id *)
  | JStats
  | JMetrics
  | JShutdown

(* An open streaming cursor. The cursor itself is pulled ONLY by the
   dispatcher (Session.enumerate cursors read session snapshots); the
   registry bookkeeping is guarded by [t.m]. [cu_pending] holds a one-row
   lookahead so every chunk reports an exact [more] flag; an entry always
   holds a lookahead — exhausted cursors are removed, never parked.
   Fetch/close are owner-only, which makes disconnect reaping race-free:
   a connection thread only exits its read loop with no request of its
   own in flight, so nobody can be pulling the cursors it reaps (and
   [Enum] close is pure bookkeeping — it never touches the session). *)
type cursor_entry = {
  cu_conn : int;
  cu : Foc_eval.Enum.cursor;
  cu_version : int;  (* server version the cursor is pinned to *)
  mutable cu_pending : (int array * int array) option;
}

(* Every dispatched request carries a {!Foc_obs.Scope}: the conn thread
   creates it at admission (anchoring queue wait), the dispatcher stamps
   pop/batch times into it and threads it (as the ambient scope) through
   the session so artifact/plan cues land in the right accumulators. The
   reply always carries the finished timing; the conn thread attaches it
   to the wire response only when the client asked. *)
type pending = {
  job : job;
  mutable resp : (Protocol.response * Protocol.timing option) option;
  pm : Mutex.t;
  pc : Condition.t;
  scope : Scope.t;
  sub_ns : int;  (* admission instant *)
  mutable deq_ns : int;  (* dispatcher pop instant *)
  mutable pseq0 : int;  (* session plans recorded at execution start *)
  opname : string;
  qsrc : string;  (* query/term/relation text, for the slow log *)
}

type state = Running | Draining | Stopped

type t = {
  cfg : config;
  sess : Session.t;
  listen_fd : Unix.file_descr;
  addr : address;
  m : Mutex.t;  (* guards queue, state, counters, conns, threads *)
  nonempty : Condition.t;
  stopped_c : Condition.t;
  queue : pending Queue.t;
  mutable state : state;
  mutable version : int;  (* writes applied; dispatcher-only writes *)
  conns : (int, Unix.file_descr) Hashtbl.t;
  mutable conn_seq : int;
  cursors : (int, cursor_entry) Hashtbl.t;  (* bookkeeping under [m] *)
  mutable cursor_seq : int;
  mutable served : int;
  mutable shed : int;
  mutable rejected : int;
  mutable disconnects : int;
  mutable conn_threads : Thread.t list;
  mutable core_threads : Thread.t list;  (* listener + dispatcher *)
  mutable cleaned : bool;
  source : string;  (* cold-start provenance: snapshot/snapshot+wal/rebuild *)
  load_ms : int;  (* startup artifact load/rebuild wall time *)
  mutable wal : Wal.writer option;  (* dispatcher-only (cleanup after join) *)
  mutable writes_since_ckpt : int;  (* dispatcher-only *)
  obs : Metrics.t;  (* dispatcher-owned: request histograms, slow count *)
  h_check : Metrics.Histogram.t;
  h_count : Metrics.Histogram.t;
  h_query : Metrics.Histogram.t;  (* query + fetch chunks *)
  h_write : Metrics.Histogram.t;
  h_explain : Metrics.Histogram.t;
  h_read : Metrics.Histogram.t;  (* check + count + explain combined *)
  slow_logged : Metrics.Counter.t;
  slow : Foc_obs.Sink.t option;
}

let address t = t.addr
let session t = t.sess

let version t =
  Mutex.lock t.m;
  let v = t.version in
  Mutex.unlock t.m;
  v

(* SIGPIPE would kill the whole process when a client disconnects between
   our write() calls; ignore it once and handle EPIPE per-connection. *)
let ignore_sigpipe () =
  try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
  with Invalid_argument _ | Sys_error _ -> ()

(* ---------------- pending plumbing ---------------- *)

let req_seq = Atomic.make 0

let make_pending ?(opname = "") ?(qsrc = "") job =
  (* scope first: its creation instant anchors [total_ns], so taking
     [sub_ns] after it keeps every stamped interval inside [t0, finish]
     and the six phases summing to at most the total *)
  let scope = Scope.create ~id:(Atomic.fetch_and_add req_seq 1) () in
  {
    job;
    resp = None;
    pm = Mutex.create ();
    pc = Condition.create ();
    scope;
    sub_ns = Foc_obs.Clock.now_ns ();
    deq_ns = 0;
    pseq0 = 0;
    opname;
    qsrc;
  }

let reply p r =
  Mutex.lock p.pm;
  p.resp <- Some r;
  Condition.signal p.pc;
  Mutex.unlock p.pm

let await p =
  Mutex.lock p.pm;
  while p.resp = None do
    Condition.wait p.pc p.pm
  done;
  let r = Option.get p.resp in
  Mutex.unlock p.pm;
  r

(* ---------------- dispatcher ---------------- *)

let locked t f =
  Mutex.lock t.m;
  let r = f () in
  Mutex.unlock t.m;
  r

let store_log fields =
  Foc_obs.Sink.write Foc_obs.Sink.stderr_sink (Foc_obs.Logfmt.line fields)

(* Snapshot the session at the current version and start a fresh WAL for
   it — the compaction point: Store.save prunes superseded snapshot/WAL
   pairs. Called from the dispatcher thread (and from cleanup after the
   dispatcher has been joined), so the session is never touched
   concurrently. A failed save keeps the current WAL: the store simply
   stays at the previous checkpoint. *)
let checkpoint t =
  match t.cfg.store with
  | None -> ()
  | Some dir -> (
      match Session.save t.sess ~dir ~version:t.version with
      | exception Sys_error e ->
          store_log
            [ ("msg", Foc_obs.Logfmt.Str "checkpoint_failed");
              ("error", Foc_obs.Logfmt.Str e) ]
      | _path ->
          (match t.wal with Some w -> Wal.close w | None -> ());
          t.wal <-
            (try Some (Wal.create (Store.wal_path ~dir ~version:t.version))
             with Sys_error _ -> None);
          t.writes_since_ckpt <- 0)

let err_of_exn = function
  | Not_found -> Protocol.Error "unknown relation"
  | Invalid_argument m -> Protocol.Error m
  | Failure m -> Protocol.Error m
  | e -> Protocol.Error ("internal error: " ^ Printexc.to_string e)

let timing_of_scope s =
  let p ph = Scope.phase_ns s ph in
  {
    Protocol.queue_ns = p Scope.Queue;
    batch_wait_ns = p Scope.Batch_wait;
    artifact_ns = p Scope.Artifact;
    plan_ns = p Scope.Plan;
    eval_ns = p Scope.Eval;
    write_ns = p Scope.Write;
    total_ns = Scope.total_ns s;
  }

(* saturating round for the explain wire format (ints round-trip exactly) *)
let est_int e =
  if Float.is_nan e || e <= 0. then 0
  else if e >= 1e18 then 1_000_000_000_000_000_000
  else int_of_float (e +. 0.5)

(* the baseline plans one request executed: the session engine's ring
   past the count read when the request started *)
let session_obs t = Engine.eval_obs (Session.engine t.sess)

let request_plans t p =
  List.filter
    (fun (pr : Eval_obs.plan_record) -> pr.pseq > p.pseq0)
    (Eval_obs.plans (session_obs t))

let replans_of plans =
  List.length
    (List.filter (fun (pr : Eval_obs.plan_record) -> pr.replanned) plans)

let plan_info (pr : Eval_obs.plan_record) =
  {
    Protocol.order = pr.order;
    steps = List.map (fun (est, actual) -> (est_int est, actual)) pr.steps;
    replanned = pr.replanned;
  }

(* Close a request's scope, feed the latency histograms, emit a slow-query
   line when over threshold, and hand the answer (with its breakdown) back
   to the waiting connection thread. Dispatcher-thread only. *)
let finalize t p resp =
  let total = Scope.finish p.scope in
  (match p.job with
  | JCheck _ ->
      Metrics.Histogram.observe t.h_check total;
      Metrics.Histogram.observe t.h_read total
  | JCount _ ->
      Metrics.Histogram.observe t.h_count total;
      Metrics.Histogram.observe t.h_read total
  | JExplain _ ->
      Metrics.Histogram.observe t.h_explain total;
      Metrics.Histogram.observe t.h_read total
  | JQuery _ | JFetch _ ->
      Metrics.Histogram.observe t.h_query total;
      Metrics.Histogram.observe t.h_read total
  | JWrite _ -> Metrics.Histogram.observe t.h_write total
  | JClose _ | JStats | JMetrics | JShutdown -> ());
  (match t.slow with
  | Some sink when t.cfg.slow_ms > 0. && float_of_int total /. 1e6 >= t.cfg.slow_ms ->
      Metrics.Counter.inc t.slow_logged;
      let open Foc_obs.Logfmt in
      let ms ns = Float.of_int ns /. 1e6 in
      let ph name phase = (name, Float (ms (Scope.phase_ns p.scope phase))) in
      let plans = request_plans t p in
      let order =
        match List.rev plans with
        | (last : Eval_obs.plan_record) :: _ ->
            String.concat "," (List.map string_of_int last.order)
        | [] -> ""
      in
      Foc_obs.Sink.write sink
        (line
           [ ("msg", Str "slow_query");
             ("req", Int (Scope.id p.scope));
             ("op", Str p.opname);
             ("total_ms", Float (ms total));
             ph "queue_ms" Scope.Queue;
             ph "batch_wait_ms" Scope.Batch_wait;
             ph "artifact_ms" Scope.Artifact;
             ph "plan_ms" Scope.Plan;
             ph "eval_ms" Scope.Eval;
             ph "write_ms" Scope.Write;
             ("plan", Str order);
             ("replans", Int (replans_of plans));
             ("query", Str p.qsrc) ])
  | _ -> ());
  reply p (resp, Some (timing_of_scope p.scope))

let run_checks t group phis =
  let v = t.version in
  let now = Foc_obs.Clock.now_ns () in
  let seq0 = Eval_obs.plans_recorded (session_obs t) in
  List.iter
    (fun p ->
      Scope.add_ns p.scope Scope.Batch_wait (now - p.deq_ns);
      p.pseq0 <- seq0)
    group;
  (* one scope for the shared batch work; each member inherits the whole
     batch's artifact/plan/eval time (it waited for all of it anyway) *)
  let bscope = Scope.create () in
  match
    Scope.with_scope bscope (fun () ->
        Scope.time bscope Scope.Eval (fun () ->
            Session.run_batch ~jobs:t.cfg.jobs t.sess phis))
  with
  | results ->
      List.iter2
        (fun p r ->
          Scope.merge_phases p.scope bscope;
          finalize t p (Protocol.Bool (r, v)))
        group results;
      locked t (fun () -> t.served <- t.served + List.length group)
  | exception e ->
      let r = err_of_exn e in
      List.iter
        (fun p ->
          Scope.merge_phases p.scope bscope;
          finalize t p r)
        group

(* ---------------- streaming cursors (dispatcher-only pulls) ---------- *)

let default_chunk = 128
let chunk_size = function Some c -> max 1 (min c 4096) | None -> default_chunk

(* Pull up to [k] rows and one lookahead row; the lookahead is what makes
   [more] exact instead of a guess that costs the client a final empty
   fetch round-trip. *)
let pull_chunk (cur : Foc_eval.Enum.cursor) k =
  let rec go acc k =
    if k = 0 then (List.rev acc, cur.Foc_eval.Enum.next ())
    else
      match cur.Foc_eval.Enum.next () with
      | None -> (List.rev acc, None)
      | Some row -> go (row :: acc) (k - 1)
  in
  go [] k

let open_cursors_of t cid =
  Hashtbl.fold
    (fun _ e n -> if e.cu_conn = cid then n + 1 else n)
    t.cursors 0

(* Remove and close every cursor owned by connection [cid]. Called by the
   connection thread on its way out (EOF, EPIPE, budget-free close) and
   by [cleanup]; safe off the dispatcher because [Enum] close never
   touches the session and owner-only fetch means nobody can be pulling
   these cursors concurrently. *)
let reap_cursors t cid =
  let owned =
    locked t (fun () ->
        let acc =
          Hashtbl.fold
            (fun id e acc -> if e.cu_conn = cid then (id, e) :: acc else acc)
            t.cursors []
        in
        List.iter (fun (id, _) -> Hashtbl.remove t.cursors id) acc;
        acc)
  in
  List.iter (fun (_, e) -> e.cu.Foc_eval.Enum.close ()) owned

let rows_resp ~rows ~cursor ~version ~producer =
  Protocol.Rows_r
    {
      rrows = rows;
      more = cursor <> None;
      cursor;
      rversion = version;
      producer;
    }

let run_one t p =
  p.pseq0 <- Eval_obs.plans_recorded (session_obs t);
  match p.job with
  | JCheck _ -> assert false (* grouped by the caller *)
  | JCount term ->
      let v = t.version in
      let r =
        match
          Scope.with_scope p.scope (fun () ->
              Scope.time p.scope Scope.Eval (fun () ->
                  Engine.eval_ground (Session.engine t.sess)
                    (Session.structure t.sess) term))
        with
        | n -> Protocol.Int (n, v)
        | exception e -> err_of_exn e
      in
      finalize t p r;
      locked t (fun () -> t.served <- t.served + 1)
  | JWrite (ins, rel, tup) ->
      let r =
        match
          Scope.with_scope p.scope (fun () ->
              Scope.time p.scope Scope.Write (fun () ->
                  if ins then Session.insert t.sess rel tup
                  else Session.delete t.sess rel tup))
        with
        | () ->
            t.version <- t.version + 1;
            (* WAL before acknowledging: a crash after the reply cannot
               lose an acknowledged write (append flushes) *)
            (match t.wal with
            | Some w -> (
                try Wal.append w ~insert:ins ~rel ~tuple:tup
                with Sys_error e ->
                  store_log
                    [ ("msg", Foc_obs.Logfmt.Str "wal_append_failed");
                      ("error", Foc_obs.Logfmt.Str e) ])
            | None -> ());
            t.writes_since_ckpt <- t.writes_since_ckpt + 1;
            if
              t.cfg.store <> None
              && t.cfg.checkpoint_every > 0
              && t.writes_since_ckpt >= t.cfg.checkpoint_every
            then checkpoint t;
            Protocol.Done t.version
        | exception e ->
            locked t (fun () -> t.rejected <- t.rejected + 1);
            err_of_exn e
      in
      finalize t p r;
      locked t (fun () -> t.served <- t.served + 1)
  | JExplain phi ->
      let v = t.version in
      let hits0 =
        Metrics.Counter.value
          (Metrics.counter (Session.metrics t.sess) "session.compiled_hits")
      in
      let r =
        match
          Scope.with_scope p.scope (fun () ->
              Scope.time p.scope Scope.Eval (fun () ->
                  Session.check t.sess phi))
        with
        | b ->
            let plans = request_plans t p in
            let hits1 =
              Metrics.Counter.value
                (Metrics.counter (Session.metrics t.sess)
                   "session.compiled_hits")
            in
            Protocol.Explain_r
              {
                result = b;
                version = v;
                cached = hits1 > hits0;
                replans = replans_of plans;
                plans = List.map plan_info plans;
              }
        | exception e -> err_of_exn e
      in
      finalize t p r;
      locked t (fun () -> t.served <- t.served + 1)
  | JQuery (q, qr, cid) ->
      let v = t.version in
      let r =
        if
          locked t (fun () -> open_cursors_of t cid >= t.cfg.max_cursors)
        then begin
          locked t (fun () -> t.rejected <- t.rejected + 1);
          Protocol.Error
            (Printf.sprintf
               "cursor budget exceeded (max %d open per connection)"
               t.cfg.max_cursors)
        end
        else
          match
            Scope.with_scope p.scope (fun () ->
                Scope.time p.scope Scope.Eval (fun () ->
                    let cur =
                      Session.enumerate t.sess ?limit:qr.Protocol.q_limit
                        ?after:qr.Protocol.q_after q
                    in
                    let rows, pending =
                      pull_chunk cur (chunk_size qr.Protocol.q_chunk)
                    in
                    (cur, rows, pending)))
          with
          | cur, rows, None ->
              cur.Foc_eval.Enum.close ();
              rows_resp ~rows ~cursor:None ~version:v
                ~producer:cur.Foc_eval.Enum.producer
          | cur, rows, (Some _ as pending) ->
              let id =
                locked t (fun () ->
                    t.cursor_seq <- t.cursor_seq + 1;
                    Hashtbl.replace t.cursors t.cursor_seq
                      { cu_conn = cid; cu = cur; cu_version = v;
                        cu_pending = pending };
                    t.cursor_seq)
              in
              rows_resp ~rows ~cursor:(Some id) ~version:v
                ~producer:cur.Foc_eval.Enum.producer
          | exception e -> err_of_exn e
      in
      finalize t p r;
      locked t (fun () -> t.served <- t.served + 1)
  | JFetch (cur_id, chunk, cid) ->
      let r =
        match locked t (fun () -> Hashtbl.find_opt t.cursors cur_id) with
        | Some e when e.cu_conn = cid -> (
            let drop () =
              locked t (fun () -> Hashtbl.remove t.cursors cur_id);
              e.cu.Foc_eval.Enum.close ()
            in
            match
              Scope.with_scope p.scope (fun () ->
                  Scope.time p.scope Scope.Eval (fun () ->
                      let first = Option.get e.cu_pending in
                      pull_chunk e.cu (chunk_size chunk - 1)
                      |> fun (rest, pending) -> (first :: rest, pending)))
            with
            | rows, None ->
                drop ();
                rows_resp ~rows ~cursor:None ~version:e.cu_version
                  ~producer:e.cu.Foc_eval.Enum.producer
            | rows, (Some _ as pending) ->
                e.cu_pending <- pending;
                rows_resp ~rows ~cursor:(Some cur_id) ~version:e.cu_version
                  ~producer:e.cu.Foc_eval.Enum.producer
            | exception Session.Expired ->
                drop ();
                locked t (fun () -> t.rejected <- t.rejected + 1);
                Protocol.Error "cursor expired: structure version changed"
            | exception ex ->
                drop ();
                err_of_exn ex)
        | _ ->
            (* unknown id, or a cursor another connection owns — same
               answer, so ids don't leak across clients *)
            locked t (fun () -> t.rejected <- t.rejected + 1);
            Protocol.Error "unknown cursor"
      in
      finalize t p r;
      locked t (fun () -> t.served <- t.served + 1)
  | JClose (cur_id, cid) ->
      let entry =
        locked t (fun () ->
            match Hashtbl.find_opt t.cursors cur_id with
            | Some e when e.cu_conn = cid ->
                Hashtbl.remove t.cursors cur_id;
                Some e
            | _ -> None)
      in
      (match entry with
      | Some e ->
          e.cu.Foc_eval.Enum.close ();
          finalize t p Protocol.Closed
      | None ->
          locked t (fun () -> t.rejected <- t.rejected + 1);
          finalize t p (Protocol.Error "unknown cursor"));
      locked t (fun () -> t.served <- t.served + 1)
  | JStats ->
      let stats =
        locked t (fun () ->
            {
              Protocol.version = t.version;
              connections = Hashtbl.length t.conns;
              served = t.served;
              shed = t.shed;
              rejected = t.rejected;
              disconnects = t.disconnects;
              p50_us = 0;
              p95_us = 0;
              p99_us = 0;
              cursors = Hashtbl.length t.cursors;
              trace_dropped = 0;
              session = "";
              planner = "";
              source = t.source;
              load_ms = t.load_ms;
            })
      in
      let q x =
        int_of_float (Metrics.Histogram.quantile t.h_read x /. 1e3)
      in
      (* the session registry holds the baseline's counters too; the wire
         carries them in their own [planner] line *)
      let line only = Metrics.line ~only (Session.metrics t.sess) in
      finalize t p
        (Protocol.Stats_r
           {
             stats with
             p50_us = q 0.5;
             p95_us = q 0.95;
             p99_us = q 0.99;
             trace_dropped = Foc_obs.Trace.dropped_events ();
             session = line (fun name -> not (Eval_obs.owns name));
             planner = line Eval_obs.owns;
           });
      locked t (fun () -> t.served <- t.served + 1)
  | JMetrics ->
      Metrics.Gauge.set
        (Metrics.gauge t.obs "trace.dropped_events")
        (Foc_obs.Trace.dropped_events ());
      let text = Metrics.prometheus [ t.obs; Session.metrics t.sess ] in
      finalize t p (Protocol.Metrics_r text);
      locked t (fun () -> t.served <- t.served + 1)
  | JShutdown ->
      locked t (fun () -> if t.state = Running then t.state <- Draining);
      finalize t p Protocol.Bye

let rec dispatcher t =
  Mutex.lock t.m;
  while Queue.is_empty t.queue && t.state = Running do
    Condition.wait t.nonempty t.m
  done;
  if Queue.is_empty t.queue then begin
    (* draining and nothing left: serving is over *)
    t.state <- Stopped;
    Condition.broadcast t.stopped_c;
    Mutex.unlock t.m
  end
  else begin
    let stamp_pop p =
      let now = Foc_obs.Clock.now_ns () in
      Scope.add_ns p.scope Scope.Queue (now - p.sub_ns);
      p.deq_ns <- now
    in
    let p = Queue.pop t.queue in
    stamp_pop p;
    match p.job with
    | JCheck phi ->
        (* group the run of consecutive checks behind [p] into one batch:
           they all read the same structure version, so the session can
           fan them out across the worker pool *)
        let group = ref [ p ] and phis = ref [ phi ] and n = ref 1 in
        let continue = ref true in
        while !continue && !n < t.cfg.max_batch do
          match Queue.peek_opt t.queue with
          | Some { job = JCheck phi2; _ } ->
              let p2 = Queue.pop t.queue in
              stamp_pop p2;
              group := p2 :: !group;
              phis := phi2 :: !phis;
              incr n
          | _ -> continue := false
        done;
        Mutex.unlock t.m;
        run_checks t (List.rev !group) (List.rev !phis);
        dispatcher t
    | _ ->
        Mutex.unlock t.m;
        run_one t p;
        dispatcher t
  end

(* ---------------- admission ---------------- *)

let submit t p =
  locked t (fun () ->
      match t.state with
      | Running when Queue.length t.queue >= t.cfg.max_queue ->
          t.shed <- t.shed + 1;
          Result.Error "overloaded: request queue full"
      | Running ->
          Queue.add p t.queue;
          Condition.signal t.nonempty;
          Result.Ok ()
      | Draining | Stopped -> Result.Error "server shutting down")

(* ---------------- connections ---------------- *)

let send_line oc line =
  output_string oc line;
  output_char oc '\n';
  flush oc

let job_of_request cid = function
  | Protocol.Ping -> assert false (* answered inline *)
  | Protocol.Check src -> (
      match Foc_logic.Parser.formula_result Foc_logic.Pred.standard src with
      | Ok phi -> Result.Ok (JCheck phi)
      | Error e -> Result.Error e)
  | Protocol.Count src -> (
      match Foc_logic.Parser.term_result Foc_logic.Pred.standard src with
      | Ok term -> Result.Ok (JCount term)
      | Error e -> Result.Error e)
  | Protocol.Insert (r, tup) -> Result.Ok (JWrite (true, r, tup))
  | Protocol.Delete (r, tup) -> Result.Ok (JWrite (false, r, tup))
  | Protocol.Explain src -> (
      match Foc_logic.Parser.formula_result Foc_logic.Pred.standard src with
      | Ok phi -> Result.Ok (JExplain phi)
      | Error e -> Result.Error e)
  | Protocol.Query qr -> (
      match
        Foc_logic.Parser.formula_result Foc_logic.Pred.standard
          qr.Protocol.q_body
      with
      | Error e -> Result.Error e
      | Ok body -> (
          let rec parse_terms acc = function
            | [] -> Result.Ok (List.rev acc)
            | src :: rest -> (
                match
                  Foc_logic.Parser.term_result Foc_logic.Pred.standard src
                with
                | Ok tm -> parse_terms (tm :: acc) rest
                | Error e -> Result.Error e)
          in
          match parse_terms [] qr.Protocol.q_terms with
          | Error e -> Result.Error e
          | Ok head_terms -> (
              match
                Foc_logic.Query.make ~head_vars:qr.Protocol.q_head
                  ~head_terms body
              with
              | q -> Result.Ok (JQuery (q, qr, cid))
              | exception Invalid_argument m -> Result.Error m)))
  | Protocol.Fetch { f_cursor; f_chunk } ->
      Result.Ok (JFetch (f_cursor, f_chunk, cid))
  | Protocol.Close_cursor c -> Result.Ok (JClose (c, cid))
  | Protocol.Stats -> Result.Ok JStats
  | Protocol.Metrics -> Result.Ok JMetrics
  | Protocol.Shutdown -> Result.Ok JShutdown

let opname_of = function
  | Protocol.Ping -> "ping"
  | Protocol.Check _ -> "check"
  | Protocol.Count _ -> "count"
  | Protocol.Insert _ -> "insert"
  | Protocol.Delete _ -> "delete"
  | Protocol.Explain _ -> "explain"
  | Protocol.Query _ -> "query"
  | Protocol.Fetch _ -> "fetch"
  | Protocol.Close_cursor _ -> "close_cursor"
  | Protocol.Stats -> "stats"
  | Protocol.Metrics -> "metrics"
  | Protocol.Shutdown -> "shutdown"

let qsrc_of = function
  | Protocol.Check src | Protocol.Count src | Protocol.Explain src -> src
  | Protocol.Query qr -> qr.Protocol.q_body
  | Protocol.Insert (r, _) | Protocol.Delete (r, _) -> r
  | Protocol.Ping | Protocol.Fetch _ | Protocol.Close_cursor _
  | Protocol.Stats | Protocol.Metrics | Protocol.Shutdown ->
      ""

let handle_line t cid budget line =
  match Protocol.parse_request line with
  | Error e ->
      locked t (fun () -> t.rejected <- t.rejected + 1);
      (None, Protocol.Error e, None)
  | Ok (meta, Protocol.Ping) -> (meta.Protocol.rid, Protocol.Pong, None)
  | Ok (meta, req) -> (
      let id = meta.Protocol.rid in
      if t.cfg.client_budget > 0 && !budget <= 0 then begin
        locked t (fun () -> t.rejected <- t.rejected + 1);
        (id, Protocol.Error "client budget exhausted", None)
      end
      else begin
        decr budget;
        match job_of_request cid req with
        | Error e ->
            locked t (fun () -> t.rejected <- t.rejected + 1);
            (id, Protocol.Error ("parse error: " ^ e), None)
        | Ok job -> (
            let p =
              make_pending ~opname:(opname_of req) ~qsrc:(qsrc_of req) job
            in
            match submit t p with
            | Error e -> (id, Protocol.Error e, None)
            | Ok () ->
                let resp, tim = await p in
                (id, resp, if meta.Protocol.timing then tim else None))
      end)

let conn_loop t cid fd =
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr fd in
  let budget = ref t.cfg.client_budget in
  (try
     while true do
       let line = String.trim (input_line ic) in
       if line <> "" then begin
         let id, resp, timing = handle_line t cid budget line in
         send_line oc (Protocol.response_line ?id ?timing resp)
       end
     done
   with
  | End_of_file -> ()
  | Unix.Unix_error ((EPIPE | ECONNRESET | EBADF), _, _) | Sys_error _ ->
      (* client went away mid-request or mid-response *)
      locked t (fun () -> t.disconnects <- t.disconnects + 1));
  locked t (fun () -> Hashtbl.remove t.conns cid);
  (* a client that vanished (or closed cleanly) must not pin its open
     streaming cursors — and the rows they retain — until shutdown *)
  reap_cursors t cid;
  try Unix.close fd with Unix.Unix_error _ -> ()

let listener t =
  let continue = ref true in
  while !continue do
    match Unix.accept t.listen_fd with
    | fd, _ ->
        locked t (fun () ->
            if t.state <> Running then begin
              (* draining: refuse the connection and retire the listener *)
              (try Unix.close fd with Unix.Unix_error _ -> ());
              continue := false
            end
            else begin
              t.conn_seq <- t.conn_seq + 1;
              let cid = t.conn_seq in
              Hashtbl.replace t.conns cid fd;
              t.conn_threads <-
                Thread.create (fun () -> conn_loop t cid fd) ()
                :: t.conn_threads
            end)
    | exception Unix.Unix_error (EINTR, _, _) -> ()
    | exception (Unix.Unix_error _ | Sys_error _) ->
        (* listen socket closed: shutdown *)
        continue := false
  done

(* ---------------- lifecycle ---------------- *)

let resolve_host host =
  try Unix.inet_addr_of_string host
  with Failure _ -> (
    try (Unix.gethostbyname host).Unix.h_addr_list.(0)
    with Not_found -> raise (Unix.Unix_error (Unix.EADDRNOTAVAIL, "bind", host)))

let bind_listen = function
  | Unix_sock path ->
      (try Unix.unlink path with Unix.Unix_error _ | Sys_error _ -> ());
      let fd = Unix.socket PF_UNIX SOCK_STREAM 0 in
      Unix.bind fd (ADDR_UNIX path);
      Unix.listen fd 64;
      (fd, Unix_sock path)
  | Tcp (host, port) ->
      let fd = Unix.socket PF_INET SOCK_STREAM 0 in
      Unix.setsockopt fd SO_REUSEADDR true;
      Unix.bind fd (ADDR_INET (resolve_host host, port));
      Unix.listen fd 64;
      let port =
        match Unix.getsockname fd with
        | ADDR_INET (_, p) -> p
        | _ -> port
      in
      (fd, Tcp (host, port))

let start cfg structure =
  ignore_sigpipe ();
  (match cfg.trace_cap with
  | Some n -> Foc_obs.Trace.set_cap n
  | None -> ());
  if cfg.trace_file <> None then Foc_obs.Trace.enable ();
  let listen_fd, addr = bind_listen cfg.address in
  (* cold start: restore from the newest valid snapshot (+WAL) when a
     store is configured, fall back to a full rebuild on ANY store
     problem — a torn or corrupt file must never stop the daemon *)
  let load0 = Foc_obs.Clock.now_ns () in
  let sess, version0, source =
    match cfg.store with
    | None ->
        ( Session.create ~budget_mb:cfg.budget_mb ~config:cfg.engine
            structure,
          0, "rebuild" )
    | Some dir -> (
        match
          Session.load ~budget_mb:cfg.budget_mb ~config:cfg.engine ~dir ()
        with
        | Ok l ->
            if l.Session.wal_torn then
              store_log
                [ ("msg", Foc_obs.Logfmt.Str "wal_torn_tail_discarded");
                  ("replayed", Foc_obs.Logfmt.Int l.Session.wal_replayed) ];
            ( l.Session.session,
              l.Session.version,
              if l.Session.wal_replayed > 0 then
                Printf.sprintf "snapshot+wal n=%d" l.Session.wal_replayed
              else "snapshot" )
        | Error e ->
            store_log
              [ ("msg", Foc_obs.Logfmt.Str "store_load_failed_rebuilding");
                ("error", Foc_obs.Logfmt.Str e) ];
            ( Session.create ~budget_mb:cfg.budget_mb ~config:cfg.engine
                structure,
              0, "rebuild" ))
  in
  let load_ms =
    (Foc_obs.Clock.now_ns () - load0 + 500_000) / 1_000_000
  in
  let obs = Metrics.create () in
  let slow =
    if cfg.slow_ms > 0. then
      Some
        (match cfg.slow_log with
        | Some path -> Foc_obs.Sink.create path
        | None -> Foc_obs.Sink.stderr_sink)
    else None
  in
  let t =
    {
      cfg;
      sess;
      listen_fd;
      addr;
      m = Mutex.create ();
      nonempty = Condition.create ();
      stopped_c = Condition.create ();
      queue = Queue.create ();
      state = Running;
      version = version0;
      conns = Hashtbl.create 16;
      conn_seq = 0;
      cursors = Hashtbl.create 16;
      cursor_seq = 0;
      served = 0;
      shed = 0;
      rejected = 0;
      disconnects = 0;
      conn_threads = [];
      core_threads = [];
      cleaned = false;
      source;
      load_ms;
      wal = None;
      writes_since_ckpt = 0;
      obs;
      h_check = Metrics.histogram obs "req.check.ns";
      h_count = Metrics.histogram obs "req.count.ns";
      h_query = Metrics.histogram obs "req.query.ns";
      h_write = Metrics.histogram obs "req.write.ns";
      h_explain = Metrics.histogram obs "req.explain.ns";
      h_read = Metrics.histogram obs "req.read.ns";
      slow_logged = Metrics.counter obs "req.slow";
      slow;
    }
  in
  (* anchor the store before serving: the rebuild case writes its first
     snapshot (so a later kill -9 restarts from it), the snapshot+wal
     case compacts the just-replayed WAL into a fresh snapshot; both
     leave an open WAL at the current version *)
  checkpoint t;
  store_log
    [ ("msg", Foc_obs.Logfmt.Str "serve_start");
      ("source", Foc_obs.Logfmt.Str t.source);
      ("load_ms", Foc_obs.Logfmt.Int t.load_ms);
      ("version", Foc_obs.Logfmt.Int t.version);
      ( "store",
        Foc_obs.Logfmt.Str (Option.value cfg.store ~default:"") ) ];
  t.core_threads <-
    [ Thread.create (fun () -> dispatcher t) ();
      Thread.create (fun () -> listener t) () ];
  t

(* Waking a thread blocked in [accept] is the delicate part: on Linux,
   closing the descriptor from another thread does NOT interrupt the
   accept — the listener would sleep forever on the dead fd and the
   join below would hang.  [shutdown] on the listening socket does wake
   it (accept fails with EINVAL); a throwaway self-connection is the
   belt-and-braces fallback for stacks where it does not. *)
let wake_listener t =
  (try Unix.shutdown t.listen_fd Unix.SHUTDOWN_ALL
   with Unix.Unix_error _ -> ());
  try
    let dom, sa =
      match t.addr with
      | Unix_sock path -> (Unix.PF_UNIX, Unix.ADDR_UNIX path)
      | Tcp (host, port) -> (Unix.PF_INET, Unix.ADDR_INET (resolve_host host, port))
    in
    let fd = Unix.socket dom SOCK_STREAM 0 in
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      (fun () -> Unix.connect fd sa)
  with Unix.Unix_error _ | Sys_error _ | Not_found -> ()

(* After the dispatcher has stopped: wake and join the listener, nudge
   every connection reader with a socket shutdown, join all threads,
   then release descriptors and the socket file. Idempotent — stop and
   wait may both run it. *)
let cleanup t =
  let already = locked t (fun () ->
      let c = t.cleaned in
      t.cleaned <- true;
      c)
  in
  if not already then begin
    wake_listener t;
    (* join the listener (and dispatcher) first: once it is gone no new
       connection threads can appear behind our back *)
    List.iter Thread.join (locked t (fun () -> t.core_threads));
    (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
    let conn_fds =
      locked t (fun () -> Hashtbl.fold (fun _ fd acc -> fd :: acc) t.conns [])
    in
    (* Receive side only: the reader blocked in [input_line] sees EOF and
       the thread exits, but the send side stays open so a response the
       dispatcher completed moments before the stop (the [bye] to the very
       client that requested shutdown, or any in-flight answer on another
       connection) still reaches its client.  SHUTDOWN_ALL here raced
       those last writes and clients saw the connection die before their
       final reply. *)
    List.iter
      (fun fd ->
        try Unix.shutdown fd Unix.SHUTDOWN_RECEIVE
        with Unix.Unix_error _ -> ())
      conn_fds;
    List.iter Thread.join (locked t (fun () -> t.conn_threads));
    (* belt-and-braces: every conn thread reaped its own cursors on the
       way out, but close anything left so drain never leaks one *)
    let leftover =
      locked t (fun () ->
          let es = Hashtbl.fold (fun _ e acc -> e :: acc) t.cursors [] in
          Hashtbl.reset t.cursors;
          es)
    in
    List.iter (fun e -> e.cu.Foc_eval.Enum.close ()) leftover;
    (* graceful-drain checkpoint: every thread is joined, so the
       dispatcher is gone and the session is safe to snapshot; warm
       artifacts built while serving are persisted for the next start *)
    checkpoint t;
    (match t.wal with
    | Some w ->
        Wal.close w;
        t.wal <- None
    | None -> ());
    (match t.cfg.trace_file with
    | Some f ->
        (try Foc_obs.Trace.export_chrome f with Sys_error _ -> ());
        Foc_obs.Trace.disable ()
    | None -> ());
    (match t.slow with
    | Some sink when sink != Foc_obs.Sink.stderr_sink ->
        Foc_obs.Sink.close sink
    | _ -> ());
    (match t.addr with
    | Unix_sock path -> (
        try Unix.unlink path with Unix.Unix_error _ | Sys_error _ -> ())
    | Tcp _ -> ())
  end

let wait t =
  Mutex.lock t.m;
  while t.state <> Stopped do
    Condition.wait t.stopped_c t.m
  done;
  Mutex.unlock t.m;
  cleanup t

let stop t =
  locked t (fun () ->
      if t.state = Running then begin
        t.state <- Draining;
        Condition.broadcast t.nonempty
      end);
  wait t
