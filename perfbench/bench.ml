(* The repository benchmark: a real `foc serve` daemon under seeded,
   closed-loop traffic from one connection, every answer verified
   afterwards by an in-process oracle.

     bench.exe --workload local-read --seed 1 --seconds 10 --trace 0 \
       --foc _build/default/bin/foc_cli.exe --work DIR

   The last line of standard output is one JSON object:
   {"correct":..,"attempted":..,"failed":..,"metrics":{..}}. With
   --trace 0 the metrics are the end-to-end ones, measured client-side
   with no timing requested from the daemon, and their times scaled to a
   nominal host speed (see Hostspeed; the times as measured are printed
   beside them). With --trace 1 the window is cut into short untraced
   and traced parts that alternate on one daemon, the traced ones with
   "timing":true on every request, with scrapes of stats/metrics and
   /proc around them; the metrics are then the per-layer ones, and the
   spans are written to DIR/spans.json.
   perfbench/run.py builds the program and calls this. *)

module P = Foc.Server_protocol
module C = Foc.Server_client
module W = Workload

let now = Unix.gettimeofday

(* ---------------- arguments ---------------- *)

let workload = ref ""
let seed = ref 1
let seconds = ref 10.
let traced = ref false
let foc = ref ""
let work = ref "."
let facts = ref ""
let clk_tck = ref 100

let () =
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME one of " ^ String.concat ", " W.names);
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Int (fun s -> seconds := float_of_int s), "S timed window");
      ("--trace", Arg.Int (fun t -> traced := t = 1), "0|1 per-layer traced run");
      ("--foc", Arg.Set_string foc, "PATH the foc executable");
      ("--work", Arg.Set_string work, "DIR scratch directory for this run");
      ("--facts", Arg.Set_string facts, "JSON host facts to echo");
      ("--clk-tck", Arg.Set_int clk_tck, "N clock ticks per second of /proc");
    ]
    (fun a -> raise (Arg.Bad a))
    "bench.exe --workload NAME --seed N --seconds S --trace 0|1 --foc PATH --work DIR"

(* ---------------- small statistics ---------------- *)

let quantile q xs =
  match List.sort compare xs with
  | [] -> 0.
  | s ->
      let a = Array.of_list s in
      a.(min (Array.length a - 1) (int_of_float (q *. float_of_int (Array.length a))))

let median = quantile 0.5
let mean = function [] -> 0. | xs -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)
let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b

(* ---------------- what the client saw ---------------- *)

type kind = Check | Count | Write | Open | Fetch | Close

let kind_name = function
  | Check -> "check" | Count -> "count" | Write -> "write"
  | Open -> "query" | Fetch -> "fetch" | Close -> "close_cursor"

type req = {
  kind : kind;
  rid : int;
  t0 : float;  (** request line written *)
  t1 : float;  (** full reply read *)
  decode : float;  (** Protocol.parse_response of the reply *)
  timing : P.timing option;
  rows : int;  (** rows in a page reply *)
}

type span = { name : string; id : int; parent : int option; start : float; dur : float }

(* the connection's record of a window *)
type log = {
  mutable reqs : req list;
  mutable answers : Oracle.answer list;
  mutable writes : (int * P.request) list;  (** acknowledged, with their version *)
  mutable errors : string list;
  mutable spans : span list;
}

let new_log () = { reqs = []; answers = []; writes = []; errors = []; spans = [] }

exception Lost of string

let rid_seq = ref 0

let next_rid () =
  incr rid_seq;
  !rid_seq

(* One request, closed loop: write the line, block for the reply. *)
let rpc ?(rid = next_rid ()) log c ~tracing kind req =
  let line = P.request_line ~id:rid ~timing:tracing req in
  let t0 = now () in
  let reply =
    try
      C.send_raw c line;
      C.recv_raw c
    with
    | End_of_file -> raise (Lost "disconnected")
    | C.Timeout -> raise (Lost "timed out")
    | Unix.Unix_error (e, _, _) -> raise (Lost (Unix.error_message e))
  in
  let t1 = now () in
  let resp = P.parse_response reply in
  let decode = now () -. t1 in
  let meta, resp = match resp with Ok r -> r | Error e -> raise (Lost ("bad reply: " ^ e)) in
  let rows = match resp with P.Rows_r r -> List.length r.rrows | _ -> 0 in
  log.reqs <- { kind; rid; t0; t1; decode; timing = meta.rtiming; rows } :: log.reqs;
  if tracing then
    log.spans <-
      { name = "foc_server.decode"; id = rid; parent = Some rid; start = t1; dur = decode }
      :: { name = kind_name kind; id = rid; parent = None; start = t0; dur = t1 -. t0 }
      :: log.spans;
  (match resp with
  | P.Error e -> log.errors <- (kind_name kind ^ ": " ^ e) :: log.errors
  | _ -> ());
  resp

(* The client-side parse of a read or stream body, timed apart from the
   request loop so that a traced request differs from an untraced one
   only in "timing":true: [reps] parses of the body, one span each, and
   their median in seconds. *)
let time_parse spans (step : W.step) ~reps =
  let src, term =
    match step with
    | W.Read (P.Check s) -> (s, false)
    | W.Read (P.Count s) -> (s, true)
    | W.Stream q -> (q.P.q_body, false)
    | W.Read _ | W.Write _ -> invalid_arg "time_parse"
  in
  let one () =
    let t = now () in
    (if term then ignore (Foc.parse_term src) else ignore (Foc.parse_formula src));
    let d = now () -. t in
    spans := { name = "foc_logic.parse"; id = next_rid (); parent = None; start = t; dur = d } :: !spans;
    d
  in
  median (List.init reps (fun _ -> one ()))

(* the versions of the snapshots in a store directory *)
let snapshot_versions dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter_map (fun f -> Scanf.sscanf_opt f "snap-%d.foc%!" Fun.id)

(* Run one step of a sequence. [index] maps a read or stream to its
   position in the workload's distinct list. *)
let run_step log c ~tracing index (step : W.step) =
  let answer got version =
    log.answers <- { Oracle.step = index step; version; got } :: log.answers
  in
  match step with
  | W.Read req -> (
      let kind = match req with P.Check _ -> Check | P.Count _ -> Count | _ -> invalid_arg "run_step" in
      match rpc log c ~tracing kind req with
      | P.Bool (b, v) -> answer (Oracle.Bool b) v
      | P.Int (n, v) -> answer (Oracle.Int n) v
      | _ -> ())
  | W.Write req -> (
      match rpc log c ~tracing Write req with
      | P.Done v -> log.writes <- (v, req) :: log.writes
      | _ -> ())
  | W.Stream q -> (
      let rec pages resp k rows hash =
        match resp with
        | P.Rows_r r ->
            let rows = rows + List.length r.rrows in
            let hash = List.fold_left Oracle.hash_row hash r.rrows in
            let finish ended = answer (Oracle.Rows { rows; hash; ended }) r.rversion in
            (match r.cursor with
            | Some id when r.more && k < W.page_cap ->
                pages
                  (rpc log c ~tracing Fetch (P.Fetch { f_cursor = id; f_chunk = q.P.q_chunk }))
                  (k + 1) rows hash
            | Some id when r.more ->
                finish false;
                ignore (rpc log c ~tracing Close (P.Close_cursor id))
            | _ -> finish (not r.more))
        | _ -> ()
      in
      pages (rpc log c ~tracing Open (P.Query q)) 1 0 0)

(* ---------------- the daemon under test ---------------- *)

let structure_file = "structure.foc"
let pristine_store = "store.0"

(* One set-up: spawn a daemon on a fresh socket (and a fresh copy of the
   saved store), then send every distinct read and stream once. Returns
   the daemon, its store directory, the spawn-to-warm and ready-to-warm
   times, and the daemon's VmHWM once warm. *)
let setup (w : W.t) k =
  let sock = Printf.sprintf "d%d.sock" k in
  let store =
    if w.name = "read-write" then begin
      let dir = Printf.sprintf "store.%d" (k + 1) in
      Unix.mkdir dir 0o755;
      Array.iter
        (fun f ->
          Out_channel.with_open_bin (Filename.concat dir f) (fun oc ->
              output_string oc (Daemon.read_file (Filename.concat pristine_store f))))
        (Sys.readdir pristine_store);
      Some dir
    end
    else None
  in
  let t0 = now () in
  let d = Daemon.spawn ~foc:!foc ~structure:structure_file ~sock ~store ~log:"daemon.log" in
  let c = Daemon.connect d in
  let ready = now () in
  let log = new_log () in
  List.iteri
    (fun i st -> run_step log c ~tracing:false (fun _ -> i) st)
    w.distinct;
  let t1 = now () in
  C.close c;
  if log.errors <> [] then failwith ("warm-up failed: " ^ List.hd log.errors);
  (d, store, t1 -. t0, t1 -. ready, Daemon.peak_rss_mb d)

(* ---------------- one timed window ---------------- *)

(* The host's CPU time stolen by its hypervisor, as the [steal] and total
   ticks of /proc/stat summed over CPUs; printed, not used. *)
let host_ticks () =
  let line = In_channel.with_open_bin "/proc/stat" In_channel.input_line |> Option.get in
  let ticks =
    String.split_on_char ' ' line |> List.tl
    |> List.filter_map int_of_string_opt
    |> List.filteri (fun i _ -> i < 8)
  in
  (List.nth ticks 7, List.fold_left ( + ) 0 ticks)

type window = { log : log; wall : float; lost : string option }

(* The connection runs steps drawn from [next] until [secs] have passed,
   [next] returns [None] or the connection is lost. *)
let window (w : W.t) c ~tracing ~next ~secs =
  let index =
    let tbl = Hashtbl.create 64 in
    List.iteri (fun i st -> Hashtbl.replace tbl st i) w.distinct;
    fun st -> Hashtbl.find tbl st
  in
  let log = new_log () in
  let t0 = now () in
  let until = t0 +. secs in
  let rec loop () =
    if now () < until then
      match next () with
      | None -> ()
      | Some step ->
          run_step log c ~tracing index step;
          loop ()
  in
  let lost = try loop (); None with Lost why -> Some why in
  { log; wall = now () -. t0; lost }

let with_conn d f =
  let c = Daemon.connect d in
  Fun.protect ~finally:(fun () -> C.close c) (fun () -> f c)

(* Windows run one after another, taken together. *)
let merge wins =
  let cat f = List.concat_map (fun x -> f x.log) wins in
  {
    log =
      {
        reqs = cat (fun l -> l.reqs);
        answers = cat (fun l -> l.answers);
        writes = cat (fun l -> l.writes);
        errors = cat (fun l -> l.errors);
        spans = cat (fun l -> l.spans);
      };
    wall = List.fold_left (fun s x -> s +. x.wall) 0. wins;
    lost = List.find_map (fun x -> x.lost) wins;
  }

(* The timed window of an untraced run: [secs] of traffic in slices of
   [slice_s], with the reference kernel timed before each slice and after
   the last, while no request is in flight. *)
let slice_s = 2.

let sliced w d speed ~next ~secs =
  with_conn d (fun c ->
      let rec go left acc =
        Hostspeed.sample speed;
        match acc with
        | { lost = Some _; _ } :: _ -> merge (List.rev acc)
        | _ when left <= 0. -> merge (List.rev acc)
        | _ ->
            let x = window w c ~tracing:false ~next ~secs:(Float.min slice_s left) in
            go (left -. x.wall) (x :: acc)
      in
      go secs [])

let reqs win = win.log.reqs

(* completed requests per second *)
let throughput win = float_of_int (List.length win.log.reqs) /. win.wall

let errors win = win.log.errors
let of_kind ks wins = List.filter (fun r -> List.mem r.kind ks) (List.concat_map reqs wins)
let ms_of r = (r.t1 -. r.t0) *. 1e3
let phases (t : P.timing) = t.queue_ns + t.batch_wait_ns + t.artifact_ns + t.plan_ns + t.eval_ns + t.write_ns

(* ---------------- output ---------------- *)

let metric_json (name, value, unit) =
  Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name value unit

let print_metrics title ms =
  Printf.printf "%s\n" title;
  List.iter (fun (name, value, unit, note) ->
      Printf.printf "  %-36s %14.6g %-6s %s\n" name value unit note) ms

let () =
  if not (List.mem !workload W.names) then begin
    prerr_endline ("bench: unknown workload " ^ !workload);
    exit 2
  end;
  if not (Sys.file_exists !foc) then begin
    prerr_endline ("bench: no foc executable at " ^ !foc);
    exit 2
  end;
  Sys.chdir !work;
  let w = W.make !workload ~seed:!seed in
  Foc.Structure_io.save structure_file w.structure;
  (* read-write starts from a snapshot saved in an untimed step *)
  if w.name = "read-write" then begin
    let st =
      Unix.create_process !foc
        [| !foc; "snapshot"; "save"; "-s"; structure_file; pristine_store |]
        Unix.stdin Unix.stderr Unix.stderr
      |> Unix.waitpid [] |> snd
    in
    if st <> Unix.WEXITED 0 then failwith "foc snapshot save failed"
  end;
  (* Set up at least [min_reps] times, and more while set-up is cheap, so
     that setup_s is a median over at least [min_total_s] of set-ups; the
     last daemon is kept for the timed window. The reference kernel is
     timed before each set-up and after the last, and again during the
     window; the median of all these times scales both the set-up and the
     window (in trial runs the median of the window's own eight times was
     once 20% below the run's other times while the daemon served as many
     requests per second as in the runs around it). *)
  let min_reps = 3 and max_reps = 25 and min_total_s = 4. in
  let stops = ref 0 and stops_missed = ref 0 in
  let speed = Hostspeed.create () in
  let rec setups k acc spent =
    Hostspeed.sample speed;
    let d, store, total, warm, rss = setup w k in
    let acc = (total, warm, rss) :: acc and spent = spent +. total in
    if k + 1 < max_reps && (k + 1 < min_reps || spent < min_total_s) then begin
      incr stops;
      if not (Daemon.stop d) then incr stops_missed;
      setups (k + 1) acc spent
    end
    else begin
      Hostspeed.sample speed;
      (d, store, acc)
    end
  in
  let d, store, times = setups 0 [] 0. in
  let reps = List.length times in
  let setup_s = median (List.map (fun (t, _, _) -> t) times)
  and warmup_s = median (List.map (fun (_, t, _) -> t) times)
  (* Memory is read once the warm-up pass is done: the structure, the
     caches, and the peak of evaluating each distinct request once. Under
     traffic the resident set goes on growing with the garbage collector's
     pacing, by amounts that differ from run to run (in trial runs of
     local-read: 55 MB when warm, 90-120 MB after 300 more steps, 220-360
     MB at the end of a 15 s window); that end-of-window figure is
     printed, not gated. *)
  and peak_rss_mb = median (List.map (fun (_, _, r) -> r) times) in
  let next =
    let next = w.sequence () in
    fun () -> Some (next ())
  in
  (* The first requests after the warm-up pass run slower than the rest
     (in trial runs the first 4 s of a 20 s window served 10-25% fewer
     requests than each later 4 s); a fixed count of settle steps is
     served and verified, not timed. *)
  let settle =
    let left = ref w.settle_steps in
    let next () = if !left > 0 then (decr left; next ()) else None in
    with_conn d (fun c -> window w c ~tracing:false ~next ~secs:60.)
  in
  let scrape () =
    let c = Daemon.connect d in
    let cs = Daemon.counters c in
    C.close c;
    (cs, Daemon.cpu_ticks d, now ())
  in
  let wal_bytes () =
    match store with
    | None -> 0
    | Some dir ->
        Sys.readdir dir |> Array.to_list
        |> List.filter (fun f -> String.starts_with ~prefix:"wal-" f)
        |> List.fold_left (fun s f -> s + (Unix.stat (Filename.concat dir f)).st_size) 0
  in
  let snapshots () = match store with Some dir -> snapshot_versions dir | None -> [] in
  (* With --trace 1 the window is [trace_pairs] pairs of an untraced and a
     traced part, in alternating order, so that a drift of the host's
     speed during the run does not count as tracing cost. The client-side
     parse is timed before them, once per distinct body. *)
  let trace_pairs = 3 in
  let parse_spans = ref [] in
  let parse_us =
    if !traced then
      List.filter_map
        (function W.Write _ -> None | st -> Some (time_parse parse_spans st ~reps:20 *. 1e6))
        w.distinct
    else []
  in
  let before = scrape () and ticks0 = host_ticks () in
  let wal0 = wal_bytes () and snap0 = List.fold_left max (-1) (snapshots ()) in
  let pairs =
    if !traced then
      let part = !seconds /. float_of_int trace_pairs in
      List.init trace_pairs (fun p ->
          let u () = with_conn d (fun c -> window w c ~tracing:false ~next ~secs:part)
          and t () = with_conn d (fun c -> window w c ~tracing:true ~next ~secs:part) in
          if p mod 2 = 0 then
            let u = u () in
            (u, t ())
          else
            let t = t () in
            (u (), t))
    else []
  in
  let measured =
    if !traced then List.concat_map (fun (u, t) -> [ u; t ]) pairs
    else [ sliced w d speed ~next ~secs:!seconds ]
  in
  let after = scrape () and ticks1 = host_ticks () in
  let wal1 = wal_bytes () and snaps1 = snapshots () in
  let peak_rss_end_mb = Daemon.peak_rss_mb d in
  incr stops;
  if not (Daemon.stop d) then incr stops_missed;
  (* ---- the oracle ---- *)
  let wins = settle :: measured in
  let all_logs = List.map (fun x -> x.log) wins in
  let writes = List.concat_map (fun l -> l.writes) all_logs in
  let answers = List.concat_map (fun l -> l.answers) all_logs in
  let dense = List.sort compare (List.map fst writes) = List.init (List.length writes) (fun i -> i + 1) in
  let answered = List.sort_uniq compare (List.map (fun (a : Oracle.answer) -> a.version) answers) in
  (* every version when there are few; else a seeded sample that keeps
     the first and the last *)
  let sample = 6 in
  let versions =
    if List.length answered <= sample then answered
    else
      let arr = Array.of_list answered in
      let rng = Random.State.make [| 41; !seed |] in
      let last = Array.length arr - 1 in
      List.sort_uniq compare
        (arr.(0) :: arr.(last) :: List.init (sample - 2) (fun _ -> arr.(1 + Random.State.int rng (last - 1))))
  in
  let checked, mismatches = Oracle.check w ~writes ~versions answers in
  let errs = List.concat_map errors wins in
  let lost = List.filter_map (fun x -> x.lost) wins in
  let attempted = List.length (List.concat_map reqs wins) + List.length lost + !stops in
  let failed =
    List.length errs + List.length lost + List.length mismatches + !stops_missed
    + if dense then 0 else 1
  in
  (* ---- report ---- *)
  Printf.printf "workload %s: n=%d, one connection, closed loop; %s\n" w.name w.n w.mix;
  Printf.printf "host %s\n"
    (String.concat ", "
       [ Printf.sprintf "{\"facts\": %s" (if !facts = "" then "{}" else !facts);
         Printf.sprintf "\"ocaml\": %S" Sys.ocaml_version;
         Printf.sprintf "\"recommended_domains\": %d" (Domain.recommended_domain_count ());
         Printf.sprintf "\"seed\": %d" !seed;
         Printf.sprintf "\"seconds\": %g" !seconds;
         Printf.sprintf "\"traced\": %b" !traced;
         Printf.sprintf "\"ref_ms\": {\"nominal\": %g, \"median\": %.2f, \"samples\": [%s]}" Hostspeed.nominal_ms
           (Hostspeed.median_ms speed)
           (String.concat ", " (List.map (Printf.sprintf "%.1f") (Hostspeed.samples speed)));
         Printf.sprintf "\"steal_pct\": %.2f"
           (let (s0, t0), (s1, t1) = (ticks0, ticks1) in
            100. *. float_of_int (s1 - s0) /. float_of_int (max 1 (t1 - t0)));
         Printf.sprintf "\"daemon_args\": %S}"
           (String.concat " " (Daemon.args ~structure:structure_file ~sock:"SOCK" ~store:(Option.map (fun _ -> "DIR") store))) ]);
  Printf.printf "oracle: %d answers checked at %d of %d versions, %d mismatches; %d writes acknowledged%s\n"
    checked (List.length versions) (List.length answered) (List.length mismatches) (List.length writes)
    (if dense then "" else " (versions NOT dense)");
  List.iteri (fun i m -> if i < 5 then Printf.printf "  mismatch: %s\n" m) mismatches;
  List.iteri (fun i m -> if i < 5 then Printf.printf "  error: %s\n" m) (errs @ lost);
  if !stops_missed > 0 then Printf.printf "  %d daemon(s) missed the shutdown deadline\n" !stops_missed;
  let fail_frac = float_of_int failed /. float_of_int attempted in
  let metrics =
    if not !traced then begin
      let win = List.hd measured in
      (* times scaled to the nominal host: divided by the slowdown the
         reference kernel saw, rates multiplied by it *)
      let k = Hostspeed.slowdown speed in
      let lat_raw ks q = quantile q (List.map ms_of (of_kind ks [ win ])) in
      let lat ks q = lat_raw ks q /. k in
      let count ks = List.length (of_kind ks [ win ]) in
      let rows = List.fold_left (fun s r -> s + r.rows) 0 (of_kind [ Open; Fetch ] [ win ]) in
      let some ks v = if count ks = 0 then (v, "n/a: none in this mix") else (v, Printf.sprintf "n=%d" (count ks)) in
      let line name unit (v, note) = (name, v, unit, note) in
      let reads = [ Check; Count ] in
      (* The tail gated is p95: relational-stream answers about 350
         reads in a 15 s window on a slow 2-vCPU host, and p95 is the
         highest percentile with ten samples beyond it on every
         workload. *)
      let e2e =
        [ line "throughput_rps" "1/s"
            ( throughput win *. k,
              Printf.sprintf "%d requests in %.2f s" (List.length (reqs win)) win.wall );
          line "read_p50_ms" "ms" (some reads (lat reads 0.5));
          line "read_p95_ms" "ms" (some reads (lat reads 0.95));
          line "setup_s" "s" (setup_s /. k, Printf.sprintf "median of %d set-ups" reps);
          line "peak_rss_mb" "MB"
            (peak_rss_mb, Printf.sprintf "daemon VmHWM once warm, median of %d set-ups" reps) ]
      in
      let extra =
        [ line "read_p99_ms" "ms"
            (lat reads 0.99, Printf.sprintf "%d samples beyond it" (count reads / 100));
          line "write_p50_ms" "ms" (some [ Write ] (lat [ Write ] 0.5));
          line "write_p90_ms" "ms" (some [ Write ] (lat [ Write ] 0.9));
          line "ttfr_p50_ms" "ms" (some [ Open ] (lat [ Open ] 0.5));
          line "ttfr_p99_ms" "ms" (some [ Open ] (lat [ Open ] 0.99));
          line "fetch_p50_ms" "ms" (some [ Fetch ] (lat [ Fetch ] 0.5));
          line "rows_per_s" "1/s" (some [ Open; Fetch ] (float_of_int rows /. win.wall *. k));
          line "peak_rss_end_mb" "MB" (peak_rss_end_mb, "daemon VmHWM at the end of the window");
          line "fail_frac" "ratio" (fail_frac, Printf.sprintf "%d of %d" failed attempted);
          line "throughput_raw_rps" "1/s" (throughput win, "as measured, not scaled");
          line "read_p50_raw_ms" "ms" (lat_raw reads 0.5, "as measured, not scaled");
          line "read_p95_raw_ms" "ms" (lat_raw reads 0.95, "as measured, not scaled");
          line "setup_raw_s" "s" (setup_s, "as measured, not scaled") ]
      in
      Printf.printf
        "host speed: the reference kernel took %.2f ms (median of %d), against %g ms nominal; \
         times below are scaled to the nominal host\n"
        (Hostspeed.median_ms speed) (Hostspeed.count speed) Hostspeed.nominal_ms;
      print_metrics "end-to-end (untraced):" (e2e @ extra);
      List.map (fun (n, v, u, _) -> (n, v, u)) e2e
    end
    else begin
      (* timing fields come from the traced parts; counters, /proc and the
         WAL cover the whole block of untraced and traced parts, so they
         are divided by what the whole block served *)
      let traced_wins = List.map snd pairs in
      let (b, bticks, bt), (a, aticks, at) = (before, after) in
      let delta k = Daemon.int_of a k - Daemon.int_of b k in
      let timed ks = List.filter_map (fun r -> Option.map (fun t -> (r, t)) r.timing) (of_kind ks traced_wins) in
      let count ks = List.length (of_kind ks measured) in
      let all_kinds = [ Check; Count; Write; Open; Fetch; Close ] in
      let ph ks f = List.map (fun (_, t) -> float_of_int (f t) /. 1e6) (timed ks) in
      let reads = [ Check; Count ] in
      let nreads = count reads and nwrites = count [ Write ] in
      let nevals = count [ Check; Count; Open ] in
      let hist_q name q =
        (* quantile of the window's observations from the daemon's
           power-of-two histogram: the bucket's upper bound *)
        let hb = Daemon.histogram b name and ha = Daemon.histogram a name in
        let cum h le = List.fold_left (fun acc (b, n) -> if b <= le then max acc n else acc) 0 h in
        let deltas = List.map (fun (le, _) -> (le, cum ha le - cum hb le)) ha in
        let total = cum ha infinity - cum hb infinity in
        if total = 0 then 0.
        else
          let finite = List.filter (fun (le, _) -> le < infinity) deltas in
          match List.find_opt (fun (_, c) -> float_of_int c >= q *. float_of_int total) finite with
          | Some (le, _) -> le
          | None -> List.fold_left (fun m (le, _) -> Float.max m le) 0. finite
      in
      let sum_bad =
        List.length
          (List.filter (fun (r, t) -> phases t > t.P.total_ns || float_of_int t.P.total_ns > (r.t1 -. r.t0) *. 1e9)
             (timed all_kinds))
      in
      let total_ns = List.fold_left (fun s (_, t) -> s + t.P.total_ns) 0 (timed all_kinds) in
      let untracked_ns = List.fold_left (fun s (_, t) -> s + t.P.total_ns - phases t) 0 (timed all_kinds) in
      (* snapshots newer than the newest before the block; the store
         keeps two, so at most two can show *)
      let checkpoints = List.length (List.filter (fun v -> v > snap0) snaps1) in
      let overheads = List.map (fun (u, t) -> (throughput u -. throughput t) /. throughput u) pairs in
      let eval_obs = "Eval_obs counter, exact at --jobs 1" in
      let per = [
        ("foc_server.queue_p50_ms", median (ph all_kinds (fun t -> t.queue_ns)), "ms", "");
        ("foc_server.queue_p99_ms", quantile 0.99 (ph all_kinds (fun t -> t.queue_ns)), "ms", "");
        ("foc_server.batch_wait_ms", mean (ph [ Check ] (fun t -> t.batch_wait_ns)), "ms", "mean over checks");
        ("foc_server.untracked_ms", median (ph all_kinds (fun t -> t.total_ns - phases t)), "ms", "total_ns - sum of phases, p50");
        ("foc_server.wire_ms", median (List.map (fun (r, t) -> ((r.t1 -. r.t0) *. 1e3) -. (float_of_int t.P.total_ns /. 1e6)) (timed all_kinds)), "ms", "client wall - total_ns, p50");
        ("foc_server.decode_us", median (List.map (fun r -> r.decode *. 1e6) (List.concat_map reqs traced_wins)), "us", "Protocol.parse_response, p50");
        ("foc_server.shed", float_of_int (a.stats.shed - b.stats.shed), "count", "");
        ("foc_server.rejected", float_of_int (a.stats.rejected - b.stats.rejected), "count", "");
        ("foc_server.disconnects", float_of_int (a.stats.disconnects - b.stats.disconnects), "count", "");
        ("foc_par.cpu_util", float_of_int (aticks - bticks) /. float_of_int !clk_tck /. (at -. bt), "ratio", "daemon CPU s per wall s, /proc");
        ("foc_serve.artifact_p50_ms", median (ph reads (fun t -> t.artifact_ns)), "ms", "");
        ("foc_serve.artifact_p99_ms", quantile 0.99 (ph reads (fun t -> t.artifact_ns)), "ms", "");
        ("foc_serve.write_ms", median (ph [ Write ] (fun t -> t.write_ns)), "ms", Printf.sprintf "p50 over %d writes" nwrites);
        ("foc_serve.compiled_hit_ratio", ratio (delta "session.compiled_hits") (delta "session.compiled_hits" + delta "session.compiled_misses"), "ratio",
         Printf.sprintf "base %d" (delta "session.compiled_hits" + delta "session.compiled_misses"));
        ("foc_serve.ctx_hit_ratio", ratio (delta "session.ctx_hits") (delta "session.ctx_hits" + delta "session.ctx_misses"), "ratio",
         Printf.sprintf "base %d" (delta "session.ctx_hits" + delta "session.ctx_misses"));
        ("foc_serve.invalidated_per_write", ratio (delta "session.invalidated") nwrites, "count", Printf.sprintf "base %d writes" nwrites);
        ("foc_serve.balls_dropped_per_write", ratio (delta "session.balls_dropped") nwrites, "count", Printf.sprintf "base %d writes" nwrites);
        ("foc_serve.warmup_s", warmup_s, "s", "median, daemon ready to warm-up done");
        ("foc_nd.eval_p50_ms", median (ph reads (fun t -> t.eval_ns)), "ms", "");
        ("foc_nd.eval_p99_ms", quantile 0.99 (ph reads (fun t -> t.eval_ns)), "ms", "");
        ("foc_nd.fallbacks_per_read", ratio (delta "engine.fallbacks") nevals, "count", Printf.sprintf "base %d reads+opens" nevals);
        ("foc_local.balls_computed_per_read", ratio (delta "ball.computed") nreads, "count", Printf.sprintf "base %d reads" nreads);
        ("foc_local.ball_hit_ratio", ratio (delta "ball.cache_hits") (delta "ball.cache_hits" + delta "ball.computed"), "ratio",
         Printf.sprintf "base %d" (delta "ball.cache_hits" + delta "ball.computed"));
        ("foc_graph.bfs_visited_per_read", ratio (delta "bfs.visited") nreads, "count", Printf.sprintf "base %d reads" nreads);
        ("foc_logic.plan_ms", mean (ph [ Check; Count; Open ] (fun t -> t.plan_ns)), "ms", "mean over reads+opens");
        ("foc_logic.parse_us", median parse_us, "us",
         Printf.sprintf "Foc.parse_formula/parse_term, median over %d bodies of each one's median of 20" (List.length parse_us));
        ("foc_stats.replans", float_of_int (delta "planner.replans"), "count", eval_obs);
        ("foc_stats.plan_err_max", float_of_int (Daemon.int_of a "planner.err_max_x100") /. 100., "ratio", "process-lifetime max");
        ("foc_eval.rows_built_per_read", ratio (delta "table.rows_built") nevals, "count", eval_obs);
        ("foc_eval.join_probe_rows_per_read", ratio (delta "join.probe_rows") nevals, "count", eval_obs);
        ("foc_eval.peak_table_mb", float_of_int (Daemon.int_of a "table.peak_bytes") /. 1048576., "MB", "process-lifetime peak; " ^ eval_obs);
        ("foc_eval.enum_ttfr_p50_us", hist_q "foc_enum_ttfr_ns" 0.5 /. 1e3, "us", "histogram bucket bound; " ^ eval_obs);
        ("foc_eval.enum_delay_p95_us", hist_q "foc_enum_delay_ns" 0.95 /. 1e3, "us", "histogram bucket bound; " ^ eval_obs);
        ("foc_store.wal_bytes_per_write", ratio (wal1 - wal0) nwrites, "bytes", Printf.sprintf "base %d writes" nwrites);
        ("foc_store.checkpoints", float_of_int checkpoints, "count", "snapshots taken during the block, at most 2 visible");
        ("foc_store.load_ms", float_of_int a.stats.load_ms, "ms", "stats load_ms of the kept daemon");
        ("trace.overhead", median overheads, "ratio",
         Printf.sprintf "median of %d pairs, throughput untraced/traced req/s: %s" trace_pairs
           (String.concat ", " (List.map (fun (u, t) -> Printf.sprintf "%.1f/%.1f" (throughput u) (throughput t)) pairs)));
        ("trace.sum_violations", float_of_int sum_bad, "count", "replies breaking sum(phases) <= total_ns <= client wall");
        ("trace.untracked_share", (if total_ns = 0 then 0. else float_of_int untracked_ns /. float_of_int total_ns), "ratio", "");
      ] in
      print_metrics "per-layer (traced parts):" per;
      print_endline
        "not measured from outside: busy time per Foc_par worker (foc_par.cpu_util stands in), \
         WAL flush time, BFS time (only visits are counted), and when each daemon phase \
         started (phases carry durations only, so their child spans are laid end to end \
         inside the request span)";
      (* spans: the client's request spans plus the daemon's phases as
         children, written now that the window is over *)
      let spans =
        !parse_spans
        @ List.concat_map
          (fun l ->
            l.spans
            @ List.concat_map
                (fun r ->
                  match r.timing with
                  | None -> []
                  | Some t ->
                      let at = ref r.t0 in
                      List.filter_map
                        (fun (name, ns) ->
                          if ns = 0 then None
                          else begin
                            let s = { name; id = r.rid; parent = Some r.rid; start = !at; dur = float_of_int ns /. 1e9 } in
                            at := !at +. s.dur;
                            Some s
                          end)
                        [ ("foc_server.queue", t.queue_ns); ("foc_server.batch_wait", t.batch_wait_ns);
                          ("foc_serve.artifact", t.artifact_ns); ("foc_logic.plan", t.plan_ns);
                          ("foc_nd.eval", t.eval_ns); ("foc_serve.write", t.write_ns) ])
                l.reqs)
          (List.map (fun x -> x.log) traced_wins)
      in
      Out_channel.with_open_bin "spans.json" (fun oc ->
          output_string oc "[\n";
          List.iteri
            (fun i s ->
              Printf.fprintf oc "%s{\"name\":%S,\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.1f,\"dur\":%.1f,\"args\":{\"parent\":%s}}\n"
                (if i = 0 then "" else ",") s.name s.id (s.start *. 1e6) (s.dur *. 1e6)
                (match s.parent with Some p -> string_of_int p | None -> "null"))
            spans;
          output_string oc "]\n");
      List.map (fun (n, v, u, _) -> (n, v, u)) per
    end
  in
  let correct = failed = 0 in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed
    (String.concat ", " (List.map metric_json metrics));
  exit (if correct then 0 else 1)
