(* One `foc serve` process: spawned on a fresh socket with its default
   flags apart from the address, --jobs 1 and, when given, --store;
   stopped with the shutdown op, killed when it misses the deadline.
   Signals are not used to stop it: the daemon's SIGTERM handler never
   runs while all of its threads are blocked.

   --jobs 1 keeps the daemon to one domain. With the default (one worker
   domain per core) the two domains meet at every minor collection, and
   on a shared 2-vCPU host that costs more the busier the host is: two
   domains running a fixed allocating kernel each took 3-3.5x as long as
   one did alone, while two processes running it took no longer. In
   trial runs of local-read the default served 47-59 requests/s and
   --jobs 1 served 70-77 at the same host speed. *)

module P = Foc.Server_protocol
module C = Foc.Server_client

type t = { pid : int; sock : string; mutable reaped : bool }

let args ~structure ~sock ~store =
  [ "serve"; "-s"; structure; "--socket"; sock; "--jobs"; "1" ]
  @ match store with None -> [] | Some dir -> [ "--store"; dir ]

let spawn ~foc ~structure ~sock ~store ~log =
  let fd = Unix.openfile log [ Unix.O_WRONLY; O_CREAT; O_APPEND ] 0o644 in
  let argv = Array.of_list (foc :: args ~structure ~sock ~store) in
  let pid = Unix.create_process foc argv Unix.stdin fd fd in
  Unix.close fd;
  { pid; sock; reaped = false }

let exited d =
  d.reaped
  ||
  match Unix.waitpid [ Unix.WNOHANG ] d.pid with
  | 0, _ -> false
  | _ ->
      d.reaped <- true;
      true

(* Connect, retrying until the daemon listens. Every later receive on the
   connection is bounded by [timeout] seconds. *)
let connect ?(within = 60.) ?(timeout = 60.) d =
  let until = Unix.gettimeofday () +. within in
  let rec go () =
    match C.connect ~timeout (Foc.Server.Unix_sock d.sock) with
    | c -> c
    | exception (Unix.Unix_error _ | C.Timeout) ->
        if exited d then failwith "foc serve exited during start-up"
        else if Unix.gettimeofday () > until then
          failwith "foc serve did not accept a connection in time"
        else begin
          Unix.sleepf 0.002;
          go ()
        end
  in
  go ()

(* [true] when the daemon acknowledged shutdown and exited within
   [deadline] seconds; otherwise it is killed and [false] returned. *)
let stop ?(deadline = 15.) d =
  let until = Unix.gettimeofday () +. deadline in
  let acked =
    match connect ~within:1. ~timeout:deadline d with
    | c ->
        let r = try C.rpc c P.Shutdown = P.Bye with _ -> false in
        C.close c;
        r
    | exception Failure _ -> false
  in
  let rec wait () =
    if exited d then true
    else if Unix.gettimeofday () > until then begin
      (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] d.pid);
      d.reaped <- true;
      false
    end
    else begin
      Unix.sleepf 0.005;
      wait ()
    end
  in
  wait () && acked

(* ---- what the process itself reports through /proc ---- *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* VmHWM: the resident-set high-water mark, in MiB *)
let peak_rss_mb d =
  let status = read_file (Printf.sprintf "/proc/%d/status" d.pid) in
  String.split_on_char '\n' status
  |> List.find_map (fun l ->
         match String.split_on_char ':' l with
         | [ "VmHWM"; v ] ->
             Scanf.sscanf (String.trim v) "%d kB" (fun kb ->
                 Some (float_of_int kb /. 1024.))
         | _ -> None)
  |> Option.get

(* user + system CPU time, in clock ticks *)
let cpu_ticks d =
  let stat = read_file (Printf.sprintf "/proc/%d/stat" d.pid) in
  let after = String.rindex stat ')' + 2 in
  let fields =
    String.split_on_char ' ' (String.sub stat after (String.length stat - after))
  in
  int_of_string (List.nth fields 11) + int_of_string (List.nth fields 12)

(* ---- the daemon's own counters ---- *)

(* "k=v k=v ..." with integer values *)
let logfmt_ints line =
  String.split_on_char ' ' line
  |> List.filter_map (fun kv ->
         match String.index_opt kv '=' with
         | Some i -> (
             let k = String.sub kv 0 i
             and v = String.sub kv (i + 1) (String.length kv - i - 1) in
             match int_of_string_opt v with Some v -> Some (k, v) | None -> None)
         | None -> None)

type counters = {
  stats : P.stats;
  ints : (string * int) list;  (** the session and planner lines *)
  metrics : string;  (** the Prometheus page *)
}

let counters c =
  match (C.rpc c P.Stats, C.rpc c P.Metrics) with
  | P.Stats_r stats, P.Metrics_r metrics ->
      { stats; ints = logfmt_ints stats.session @ logfmt_ints stats.planner; metrics }
  | _ -> failwith "stats/metrics request refused"

let int_of cs k = Option.value ~default:0 (List.assoc_opt k cs.ints)

(* Cumulative bucket counts of one Prometheus histogram, as
   (upper bound, count) with +Inf as [infinity]. *)
let histogram cs name =
  let prefix = name ^ "_bucket{le=\"" in
  String.split_on_char '\n' cs.metrics
  |> List.filter_map (fun l ->
         if String.starts_with ~prefix l then
           let rest = String.sub l (String.length prefix) (String.length l - String.length prefix) in
           Scanf.sscanf rest "%[^\"]\"} %d" (fun le n ->
               Some ((if le = "+Inf" then infinity else float_of_string le), n))
         else None)
