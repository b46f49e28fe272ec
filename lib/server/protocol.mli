(** The wire protocol of [foc serve]: one JSON object per line, in both
    directions. Requests carry an operation tag and its arguments;
    responses echo the optional request [id] and carry either a result or
    an error. The protocol is deliberately flat — no framing beyond the
    newline, no pipelining state — so a session can be driven by hand with
    [socat] or [nc].

    Requests:
    {v
    {"op":"ping"}
    {"op":"check","query":"exists x. #(y). E(x,y) >= 2","id":7}
    {"op":"check","query":"...","timing":true}
    {"op":"count","term":"#(x,y). E(x,y)"}
    {"op":"insert","rel":"E","tuple":[3,4]}
    {"op":"delete","rel":"R","tuple":[5]}
    {"op":"explain","query":"..."}
    {"op":"query","head":["x","y"],"body":"E(x,y)","limit":100,"chunk":32}
    {"op":"query","head":["x"],"terms":["#(y). E(x,y)"],"body":"x = x","after":[5]}
    {"op":"fetch","cursor":3,"chunk":64}
    {"op":"close_cursor","cursor":3}
    {"op":"stats"}
    {"op":"metrics"}
    {"op":"shutdown"}
    v}

    Responses:
    {v
    {"id":7,"ok":true,"result":true,"version":3}
    {"ok":true,"result":12,"version":3}
    {"ok":true,"result":true,"version":3,"timing":{"queue_ns":..,"total_ns":..}}
    {"ok":true,"version":4}
    {"ok":true,"result":"pong"}
    {"ok":true,"result":"bye"}
    {"ok":true,"rows":[[[0,1],[2]],[[0,3],[1]]],"more":true,"cursor":3,
     "producer":"walk","version":3}
    {"ok":true,"rows":[],"more":false,"producer":"walk","version":3}
    {"ok":true,"result":"closed"}
    {"ok":true,"stats":{...,"session":"<logfmt>"}}
    {"ok":true,"result":true,"version":3,"explain":{"cached":false,...}}
    {"ok":true,"metrics":"# TYPE foc_req_check_ns histogram\n..."}
    {"ok":false,"error":"parse error at 4: ..."}
    v}

    [version] is the number of writes the server has applied; a read's
    [version] names the exact structure snapshot it was evaluated on, which
    is what lets a load generator replay the write log and verify every
    answer against a fresh sequential engine. *)

type query_req = {
  q_head : string list;  (** head variable names, output order *)
  q_terms : string list;  (** head counting-term sources (may be empty) *)
  q_body : string;  (** FOC(P) body source *)
  q_limit : int option;  (** cap on total answers across all chunks *)
  q_chunk : int option;  (** rows per response chunk (server default/cap) *)
  q_after : int array option;
      (** resume strictly after this head tuple (exclusive) *)
}
(** Streaming query open: the server answers with a {!rows} chunk and, if
    more answers remain, a cursor id for {!request.Fetch}. *)

type request =
  | Ping
  | Check of string  (** FOC(P) sentence source *)
  | Count of string  (** ground counting-term source *)
  | Insert of string * int array  (** relation, tuple *)
  | Delete of string * int array
  | Explain of string
      (** evaluate like [Check] but return the planner's story too *)
  | Query of query_req  (** open a streaming answer cursor *)
  | Fetch of { f_cursor : int; f_chunk : int option }
      (** next chunk from an open cursor *)
  | Close_cursor of int  (** release a cursor early *)
  | Stats
  | Metrics  (** Prometheus text exposition of all server registries *)
  | Shutdown

type timing = {
  queue_ns : int;  (** admission to dispatcher pop *)
  batch_wait_ns : int;  (** dispatcher pop to batch execution start *)
  artifact_ns : int;  (** cover/context/Hanf/stats/compile cache misses *)
  plan_ns : int;  (** baseline-planner join ordering *)
  eval_ns : int;  (** evaluation proper (excludes artifact/plan) *)
  write_ns : int;  (** structure update + invalidation *)
  total_ns : int;  (** admission to reply; ≥ the sum of the phases *)
}
(** Per-request latency decomposition, attached to a response when the
    request carried ["timing":true]. The six phases are disjoint
    sub-intervals of the total (self-time semantics), so they sum to at
    most [total_ns]; the remainder is untracked dispatcher overhead. *)

type stats = {
  version : int;  (** writes applied since start *)
  connections : int;  (** currently open client connections *)
  served : int;  (** requests answered by the evaluator *)
  shed : int;  (** requests rejected by queue overflow *)
  rejected : int;  (** parse/budget/argument rejections *)
  disconnects : int;  (** connections dropped mid-response *)
  p50_us : int;  (** read-latency quantiles, µs, over all served reads *)
  p95_us : int;
  p99_us : int;
  cursors : int;
      (** streaming cursors currently open, across all connections; [0]
          when talking to a pre-streaming server *)
  trace_dropped : int;  (** spans lost to trace ring wrap-around *)
  session : string;
      (** the session registry's logfmt line, less the [planner] part *)
  planner : string;
      (** the relational baseline's part of the session registry
          ({!Foc_eval.Eval_obs.owns}: [table.*], [join.*],
          [complement.*], [planner.*], [enum.*]) as one logfmt line —
          complement avoidance, estimated-vs-actual cardinalities,
          re-plans, cursor rows. Empty when talking to a
          pre-adaptive-planning server *)
  source : string;
      (** cold-start artifact provenance: ["snapshot"],
          ["snapshot+wal n=K"] or ["rebuild"]; empty when talking to a
          pre-store server *)
  load_ms : int;
      (** startup artifact load/rebuild wall time, milliseconds *)
}

type plan_info = {
  order : int list;  (** conjunct indices in execution order *)
  steps : (int * int) list;
      (** per executed join step: (predicted, actual) output rows *)
  replanned : bool;  (** order came from the adaptive feedback loop *)
}

type explain = {
  result : bool;
  version : int;
  cached : bool;  (** answered from the compiled-sentence cache *)
  replans : int;
      (** plans of this evaluation that the adaptive loop re-planned: the
          number of [replanned] entries in [plans] *)
  plans : plan_info list;
      (** conjunction plans executed by this evaluation, oldest first —
          empty when the evaluation ran no baseline conjunction planning
          (e.g. fully cached or a non-conjunctive sentence) *)
}

type rows = {
  rrows : (int array * int array) list;
      (** (head tuple, head-term values) pairs, ascending lexicographic on
          the head tuple *)
  more : bool;  (** further answers remain behind [cursor] *)
  cursor : int option;  (** present iff [more] *)
  rversion : int;  (** structure version the cursor is pinned to *)
  producer : string;
      (** which enumeration path produced the answers —
          ["walk"]/["table"]/["unary"]/["ground"]
          ({!Foc_eval.Enum.cursor}) *)
}
(** One chunk of streaming answers, for both [query] and [fetch]. *)

type response =
  | Bool of bool * int  (** [check] result, structure version *)
  | Int of int * int  (** [count] result, structure version *)
  | Done of int  (** write applied; new version *)
  | Pong
  | Rows_r of rows  (** streaming answer chunk *)
  | Closed  (** [close_cursor] acknowledged *)
  | Stats_r of stats
  | Explain_r of explain
  | Metrics_r of string  (** Prometheus text page *)
  | Bye  (** shutdown acknowledged *)
  | Error of string

type req_meta = { rid : int option; timing : bool }
(** Request envelope: optional client-chosen [id] echoed in the response,
    and whether the client asked for a timing breakdown. *)

type resp_meta = { mid : int option; rtiming : timing option }

val request_line : ?id:int -> ?timing:bool -> request -> string
(** One JSON line (no trailing newline). [timing] (default false) adds
    ["timing":true]. *)

val response_line : ?id:int -> ?timing:timing -> response -> string

val parse_request : string -> (req_meta * request, string) result
(** Parse one request line. [Error] describes the malformation; the
    connection is expected to survive it. *)

val parse_response : string -> (resp_meta * response, string) result
