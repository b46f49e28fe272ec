(** Counting tuples that realise a fixed connectivity pattern — the
    evaluation primitive for basic cl-terms (Remark 6.3 of the paper).

    A tuple ā realises pattern [G] (at closeness threshold [2r+1]) if
    [dist(a_i, a_j) ≤ 2r+1] exactly for the pattern's edges; this is the
    semantics of the formula δ_{G,2r+1}. For a *connected* pattern the whole
    tuple lives in the ball of radius [(k−1)(2r+1)] around its first
    element, so the count can be computed by per-element neighbourhood
    exploration — the source of the engine's near-linear behaviour on
    sparse structures.

    Balls are computed by a reusable allocation-free BFS arena
    ({!Foc_graph.Bfs.searcher}) and stored {e compactly} — a sorted
    [int array] with binary-search membership, or a bitset when the ball
    covers a large fraction of the universe — behind a capacity-bounded
    cache with second-chance eviction, so huge structures no longer retain
    O(n·ball) memory. Counts are bit-identical for every cache capacity.

    [body] is evaluated with {!Local_eval}, so its guarded quantifiers also
    stay inside balls. *)

open Foc_logic

(** A reusable context holding the BFS arena and the bounded cache of
    (2r+1)-balls computed while sweeping a structure. *)
type ctx

(** [make_ctx ?cache_bytes ~metrics preds a ~r] — [cache_bytes] bounds the
    memory retained by cached balls (approximate heap bytes; default
    64 MiB). Values [<= 0] degenerate to a one-entry cache: the most
    recently computed ball is always retained, everything else is evicted.

    The context charges its work to [metrics] as it happens: counters
    [ball.computed] (BFS ball computations, i.e. cache misses),
    [ball.cache_hits], [ball.cache_evictions] and [bfs.visited] (vertices
    visited by those BFS runs), and peak gauges [ball.cache_peak_entries]
    and [ball.cache_peak_bytes] (the most balls / approximate bytes one
    context held at once). Parallel sweeps charge a private registry per
    domain and {!Foc_obs.Metrics.merge} it into [metrics] at the join. *)
val make_ctx :
  ?cache_bytes:int ->
  metrics:Foc_obs.Metrics.t ->
  Pred.collection ->
  Foc_data.Structure.t ->
  r:int ->
  ctx

val register_metrics : Foc_obs.Metrics.t -> unit
(** Register the metrics a context charges (at zero, where absent), so a
    report lists them before the first sweep. *)

(** Approximate bytes currently retained by the ball cache. *)
val cache_resident_bytes : ctx -> int

(** [rebind_ctx ctx a' ~drop] — re-point the context at an updated
    structure of the same order, keeping every cached ball except those
    whose centre satisfies [drop] (the caller supplies the invalidation
    predicate: nothing for unary updates, centres within the [2r+1]
    threshold of the touched elements for edge updates). Returns the new
    context and the number of balls dropped; the old context must not be
    used afterwards. *)
val rebind_ctx :
  ctx -> Foc_data.Structure.t -> drop:(int -> bool) -> ctx * int

(** Order of the underlying structure. *)
val order : ctx -> int

(** A per-sweep evaluation plan: the pattern's BFS placement order plus the
    pairwise-closeness facts entailed by the body. Computing it once per
    sweep (instead of once per anchor) is significant on large
    structures. *)
type plan

val make_plan :
  ctx ->
  pattern:Foc_graph.Pattern.t ->
  vars:Var.t list ->
  body:Ast.formula ->
  plan

(** [per_anchor ctx ~pattern ~vars ~body] — for each element [a], the number
    of tuples [(a, a_2, …, a_k)] that realise [pattern] exactly (position 0
    = anchor) and satisfy [body] under [vars ↦ tuple]. [pattern] must be
    connected and non-empty; [free body ⊆ vars].

    [jobs > 1] sweeps the anchors on that many domains ({!Foc_par}); each
    domain uses a private ball-cache/arena clone of [ctx] (its counters
    merged into [ctx]'s registry at the join) and the result is
    bit-identical to [jobs = 1]. *)
val per_anchor :
  ?jobs:int ->
  ctx ->
  pattern:Foc_graph.Pattern.t ->
  vars:Var.t list ->
  body:Ast.formula ->
  int array

(** [ground ctx ~pattern ~vars ~body] — the total count over all tuples; for
    [k = 0] this is the 0/1 value of the sentence [body]. [jobs] as in
    {!per_anchor} (the per-anchor partial sums reduce in fixed chunk
    order). *)
val ground :
  ?jobs:int ->
  ctx ->
  pattern:Foc_graph.Pattern.t ->
  vars:Var.t list ->
  body:Ast.formula ->
  int

(** [at ctx ~pattern ~vars ~body ~anchor] — the count for a single anchor
    element (used by the cluster sweep of Section 8.2, which only needs the
    kernel elements of each cluster). Pass [?plan] when calling repeatedly
    with the same pattern/body to share the per-sweep plan. *)
val at :
  ?plan:plan ->
  ctx ->
  pattern:Foc_graph.Pattern.t ->
  vars:Var.t list ->
  body:Ast.formula ->
  anchor:int ->
  int
