(** Observability for the relational-algebra baseline: the counters fed by
    the columnar {!Table} kernels, the {!Relalg} conjunction planner and
    the {!Enum} cursors, plus a ring of the conjunction plans executed.

    The counters never change an evaluation result — they exist so tests and
    the E13 benchmark can verify planner behaviour (e.g. that negation in
    conjunctive context is compiled into anti-joins and {e never} into a
    full [n^k] complement).

    There is no process-wide registry. A {!t} resolves its counter handles
    once on a caller's {!Foc_obs.Metrics} registry — the one of the engine
    or {!Relalg.ctx} doing the work — and owns the plan ring. The kernels
    charge the [t] installed on the calling domain by {!charging}; with
    none installed, recording is a no-op. *)

type t

(** [create registry] resolves (registering where missing) every baseline
    metric on [registry]: [table.*], [join.*], [complement.*],
    [planner.*] and [enum.*]. *)
val create : Foc_obs.Metrics.t -> t

(** [owns name] — [name] is one of the metrics {!create} registers
    (by prefix), e.g. to print the baseline's part of a wider registry. *)
val owns : string -> bool

(** [charging t f] runs [f] with [t] installed as the calling domain's
    charge slot (restored on exit, exception-safe). *)
val charging : t -> (unit -> 'a) -> 'a

(** The calling domain's installed slot, if any — an {!Enum} cursor
    captures it when it opens. *)
val current : unit -> t option

(** {2 Recording into the installed slot (called by the kernels)} *)

val note_table : rows:int -> words:int -> unit
val note_join : build:int -> probe:int -> unit
val note_semijoin : unit -> unit
val note_antijoin : unit -> unit
val note_complement : rows:int -> unit
val note_complement_avoided : unit -> unit
val note_selection_pushed : unit -> unit
val note_division : unit -> unit
val note_neg_extension : unit -> unit
val note_neg_complement : unit -> unit

(** [note_op_card ~est ~actual] — one planned operator (join or anti-join)
    produced [actual] rows where the planner predicted [est] (saturated
    into the [planner.est_rows]/[planner.actual_rows] counters). *)
val note_op_card : est:float -> actual:int -> unit

(** A conjunction was re-planned with observed selectivities. *)
val note_replan : unit -> unit

(** [note_plan_error ~ratio] — worst per-step estimation error ratio of a
    finished plan (gauge [planner.err_max_x100], peak-tracked). *)
val note_plan_error : ratio:float -> unit

(** [note_plan_exec ~order ~steps ~replanned] — one executed conjunction
    plan: its join order, each executed join step's (predicted, actual)
    output rows in execution order, and whether the order came from the
    adaptive feedback loop re-planning an earlier misestimate. *)
val note_plan_exec :
  order:int list -> steps:(float * int) list -> replanned:bool -> unit

(** {2 Recording into a cursor's captured slot}

    A cursor's [next] runs after the evaluation that opened it has
    returned, so it charges the [t] it captured with {!current} at open
    time: per row, plain counter and histogram stores. *)

val note_cursor_opened : t -> unit

(** [note_enum_row t ~delay_ns] — a cursor yielded one answer after
    [delay_ns] nanoseconds spent inside [next] (counter [enum.rows],
    histogram [enum.delay.ns]). *)
val note_enum_row : t -> delay_ns:int -> unit

(** [note_enum_first t ~ns] — time from cursor creation to its first
    yielded row, including producer preprocessing (histogram
    [enum.ttfr.ns]). *)
val note_enum_first : t -> ns:int -> unit

(** {2 The plan ring} *)

type plan_record = {
  pseq : int;  (** 1-based position among the plans recorded on this [t] *)
  order : int list;
  steps : (float * int) list;  (** per join step: predicted, actual rows *)
  replanned : bool;
}

(** The retained plans (the last 64), oldest first. A caller that wants
    the plans of one evaluation keeps those with [pseq] above the
    {!plans_recorded} value it read before. *)
val plans : t -> plan_record list

(** Number of plans ever recorded on this [t] (the newest one's [pseq]). *)
val plans_recorded : t -> int

(** [append_plans ~into src] records [src]'s retained plans on [into],
    oldest first, and advances [into]'s count by all [src] recorded — how
    a parallel batch folds each worker's plans into its owner after the
    join. *)
val append_plans : into:t -> t -> unit
