module M = Foc_obs.Metrics

type plan_record = {
  pseq : int;  (* 1-based position among the plans recorded on this [t] *)
  order : int list;
  steps : (float * int) list;  (* per executed join step: est, actual *)
  replanned : bool;
}

type t = {
  tables_built : M.Counter.t;
  rows_built : M.Counter.t;
  joins : M.Counter.t;
  join_build_rows : M.Counter.t;
  join_probe_rows : M.Counter.t;
  semijoins : M.Counter.t;
  antijoins : M.Counter.t;
  complements : M.Counter.t;
  complement_rows : M.Counter.t;
  complements_avoided : M.Counter.t;
  selections_pushed : M.Counter.t;
  divisions : M.Counter.t;
  neg_extensions : M.Counter.t;
  neg_complements : M.Counter.t;
  est_rows : M.Counter.t;
  actual_rows : M.Counter.t;
  replans : M.Counter.t;
  cursors_opened : M.Counter.t;
  enum_rows : M.Counter.t;
  enum_delay : M.Histogram.t;
  enum_ttfr : M.Histogram.t;
  err_max_x100 : M.Gauge.t;
  peak_table_bytes : M.Gauge.t;
  mutable plans : plan_record list;  (* recent executed plans, newest first *)
  mutable pseq : int;  (* plans ever recorded *)
}

let create registry =
  let c = M.counter registry in
  {
    tables_built = c "table.built";
    rows_built = c "table.rows_built";
    joins = c "join.count";
    join_build_rows = c "join.build_rows";
    join_probe_rows = c "join.probe_rows";
    semijoins = c "join.semijoins";
    antijoins = c "join.antijoins";
    complements = c "complement.full_materialisations";
    complement_rows = c "complement.rows";
    complements_avoided = c "planner.complements_avoided";
    selections_pushed = c "planner.selections_pushed";
    divisions = c "planner.divisions";
    neg_extensions = c "planner.neg_extensions";
    neg_complements = c "planner.neg_complements";
    est_rows = c "planner.est_rows";
    actual_rows = c "planner.actual_rows";
    replans = c "planner.replans";
    cursors_opened = c "enum.cursors_opened";
    enum_rows = c "enum.rows";
    enum_delay = M.histogram registry "enum.delay.ns";
    enum_ttfr = M.histogram registry "enum.ttfr.ns";
    err_max_x100 = M.gauge registry "planner.err_max_x100";
    peak_table_bytes = M.gauge registry "table.peak_bytes";
    plans = [];
    pseq = 0;
  }

let owns name =
  List.exists
    (fun prefix -> String.starts_with ~prefix name)
    [ "table."; "join."; "complement."; "planner."; "enum." ]

(* the calling domain's charge slot, installed the way [Scope.with_scope]
   installs the ambient request scope *)
let slot = Domain.DLS.new_key (fun () -> ref None)
let current () = !(Domain.DLS.get slot)

let charging t f =
  let r = Domain.DLS.get slot in
  let saved = !r in
  r := Some t;
  Fun.protect ~finally:(fun () -> r := saved) f

let charge f = match current () with Some s -> f s | None -> ()

(* record side: the installed slot *)

let note_table ~rows ~words =
  charge (fun s ->
      M.Counter.inc s.tables_built;
      M.Counter.add s.rows_built rows;
      M.Gauge.set_max s.peak_table_bytes (8 * words))

let note_join ~build ~probe =
  charge (fun s ->
      M.Counter.inc s.joins;
      M.Counter.add s.join_build_rows build;
      M.Counter.add s.join_probe_rows probe)

let note_semijoin () = charge (fun s -> M.Counter.inc s.semijoins)
let note_antijoin () = charge (fun s -> M.Counter.inc s.antijoins)

let note_complement ~rows =
  charge (fun s ->
      M.Counter.inc s.complements;
      M.Counter.add s.complement_rows rows)

let note_complement_avoided () =
  charge (fun s -> M.Counter.inc s.complements_avoided)

let note_selection_pushed () =
  charge (fun s -> M.Counter.inc s.selections_pushed)

let note_division () = charge (fun s -> M.Counter.inc s.divisions)
let note_neg_extension () = charge (fun s -> M.Counter.inc s.neg_extensions)
let note_neg_complement () = charge (fun s -> M.Counter.inc s.neg_complements)

(* saturating float -> int for the estimate counters *)
let int_of_est e =
  if Float.is_nan e || e <= 0. then 0
  else if e >= 1e18 then 1_000_000_000_000_000_000
  else int_of_float e

let note_op_card ~est ~actual =
  charge (fun s ->
      M.Counter.add s.est_rows (int_of_est est);
      M.Counter.add s.actual_rows actual)

let note_replan () = charge (fun s -> M.Counter.inc s.replans)

let note_plan_error ~ratio =
  charge (fun s -> M.Gauge.set_max s.err_max_x100 (int_of_est (ratio *. 100.)))

let rec take k = function
  | x :: rest when k > 0 -> x :: take (k - 1) rest
  | _ -> []

let push s ~order ~steps ~replanned =
  s.pseq <- s.pseq + 1;
  s.plans <- { pseq = s.pseq; order; steps; replanned } :: take 63 s.plans

(* the structured record behind the server's [explain] op: the executed
   join order with each step's predicted vs actual rows *)
let note_plan_exec ~order ~steps ~replanned =
  charge (fun s -> push s ~order ~steps ~replanned)

(* record side: a cursor's captured slot *)

let note_cursor_opened s = M.Counter.inc s.cursors_opened

let note_enum_row s ~delay_ns =
  M.Counter.inc s.enum_rows;
  M.Histogram.observe s.enum_delay delay_ns

let note_enum_first s ~ns = M.Histogram.observe s.enum_ttfr ns

(* the plan ring *)

let plans s = List.rev s.plans
let plans_recorded s = s.pseq

let append_plans ~into src =
  into.pseq <- into.pseq + src.pseq - List.length src.plans;
  List.iter
    (fun p -> push into ~order:p.order ~steps:p.steps ~replanned:p.replanned)
    (plans src)
