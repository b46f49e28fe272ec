(* The answer oracle: every answer the daemon gave is re-derived in this
   process, independently of the daemon's session and caches, on the
   structure version the answer names. That structure is the generated one
   with the acknowledged writes up to the version replayed onto it.
   Checks and counts are re-evaluated by a fresh sequential engine per
   version; streamed rows are compared, in order, with the prefix of
   [Relalg.query]'s answer list. *)

module P = Foc.Server_protocol

type observed =
  | Bool of bool
  | Int of int
  | Rows of { rows : int; hash : int; ended : bool }
      (** rows read, their order-sensitive hash, and whether the cursor
          reported the end of the answers *)

type answer = { step : int; version : int; got : observed }

let hash_row h ((tup : int array), (vals : int array)) =
  let mix h v = ((h * 1_000_003) + v + 1) land max_int in
  Array.fold_left mix (mix (Array.fold_left mix h tup) (-1)) vals

let rec hash_prefix h k = function
  | row :: rest when k > 0 -> hash_prefix (hash_row h row) (k - 1) rest
  | _ -> h

let query_of (q : P.query_req) =
  Foc.Query.make ~head_vars:q.q_head
    ~head_terms:(List.map Foc.parse_term q.q_terms)
    (Foc.parse_formula q.q_body)

(* the reference answer of one step on one structure *)
type reference = R_bool of bool | R_int of int | R_rows of (int array * int array) list

let reference eng a : Workload.step -> reference = function
  | Read (P.Check s) -> R_bool (Foc.Engine.check eng a (Foc.parse_formula s))
  | Read (P.Count s) -> R_int (Foc.Engine.eval_ground eng a (Foc.parse_term s))
  | Stream q -> R_rows (Foc.Relalg.query Foc.predicates a (query_of q))
  | Read _ | Write _ -> invalid_arg "Oracle.reference: no answer to check"

(* A stream agrees when its rows are the reference's first rows, in order,
   and it claimed the end of the answers only if there was no more. *)
let agrees want got =
  match (want, got) with
  | R_bool w, Bool g -> w = g
  | R_int w, Int g -> w = g
  | R_rows all, Rows { rows; hash; ended } ->
      let total = List.length all in
      rows <= total && hash = hash_prefix 0 rows all && ((not ended) || rows = total)
  | _ -> false

(* [check w ~writes ~versions answers]: [writes] is the acknowledged write
   log as (version, request); [versions] the versions whose answers are
   re-derived. Returns the number of answers checked and a description of
   each mismatch. *)
let check (w : Workload.t) ~writes ~versions answers =
  let steps = Array.of_list w.distinct in
  let config = { Foc.Engine.default_config with jobs = 1 } in
  let apply a = function
    | P.Insert (rel, tup) -> Foc.Structure.add_tuples a rel [ tup ]
    | P.Delete (rel, tup) -> Foc.Structure.remove_tuples a rel [ tup ]
    | _ -> a
  in
  let checked = ref 0 and bad = ref [] in
  let rec go a log = function
    | [] -> ()
    | v :: rest ->
        let rec advance a = function
          | (wv, req) :: more when wv <= v -> advance (apply a req) more
          | log -> (a, log)
        in
        let a, log = advance a log in
        let eng = Foc.Engine.create ~config () in
        let refs = Hashtbl.create 16 in
        List.iter
          (fun ans ->
            if ans.version = v then begin
              incr checked;
              let want =
                match Hashtbl.find_opt refs ans.step with
                | Some r -> r
                | None ->
                    let r = reference eng a steps.(ans.step) in
                    Hashtbl.add refs ans.step r;
                    r
              in
              if not (agrees want ans.got) then
                bad := Printf.sprintf "step %d at version %d" ans.step v :: !bad
            end)
          answers;
        go a log rest
  in
  go w.structure (List.sort compare writes) (List.sort_uniq compare versions);
  (!checked, List.rev !bad)
