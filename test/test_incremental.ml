(* Database updates (the paper's Section 9, question 2) through the
   session layer: after every insert or delete, the per-element values of
   a unary counting term and the sentences built on it must equal a
   from-scratch evaluation on the session's current structure. *)

let coloured seed g =
  let rng = Random.State.make [| seed |] in
  Foc.Db_gen.colored_digraph rng ~graph:g ~orient:`Both ~p_red:0.3
    ~p_blue:0.4 ~p_green:0.3

let structure n seed =
  let rng = Random.State.make [| n; seed |] in
  coloured seed (Foc.Gen.random_bounded_degree rng n 3)

let config backend jobs =
  { Foc.Engine.default_config with Foc.Engine.backend; jobs }

let fresh_check backend a phi =
  Foc.Engine.check (Foc.Engine.create ~config:(config backend 1) ()) a phi

let parse src = Foc.parse_formula src

(* The unary term #(y). (dist(x,y) <= 1 & B(y)) — the B-coloured elements
   of x's radius-1 ball — at every element x, streamed from the session,
   must equal a from-scratch evaluation on the session's current structure
   after every update; the sentences over the same term must answer as a
   fresh engine does. The body is not guarded by an E atom, so the Direct
   sweep counts it over cached balls, which edge updates must invalidate. *)
let bcount_query =
  Foc.Query.make ~head_vars:[ "x" ]
    ~head_terms:[ Foc.Ast.Count ([ "y" ], parse "dist(x,y) <= 1 & B(y)") ]
    (Foc.Ast.Eq ("x", "x"))

let bcount_sentences =
  List.map parse
    [
      "exists x. #(y). (dist(x,y) <= 1 & B(y)) >= 2";
      "forall x. #(y). (dist(x,y) <= 1 & B(y)) <= 2";
      "#(x). prime(#(y). (dist(x,y) <= 1 & B(y))) >= 3";
    ]

let bcount_values s =
  List.map snd (Foc.Enum.to_list (Foc.Session.enumerate s bcount_query))

let recompute_bcounts a =
  List.map snd (Foc.Relalg.query Foc.predicates a bcount_query)

(* One sentence per value k: "exactly c_k elements have value k", with
   c_k read off the from-scratch values. Checked through the session's
   cached ball contexts, they hold only if every per-element count the
   session sweeps is right. *)
let histogram_sentences values =
  let top = List.fold_left max 0 values in
  List.init (top + 2) (fun k ->
      let c = List.length (List.filter (( = ) k) values) in
      parse
        (Printf.sprintf
           "#(x). (#(y). (dist(x,y) <= 1 & B(y)) == %d) == %d" k c))

let bcounts_agree backend s =
  let b = Foc.Session.structure s in
  let expected = recompute_bcounts b in
  bcount_values s = expected
  && List.for_all (Foc.Session.check s)
       (histogram_sentences (List.concat_map Array.to_list expected))
  && List.for_all
       (fun phi -> Foc.Session.check s phi = fresh_check backend b phi)
       bcount_sentences

let warm_session backend a =
  let s = Foc.Session.create ~config:(config backend 1) a in
  ignore (bcount_values s);
  ignore (Foc.Session.run_batch ~jobs:1 s bcount_sentences);
  s

(* a mixed run of edge and colour updates on a tree *)
let test_incremental_inserts () =
  List.iter
    (fun backend ->
      let rng = Random.State.make [| 47 |] in
      let a = coloured 47 (Foc.Gen.random_tree rng 60) in
      let s = warm_session backend a in
      Alcotest.(check bool) "initial" true (bcounts_agree backend s);
      for step = 1 to 25 do
        let n = Foc.Structure.order (Foc.Session.structure s) in
        let u = Random.State.int rng n and v = Random.State.int rng n in
        (match Random.State.int rng 4 with
        | 0 -> Foc.Session.insert s "E" [| u; v |]
        | 1 when u <> v -> Foc.Session.delete s "E" [| u; v |]
        | 2 -> Foc.Session.insert s "B" [| u |]
        | _ -> Foc.Session.delete s "B" [| u |]);
        Alcotest.(check bool)
          (Printf.sprintf "step %d" step)
          true (bcounts_agree backend s)
      done)
    [ Foc.Engine.Direct; Foc.Engine.Cover; Foc.Engine.Hanf ]

let prop_incremental_random =
  QCheck.Test.make ~name:"incremental = recompute under random updates"
    ~count:15
    QCheck.(pair (int_range 8 40) (int_range 0 10000))
    (fun (n, seed) ->
      let a = structure n seed in
      let rng = Random.State.make [| n; seed |] in
      let s = warm_session Foc.Engine.Direct a in
      let ok = ref true in
      for _ = 1 to 10 do
        let u = Random.State.int rng n and v = Random.State.int rng n in
        if Random.State.bool rng then Foc.Session.insert s "E" [| u; v |]
        else Foc.Session.delete s "E" [| u; v |];
        if not (bcounts_agree Foc.Engine.Direct s) then ok := false
      done;
      !ok)

let () =
  Alcotest.run "incremental"
    [
      ( "incremental (§9.2)",
        [
          Alcotest.test_case "inserts/deletes" `Quick test_incremental_inserts;
          QCheck_alcotest.to_alcotest prop_incremental_random;
        ] );
    ]
