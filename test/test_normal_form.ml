(* Tests for the syntactic cl-normal form (Theorem 6.8). Database updates
   (Section 9, question 2) are tested on [Session] in test_serve.ml. *)

open Foc_logic

let preds = Pred.standard

let parse s = Parser.formula preds s

let coloured seed g =
  let rng = Random.State.make [| seed |] in
  Foc_data.Db_gen.colored_digraph rng ~graph:g ~orient:`Both ~p_red:0.3
    ~p_blue:0.4 ~p_green:0.3

(* ---------------- Theorem 6.8 normal form ---------------- *)

let nf_sentences =
  [
    "exists x y. E(x,y) & B(y)";
    "exists x. B(x) & !(exists y. E(x,y))";
    "!(exists x y. R(x) & B(y))";
    "(exists x. R(x)) & !(exists x y. E(x,y) & E(y,x))";
    "forall x. B(x) | !B(x)";
  ]

let test_normal_form_equivalence () =
  let rng = Random.State.make [| 41 |] in
  for seed = 1 to 6 do
    let a =
      coloured seed (Foc_graph.Gen.random_bounded_degree rng 12 3)
    in
    List.iter
      (fun src ->
        let phi = parse src in
        match Foc_local.Normal_form.sentence phi with
        | None -> Alcotest.fail ("no normal form for " ^ src)
        | Some nf ->
            Alcotest.(check bool)
              (Printf.sprintf "%s (seed %d)" src seed)
              (Foc_eval.Naive.sentence preds a phi)
              (Foc_eval.Naive.sentence preds a nf))
      nf_sentences
  done

let test_normal_form_shape () =
  let phi = parse "exists x y. E(x,y) & B(y)" in
  match Foc_local.Normal_form.sentence phi with
  | None -> Alcotest.fail "no normal form"
  | Some nf ->
      (* the result is a FOC1({P≥1}) statement: Boolean combination of
         "g >= 1" with no plain quantifier prefix left *)
      Alcotest.(check bool) "is FOC1" true (Fragment.is_foc1 nf);
      let has_ge1 =
        Ast.exists_subformula
          (function Ast.Pred ("ge1", _) -> true | _ -> false)
          nf
      in
      Alcotest.(check bool) "has a g >= 1 statement" true has_ge1

let test_to_ast_agrees () =
  let rng = Random.State.make [| 43 |] in
  let a = coloured 43 (Foc_graph.Gen.random_tree rng 25) in
  let body = parse "E(u,v) | (R(u) & B(v))" in
  let r =
    match Foc_local.Locality.formula_radius body with
    | Foc_local.Locality.Local r -> r
    | Foc_local.Locality.Nonlocal w -> Alcotest.fail w
  in
  match Foc_local.Decompose.ground_count ~r ~vars:[ "u"; "v" ] body with
  | None -> Alcotest.fail "decomposition failed"
  | Some cl ->
      let ctx =
        Foc_local.Pattern_count.make_ctx ~metrics:(Foc_obs.Metrics.create ())
          preds a ~r
      in
      let via_clterm = Foc_local.Clterm.eval_ground ctx cl in
      let via_ast =
        Foc_eval.Relalg.term_value preds a [] (Foc_local.Normal_form.to_ast cl)
      in
      Alcotest.(check int) "to_ast evaluates equally" via_clterm via_ast

let () =
  Alcotest.run "normal form"
    [
      ( "theorem 6.8",
        [
          Alcotest.test_case "equivalence" `Quick test_normal_form_equivalence;
          Alcotest.test_case "shape" `Quick test_normal_form_shape;
          Alcotest.test_case "to_ast" `Quick test_to_ast_agrees;
        ] );
    ]
