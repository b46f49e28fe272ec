(* The splitter-game back-end (Section 8.2, steps 5a-e): agreement with the
   direct sweep across classes, recursion-depth behaviour, and the removal
   counter. *)

open Foc_logic
open Foc_nd

let preds = Pred.standard

(* a registry for ball counters no test reads *)
let scratch () = Foc_obs.Metrics.create ()

let parse s = Parser.formula preds s
let parse_t s = Parser.term preds s

let coloured seed g =
  let rng = Random.State.make [| seed |] in
  Foc_data.Db_gen.colored_digraph rng ~graph:g ~orient:`Both ~p_red:0.3
    ~p_blue:0.4 ~p_green:0.3

let splitter_cfg ~max_rounds ~small =
  { Engine.default_config with backend = Engine.Splitter { max_rounds; small } }

let decompose vars src =
  let body = parse src in
  let r =
    match Foc_local.Locality.formula_radius body with
    | Foc_local.Locality.Local r -> r
    | Foc_local.Locality.Nonlocal w -> Alcotest.fail w
  in
  match Foc_local.Decompose.unary_count ~r ~vars body with
  | Some cl -> cl
  | None -> Alcotest.fail "decomposition failed"

let check_agree name a cl ~max_rounds ~small =
  let removed = ref 0 in
  let got =
    Splitter_backend.eval_unary
      ~stats_removals:(fun k -> removed := !removed + k)
      preds a ~max_rounds ~small cl
  in
  let ctx =
    let rec radius = function
      | Foc_local.Clterm.Const _ -> 0
      | Foc_local.Clterm.Ground b | Foc_local.Clterm.Unary b ->
          b.Foc_local.Clterm.radius
      | Foc_local.Clterm.Add (s, t) | Foc_local.Clterm.Mul (s, t) ->
          max (radius s) (radius t)
    in
    Foc_local.Pattern_count.make_ctx ~metrics:(scratch ())
      preds a ~r:(radius cl)
  in
  let expected = Foc_local.Clterm.eval_unary ctx cl in
  Alcotest.(check (array int)) name expected got;
  !removed

let test_agree_star () =
  (* a star forces the hub removal immediately: the textbook case *)
  let a = coloured 1 (Foc_graph.Gen.star 40) in
  let cl = decompose [ "x"; "y" ] "E(x,y) & B(y)" in
  let removed = check_agree "star" a cl ~max_rounds:3 ~small:8 in
  Alcotest.(check bool) "performed removals" true (removed > 0)

let test_agree_tree () =
  let rng = Random.State.make [| 2 |] in
  let a = coloured 2 (Foc_graph.Gen.random_tree rng 150) in
  let cl = decompose [ "x"; "y" ] "E(x,y) & B(y)" in
  ignore (check_agree "tree" a cl ~max_rounds:3 ~small:10)

let test_agree_grid_scattered () =
  let a = coloured 3 (Foc_graph.Gen.grid 7 8) in
  (* a scattered kernel: exercises ground legs inside the polynomial *)
  let cl = decompose [ "x"; "y" ] "B(y) & R(x)" in
  ignore (check_agree "grid scattered" a cl ~max_rounds:2 ~small:10)

let test_rounds_zero_is_direct () =
  let rng = Random.State.make [| 4 |] in
  let a = coloured 4 (Foc_graph.Gen.random_tree rng 60) in
  let cl = decompose [ "x"; "y" ] "E(x,y) & B(y)" in
  let removed = check_agree "rounds=0" a cl ~max_rounds:0 ~small:4 in
  Alcotest.(check int) "no removals at depth 0" 0 removed

let test_engine_integration () =
  let rng = Random.State.make [| 5 |] in
  let a = coloured 5 (Foc_graph.Gen.random_bounded_degree rng 80 3) in
  let eng = Engine.create ~config:(splitter_cfg ~max_rounds:3 ~small:12) () in
  let direct = Engine.create () in
  let terms =
    [
      "#(x). (R(x) & (exists y. E(x,y) & B(y)))";
      "#(x,y). (E(x,y) | (R(x) & B(y)))";
    ]
  in
  List.iter
    (fun src ->
      let t = parse_t src in
      Alcotest.(check int) src
        (Engine.eval_ground direct a t)
        (Engine.eval_ground eng a t))
    terms;
  Alcotest.(check bool) "removal stats recorded" true
    (Foc_obs.Metrics.value (Engine.metrics eng) "engine.removals" >= 0)

let prop_splitter_agrees =
  QCheck.Test.make ~name:"splitter backend = direct on random graphs"
    ~count:20
    QCheck.(pair (int_range 10 70) (int_range 0 10000))
    (fun (n, seed) ->
      let rng = Random.State.make [| n; seed |] in
      let a = coloured seed (Foc_graph.Gen.random_bounded_degree rng n 3) in
      let cl = decompose [ "x"; "y" ] "E(x,y) & B(y)" in
      let got =
        Splitter_backend.eval_unary
          ~stats_removals:(fun _ -> ())
          preds a ~max_rounds:2 ~small:6 cl
      in
      let ctx =
        Foc_local.Pattern_count.make_ctx ~metrics:(scratch ()) preds a ~r:1
      in
      got = Foc_local.Clterm.eval_unary ctx cl)

let () =
  Alcotest.run "foc_nd splitter backend"
    [
      ( "agreement",
        [
          Alcotest.test_case "star (hub removal)" `Quick test_agree_star;
          Alcotest.test_case "tree" `Quick test_agree_tree;
          Alcotest.test_case "grid scattered" `Quick test_agree_grid_scattered;
          Alcotest.test_case "rounds=0 is direct" `Quick test_rounds_zero_is_direct;
          Alcotest.test_case "engine integration" `Quick test_engine_integration;
          QCheck_alcotest.to_alcotest prop_splitter_agrees;
        ] );
    ]
