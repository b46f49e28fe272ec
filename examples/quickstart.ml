(* Quickstart: build a coloured random tree, ask FOC1 questions with the
   localized engine, and sanity-check one of them against the naive
   semantics.

   Run with:  dune exec examples/quickstart.exe *)

let () =
  let rng = Random.State.make [| 2024 |] in

  (* a random tree on 2000 nodes, with nodes coloured red/blue at random *)
  let graph = Foc.Gen.random_tree rng 2000 in
  let db =
    Foc.Db_gen.colored_digraph rng ~graph ~orient:`Both ~p_red:0.3 ~p_blue:0.4
      ~p_green:0.2
  in
  Printf.printf "structure: %d elements, size %d\n"
    (Foc.Structure.order db) (Foc.Structure.size db);

  (* 1. a Boolean query: is the number of red nodes prime? (Example 3.2) *)
  let prime_reds = "prime(#(x). R(x))" in
  Printf.printf "%-55s %b\n" prime_reds (Foc.check db prime_reds);

  (* 2. a ground count: edges with a blue endpoint *)
  let blue_edges = "#(x,y). (E(x,y) & (B(x) | B(y)))" in
  Printf.printf "%-55s %d\n" blue_edges (Foc.count db blue_edges);

  (* 3. a per-element count: blue out-neighbours of every node (t_B of
     Example 5.4), evaluated at all 2000 elements in one localized sweep *)
  let t_b = "#(y). (E(x,y) & B(y))" in
  let degrees = Foc.eval_at_all db "x" t_b in
  let total = Array.fold_left ( + ) 0 degrees in
  Printf.printf "%-55s sum=%d max=%d\n" t_b total
    (Array.fold_left max 0 degrees);

  (* 4. a full FOC1 query {(x, t(x)) : R(x)} *)
  let q =
    Foc.Query.make ~head_vars:[ "x" ]
      ~head_terms:[ Foc.parse_term t_b ]
      (Foc.parse_formula "R(x)")
  in
  let eng = Foc.Engine.create () in
  let rows = Foc.Engine.run_query eng db q in
  Printf.printf "query {(x, t_B(x)) : R(x)}: %d rows\n" (List.length rows);

  (* 5. cross-check a sentence against the verbatim Definition 3.1
     semantics on a small substructure *)
  let small, _ =
    Foc.Structure.induced db (List.init 60 (fun i -> i))
  in
  let sentence = Foc.parse_formula "exists x. R(x) & (#(y). E(x,y)) >= 1" in
  let naive = Foc.Naive.sentence Foc.predicates small sentence in
  let engine = Foc.Engine.check (Foc.Engine.create ()) small sentence in
  Printf.printf "engine agrees with naive semantics: %b\n" (naive = engine);

  (* engine telemetry *)
  let st = Foc.Obs.Metrics.value (Foc.Engine.metrics eng) in
  Printf.printf
    "engine stats: %d cl-terms (%d basic), %d materialised relations, %d \
     fallbacks\n"
    (st "engine.clterms_built") (st "engine.basic_terms")
    (st "engine.materialised") (st "engine.fallbacks")
