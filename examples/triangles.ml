(* Example 5.4 of the paper: coloured directed graphs and the query

     { (x, y, t_B(x) · t_Δ(y)) : φ_B,Δ,R(x) ∧ G(y) }

   where t_B counts blue out-neighbours, t_Δ counts directed triangles
   through a node, and φ_B,Δ,R compares t_B with t_Δ plus the number of
   nodes whose triangle count equals the number of red nodes (a #-depth-2
   condition exercising the full stratification of Theorem 6.10).

   Run with:  dune exec examples/triangles.exe *)

let t_b v = Printf.sprintf "#(u). (E(%s,u) & B(u))" v
let t_delta v = Printf.sprintf "#(u,v). (E(%s,u) & E(u,v) & E(v,%s))" v v
let t_delta_r = Printf.sprintf "#(w). eq(%s, #(z). R(z))" (t_delta "w")

let phi_bdr v =
  Printf.sprintf "eq(%s, %s + %s)" (t_b v) (t_delta v) t_delta_r

let () =
  let rng = Random.State.make [| 99 |] in
  let graph = Foc.Gen.random_bounded_degree rng 400 4 in
  let db =
    Foc.Db_gen.colored_digraph rng ~graph ~orient:`Random ~p_red:0.02
      ~p_blue:0.5 ~p_green:0.3
  in
  Printf.printf "workload: bounded-degree digraph, %d nodes, %d edge tuples\n"
    (Foc.Structure.order db)
    (Foc.Tuple.Set.cardinal (Foc.Structure.rel db "E"));

  let eng = Foc.Engine.create () in

  (* the ground term t_Δ,R: how many nodes participate in exactly as many
     triangles as there are red nodes? *)
  let tdr = Foc.parse_term t_delta_r in
  Printf.printf "t_Δ,R (nodes with triangle count = #red) = %d\n"
    (Foc.Engine.eval_ground eng db tdr);

  (* triangle counts per node, in one sweep *)
  let triangles = Foc.Engine.eval_unary eng db "x" (Foc.parse_term (t_delta "x")) in
  Printf.printf "total directed triangle incidences = %d\n"
    (Array.fold_left ( + ) 0 triangles);

  (* the full query of Example 5.4 *)
  let q =
    Foc.Query.make ~head_vars:[ "x"; "y" ]
      ~head_terms:
        [ Foc.Ast.Mul (Foc.parse_term (t_b "x"), Foc.parse_term (t_delta "y")) ]
      (Foc.parse_formula (Printf.sprintf "%s & G(y)" (phi_bdr "x")))
  in
  Printf.printf "query is FOC1: %b\n" (Foc.Query.is_foc1 q);
  let rows = Foc.Engine.run_query eng db q in
  Printf.printf "result rows: %d\n" (List.length rows);
  List.iteri
    (fun i (tuple, values) ->
      if i < 5 then
        Printf.printf "  (x=%d, y=%d, t_B(x)*t_Δ(y)=%d)\n" tuple.(0)
          tuple.(1) values.(0))
    rows;

  (* per-tuple interface of Theorem 5.5 *)
  (match rows with
  | (tuple, values) :: _ -> begin
      match Foc.Engine.check_tuple eng db q tuple with
      | Some (true, vs) ->
          Printf.printf "check_tuple confirms the first row: %b\n"
            (vs = values)
      | _ -> print_endline "check_tuple disagreed!"
    end
  | [] -> ());

  let st = Foc.Obs.Metrics.value (Foc.Engine.metrics eng) in
  Printf.printf
    "engine stats: %d materialised relations, %d cl-terms, %d fallbacks\n"
    (st "engine.materialised") (st "engine.clterms_built")
    (st "engine.fallbacks")
