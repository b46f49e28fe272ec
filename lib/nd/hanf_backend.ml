open Foc_local
module Structure = Foc_data.Structure

let type_radius (b : Clterm.basic) =
  let k = Foc_graph.Pattern.k b.Clterm.pattern in
  max 1 (k * ((2 * b.Clterm.radius) + 1))

let basic_vector ?(jobs = 1) ?cache_bytes ?classes_for ~metrics preds a
    (b : Clterm.basic) =
  let k = Foc_graph.Pattern.k b.Clterm.pattern in
  (* the class partition either comes from the caller (a session layer
     caching Hanf keyings per radius) or is computed here; Hanf.classes is
     deterministic and identical for every jobs setting, so the two routes
     agree bit for bit *)
  let classes ~jobs =
    match classes_for with
    | Some f -> f ~r:(type_radius b)
    | None -> Foc_bd.Hanf.classes ~jobs a ~r:(type_radius b)
  in
  if k = 0 then begin
    let v =
      if Local_eval.holds preds a Foc_logic.Var.Map.empty b.Clterm.body then 1
      else 0
    in
    Array.make (Structure.order a) v
  end
  else if jobs <= 1 then begin
    let ctx =
      Pattern_count.make_ctx ?cache_bytes ~metrics preds a ~r:b.Clterm.radius
    in
    let plan =
      Pattern_count.make_plan ctx ~pattern:b.Clterm.pattern
        ~vars:b.Clterm.vars ~body:b.Clterm.body
    in
    let out = Array.make (Structure.order a) 0 in
    List.iter
      (fun (_, members) ->
        match members with
        | [] -> ()
        | rep :: _ ->
            let value =
              Pattern_count.at ~plan ctx ~pattern:b.Clterm.pattern
                ~vars:b.Clterm.vars ~body:b.Clterm.body ~anchor:rep
            in
            List.iter (fun v -> out.(v) <- value) members)
      (classes ~jobs:1);
    out
  end
  else begin
    (* both stages in parallel: canonicalise the r-balls, then evaluate one
       representative per class with a per-domain context charging a
       per-domain registry (and a per-domain evaluation plan, hoisted out of
       the per-class calls) *)
    Structure.prepare a;
    let cls = Array.of_list (classes ~jobs) in
    let values, ctxs =
      Foc_par.tabulate_ctx ~jobs ~label:"sweep.types"
        ~make_ctx:(fun () ->
          let registry = Foc_obs.Metrics.create () in
          let ctx =
            Pattern_count.make_ctx ?cache_bytes ~metrics:registry preds a
              ~r:b.Clterm.radius
          in
          let plan =
            Pattern_count.make_plan ctx ~pattern:b.Clterm.pattern
              ~vars:b.Clterm.vars ~body:b.Clterm.body
          in
          (registry, ctx, plan))
        (Array.length cls)
        (fun (_, ctx, plan) i ->
          match snd cls.(i) with
          | [] -> 0
          | rep :: _ ->
              Pattern_count.at ~plan ctx ~pattern:b.Clterm.pattern
                ~vars:b.Clterm.vars ~body:b.Clterm.body ~anchor:rep)
    in
    List.iter
      (fun (registry, _, _) -> Foc_obs.Metrics.merge ~into:metrics registry)
      ctxs;
    let out = Array.make (Structure.order a) 0 in
    Array.iteri
      (fun i (_, members) -> List.iter (fun v -> out.(v) <- values.(i)) members)
      cls;
    out
  end

let rec eval_unary ?jobs ?cache_bytes ?classes_for ~metrics preds a = function
  | Clterm.Const i -> Array.make (Structure.order a) i
  | Clterm.Unary b -> basic_vector ?jobs ?cache_bytes ?classes_for ~metrics preds a b
  | Clterm.Ground b ->
      let per = basic_vector ?jobs ?cache_bytes ?classes_for ~metrics preds a b in
      let total =
        if Foc_graph.Pattern.k b.Clterm.pattern = 0 then
          if Structure.order a > 0 && per.(0) > 0 then 1 else 0
        else Array.fold_left ( + ) 0 per
      in
      Array.make (Structure.order a) total
  | Clterm.Add (s, t) ->
      Array.map2 ( + )
        (eval_unary ?jobs ?cache_bytes ?classes_for ~metrics preds a s)
        (eval_unary ?jobs ?cache_bytes ?classes_for ~metrics preds a t)
  | Clterm.Mul (s, t) ->
      Array.map2 ( * )
        (eval_unary ?jobs ?cache_bytes ?classes_for ~metrics preds a s)
        (eval_unary ?jobs ?cache_bytes ?classes_for ~metrics preds a t)

let rec eval_ground ?jobs ?cache_bytes ?classes_for ~metrics preds a = function
  | Clterm.Const i -> i
  | Clterm.Unary _ -> invalid_arg "Hanf_backend.eval_ground: unary leaf"
  | Clterm.Ground b ->
      if Foc_graph.Pattern.k b.Clterm.pattern = 0 then
        if
          Structure.order a > 0
          && Local_eval.holds preds a Foc_logic.Var.Map.empty b.Clterm.body
        then 1
        else 0
      else
        Array.fold_left ( + ) 0
          (basic_vector ?jobs ?cache_bytes ?classes_for ~metrics preds a b)
  | Clterm.Add (s, t) ->
      eval_ground ?jobs ?cache_bytes ?classes_for ~metrics preds a s
      + eval_ground ?jobs ?cache_bytes ?classes_for ~metrics preds a t
  | Clterm.Mul (s, t) ->
      eval_ground ?jobs ?cache_bytes ?classes_for ~metrics preds a s
      * eval_ground ?jobs ?cache_bytes ?classes_for ~metrics preds a t
