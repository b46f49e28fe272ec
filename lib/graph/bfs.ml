let infinity = max_int

(* A single scratch-free BFS with an explicit queue. Distances are computed
   lazily up to [radius]; vertices beyond stay at [infinity]. *)
let distances_from g ~sources ~radius =
  let n = Graph.order g in
  let dist = Array.make n infinity in
  let q = Queue.create () in
  List.iter
    (fun s ->
      if s < 0 || s >= n then invalid_arg "Bfs: source out of range";
      if dist.(s) <> 0 then begin
        dist.(s) <- 0;
        Queue.add s q
      end)
    sources;
  while not (Queue.is_empty q) do
    let u = Queue.take q in
    let du = dist.(u) in
    if du < radius then
      Graph.iter_neighbours g u (fun v ->
          if dist.(v) = infinity then begin
            dist.(v) <- du + 1;
            Queue.add v q
          end)
  done;
  dist

(* Radius-bounded BFS that touches only the ball: visited vertices live in a
   hash table so that the cost is proportional to the ball, not to the whole
   graph. This is what keeps the localized engine almost linear. *)
let ball_tbl g ~centres ~radius =
  let n = Graph.order g in
  let dist = Hashtbl.create 64 in
  let q = Queue.create () in
  List.iter
    (fun s ->
      if s < 0 || s >= n then invalid_arg "Bfs: source out of range";
      if not (Hashtbl.mem dist s) then begin
        Hashtbl.replace dist s 0;
        Queue.add s q
      end)
    centres;
  while not (Queue.is_empty q) do
    let u = Queue.take q in
    let du = Hashtbl.find dist u in
    if du < radius then
      Graph.iter_neighbours g u (fun v ->
          if not (Hashtbl.mem dist v) then begin
            Hashtbl.replace dist v (du + 1);
            Queue.add v q
          end)
  done;
  dist

(* ------------------------------------------------------------------ *)
(* The reusable BFS arena. A persistent distance array is validated by an
   epoch stamp — bumping [epoch] invalidates every entry at once, so a
   query costs O(ball) with zero allocation and no O(n) reset. The explicit
   int queue doubles as the visited list (in BFS order), which is exactly
   what the compact-ball extraction needs. One arena per worker domain:
   the searcher is single-owner mutable state, never shared. *)

type searcher = {
  g : Graph.t;
  dist : int array;  (* valid iff stamp.(v) = epoch *)
  stamp : int array;
  mutable epoch : int;
  queue : int array;  (* visited vertices of the current epoch, BFS order *)
  mutable count : int;  (* number of visited vertices *)
}

let searcher g =
  let n = Graph.order g in
  {
    g;
    dist = Array.make (max n 1) 0;
    stamp = Array.make (max n 1) 0;
    epoch = 0;
    queue = Array.make (max n 1) 0;
    count = 0;
  }

let searcher_graph s = s.g
let visited_count s = s.count
let visited s i = s.queue.(i)

let mem s v = v >= 0 && v < Array.length s.stamp && s.stamp.(v) = s.epoch
let dist_of s v = if mem s v then s.dist.(v) else infinity

let run s ~centres ~radius =
  let n = Graph.order s.g in
  s.epoch <- s.epoch + 1;
  s.count <- 0;
  let enqueue v d =
    s.stamp.(v) <- s.epoch;
    s.dist.(v) <- d;
    s.queue.(s.count) <- v;
    s.count <- s.count + 1
  in
  List.iter
    (fun v ->
      if v < 0 || v >= n then invalid_arg "Bfs: source out of range";
      if s.stamp.(v) <> s.epoch then enqueue v 0)
    centres;
  let head = ref 0 in
  while !head < s.count do
    let u = s.queue.(!head) in
    incr head;
    let du = s.dist.(u) in
    if du < radius then
      for i = Graph.adj_start s.g u to Graph.adj_stop s.g u - 1 do
        let v = Graph.adj_target s.g i in
        if s.stamp.(v) <> s.epoch then enqueue v (du + 1)
      done
  done;
  s.count

let ball_sorted s ~centres ~radius =
  let count = run s ~centres ~radius in
  let out = Array.sub s.queue 0 count in
  Foc_util.Int_sort.sort out;
  out

(* ------------------------------------------------------------------ *)

let dist g u v =
  if u = v then 0
  else begin
    let d = distances_from g ~sources:[ u ] ~radius:max_int in
    d.(v)
  end

let dist_le g u v r =
  r >= 0
  &&
  (u = v
  ||
  let d = ball_tbl g ~centres:[ u ] ~radius:r in
  Hashtbl.mem d v)

let ball g ~centres ~radius =
  let d = ball_tbl g ~centres ~radius in
  let acc = Hashtbl.fold (fun v _ acc -> v :: acc) d [] in
  List.sort Int.compare acc

let eccentricity_within g vs c =
  let sub, old_of_new = Graph.induced g vs in
  let c' = ref (-1) in
  Array.iteri (fun i v -> if v = c then c' := i) old_of_new;
  if !c' < 0 then invalid_arg "Bfs.eccentricity_within: centre not in set";
  let d = distances_from sub ~sources:[ !c' ] ~radius:max_int in
  Array.fold_left (fun acc x -> max acc x) 0 d

let tuple_connected g r vs =
  match vs with
  | [] -> true
  | v0 :: _ ->
      let vs = Array.of_list vs in
      let k = Array.length vs in
      (* union-find over positions would be overkill for k <= 5: BFS over the
         "pattern graph" whose edges join positions at distance <= r. *)
      let seen = Array.make k false in
      let rec visit i =
        if not seen.(i) then begin
          seen.(i) <- true;
          for j = 0 to k - 1 do
            if (not seen.(j)) && dist_le g vs.(i) vs.(j) r then visit j
          done
        end
      in
      ignore v0;
      visit 0;
      Array.for_all (fun b -> b) seen
