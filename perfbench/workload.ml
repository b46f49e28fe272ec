(* Seeded inputs of the benchmark's traffic mixes: the structure the daemon
   loads and an endless request sequence. Everything is a function of the
   seed, so one seed always yields the same structure and the same
   sequence, however far a run gets through it.

   One connection sends the sequence in a closed loop. With two, each
   request's latency included a wait behind the other connection's
   request, and how the two loops interleaved moved read p50 by 15-35%
   between runs of one seed; the daemon serves the two no faster than
   one. *)

module P = Foc.Server_protocol

type step =
  | Read of P.request  (** [Check] or [Count] *)
  | Write of P.request  (** [Insert] or [Delete] *)
  | Stream of P.query_req
      (** open a cursor, fetch pages until [page_cap] pages or the end,
          then close it if it is still open *)

type t = {
  name : string;
  n : int;
  structure : Foc.Structure.t;
  distinct : step list;
      (** every read and stream the sequences can draw — the warm-up pass
          and the oracle run over these *)
  sequence : unit -> unit -> step;
      (** [sequence ()] starts the seeded request sequence *)
  settle_steps : int;
      (** steps served after the warm-up pass and before the timed window:
          a few seconds of traffic *)
  mix : string;  (** the request mix, for the report *)
}

(* Rows per streamed page (the daemon's default chunk) and the most pages
   one stream reads before it closes its cursor. *)
let page_rows = 128
let page_cap = 4

(* Popularity: a family's variants are drawn Zipf(1)-skewed, in an order
   the seed shuffles. Families have fixed weights, and the sequence deals
   them from a shuffled deck that holds every family [weight] times,
   so every 100 requests carry exactly the weighted mix: the cost mix of a
   run, and with it the figures, then varies little with the seed or the
   run length. *)
type family = { weight : int; variants : step array }

let shuffle rng a =
  let a = Array.copy a in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

let zipf_pick rng k =
  let h = ref 0. in
  for i = 1 to k do
    h := !h +. (1. /. float_of_int i)
  done;
  let u = Random.State.float rng !h in
  let rec go i acc =
    let acc = acc +. (1. /. float_of_int i) in
    if u < acc || i = k then i - 1 else go (i + 1) acc
  in
  go 1 0.

let dealer rng families =
  let deck =
    Array.of_list (List.concat_map (fun f -> List.init f.weight (fun _ -> f)) families)
  in
  let deck = ref deck and pos = ref (Array.length deck) in
  fun () ->
    if !pos = Array.length !deck then begin
      deck := shuffle rng !deck;
      pos := 0
    end;
    let f = !deck.(!pos) in
    incr pos;
    f.variants.(zipf_pick rng (Array.length f.variants))

(* ---- the coloured bounded-degree digraph (local-read, read-write) ---- *)

let coloured_digraph ~seed n =
  let rng = Random.State.make [| 11; seed; n |] in
  let graph = Foc.Gen.random_bounded_degree rng n 3 in
  Foc.Db_gen.colored_digraph rng ~graph ~orient:`Both ~p_red:0.3 ~p_blue:0.4
    ~p_green:0.3

(* The FOC1 sentence family: degree and colour thresholds, dist(x,y) <= r
   neighbourhood counts with r in {1,2}, and prime/nested-count conditions
   (checks), plus ground counting terms (counts). Check families carry 80
   of the 100 weight units and count families 20. The seed draws the
   structure and the popularity order within each family; the sentences
   are fixed, and a family's variants cost about the same, both warm and
   when a write has made them recompile (so a family never mixes radii),
   because a cost mix that moved with the seed would move the figures
   with it. *)
let foc1_families rng =
  let check s = Read (P.Check s) and count s = Read (P.Count s) in
  let fam weight variants = { weight; variants = shuffle rng (Array.of_list variants) } in
  [
    fam 16 [ check "exists x. #(y). E(x,y) >= 3"; check "forall x. #(y). E(y,x) <= 3" ];
    fam 16
      [ check "exists x. (R(x) & (#(y). (E(x,y) & B(y))) >= 2)";
        check "exists x. (G(x) & (#(y). (E(x,y) & R(y))) >= 2)";
        check "exists x. (B(x) & (#(y). (E(x,y) & G(y))) >= 2)" ];
    fam 12
      [ check "exists x. (#(y). dist(x,y) <= 1) >= 4";
        check "exists x. (#(y). dist(x,y) <= 1) >= 5" ];
    fam 12
      [ check "exists x. (#(y). dist(x,y) <= 2) >= 10";
        check "exists x. (#(y). dist(x,y) <= 2) >= 11" ];
    fam 6 [ check "#(x). ((#(y). (dist(x,y) <= 1 & G(y))) >= 2) >= 100" ];
    fam 6 [ check "#(x). ((#(y). (dist(x,y) <= 2 & R(y))) >= 3) >= 100" ];
    fam 6 [ check "exists x. prime(#(y). (E(x,y) | E(y,x)))" ];
    fam 6 [ check "#(x). prime(#(y). E(x,y)) >= 5000" ];
    fam 8 [ count "#(x). R(x)"; count "#(x). B(x)" ];
    fam 4 [ count "#(x). (G(x) & B(x))" ];
    fam 4 [ count "#(x). prime(#(y). E(x,y))" ];
    fam 4 [ count "#(x). (#(y). (E(x,y) & G(y))) >= 1" ];
  ]

let distinct_of families =
  List.concat_map (fun f -> Array.to_list f.variants) families

let local_read ~seed =
  let n = 20_000 in
  let rng = Random.State.make [| 12; seed |] in
  let families = foc1_families rng in
  {
    name = "local-read";
    n;
    structure = coloured_digraph ~seed n;
    distinct = distinct_of families;
    sequence = (fun () -> dealer (Random.State.make [| 13; seed |]) families);
    settle_steps = 300;
    mix = "80% check / 20% count over a seeded FOC1 family, no writes";
  }

(* Reads go round the family: every sentence once per round, in an order
   the seed shuffles anew each round, and each round ends with one write
   (so about one request in 20 is a write, at fixed positions). Under
   writes a read's cost is mostly the rebuild it triggers, so with skewed
   popularity a run's cost would hinge on which sentences happen to fall
   between two writes; going round makes every write force the same
   rebuilds. Writes come in insert/delete pairs of the same seeded tuple,
   so the structure stays close to the generated one however long the run
   is, and the pairs go round the relations E, R, E, G, E, B in that
   order, whose rebuild costs differ widely; the seed draws only the
   tuples. With E in every other pair about 10% of the reads are full
   rebuilds, so read p95 falls inside their costs (with E in one pair of
   four it fell on the edge between 25 and 80 ms, and moved with it). The
   structure is small (n = 2k) so that a window holds many rounds: at
   n = 5k it held about 8, and read p95, which falls among the rebuilds,
   moved by 10-20% between runs of one seed. *)
let read_write ~seed =
  let n = 2_000 in
  let reads = Array.of_list (distinct_of (foc1_families (Random.State.make [| 21; seed |]))) in
  {
    name = "read-write";
    n;
    structure = coloured_digraph ~seed n;
    distinct = Array.to_list reads;
    sequence =
      (fun () ->
        let rng = Random.State.make [| 22; seed |] in
        let round = ref (shuffle rng reads) and pos = ref 0 in
        let writes = ref 0 and pending = ref ("E", [||]) in
        let kinds = [| "E"; "R"; "E"; "G"; "E"; "B" |] in
        fun () ->
          if !pos < Array.length !round then begin
            incr pos;
            !round.(!pos - 1)
          end
          else begin
            round := shuffle rng reads;
            pos := 0;
            incr writes;
            if !writes mod 2 = 1 then begin
              let kind = kinds.(!writes / 2 mod Array.length kinds)
              and u = Random.State.int rng n in
              pending :=
                (kind, if kind = "E" then [| u; Random.State.int rng n |] else [| u |]);
              Write (P.Insert (fst !pending, snd !pending))
            end
            else Write (P.Delete (fst !pending, snd !pending))
          end);
    (* one round per write of the cycle *)
    settle_steps = 12 * (Array.length reads + 1);
    mix =
      Printf.sprintf
        "rounds of the %d local-read sentences in seeded order, each ending in \
         one insert/delete of an E or R/G/B tuple"
        (Array.length reads);
  }

(* ---- hub-skewed relations (relational-stream) ---- *)

(* The E16 instance: A(x,y) has n/2 rows whose y is the hub 0 with
   probability 0.8, B(y,z) has n/4 rows with the same skew on y, C(x,z) is
   a random function on A's x-range and S(x) picks n/200 sources. *)
let hub_skewed ~seed n =
  let rng = Random.State.make [| 31; seed; n |] in
  let m = n / 2 and k = n / 4 and s = max 8 (n / 200) in
  let tail = min 999 (n - 1) in
  let skew_y j =
    if j < 50 || Random.State.float rng 1.0 < 0.8 then 0
    else 1 + Random.State.int rng tail
  in
  let a = List.init m (fun i -> [| i + 1; skew_y (50 + i) |]) in
  let b = List.init k (fun j -> [| skew_y j; j |]) in
  let c =
    List.init m (fun i -> [| i + 1; (if i < 50 then i else Random.State.int rng n) |])
  in
  let src =
    List.init s (fun i -> [| (if i < 50 then i + 1 else 1 + Random.State.int rng m) |])
  in
  Foc.Structure.create
    (Foc.Signature.of_list [ ("S", 1); ("A", 2); ("B", 2); ("C", 2) ])
    ~order:n
    [ ("S", src); ("A", a); ("B", b); ("C", c) ]

(* Every body is a family of its own, with a fixed weight: the bodies are
   fixed, because on this instance a body's cost is set by its shape, and
   so is the mix, because no two bodies cost the same. With two counts
   of different cost in one family, the seed's popularity order moved
   read p50 by 15% between seeds. *)
let relational_families =
  let stream head terms body =
    Stream
      { P.q_head = head; q_terms = terms; q_body = body; q_limit = None;
        q_chunk = Some page_rows; q_after = None }
  in
  let count s = Read (P.Count s) in
  let fam weight variants = { weight; variants = Array.of_list variants } in
  [
    (* conjunctive bodies: the walk producer *)
    fam 10 [ stream [ "x"; "y" ] [] "S(x) & A(x,y)" ];
    fam 10 [ stream [ "x"; "y"; "z" ] [] "S(x) & A(x,y) & C(x,z)" ];
    fam 10 [ stream [ "x"; "y"; "z" ] [] "C(x,y) & C(y,z)" ];
    (* negated bodies: the table producer *)
    fam 10 [ stream [ "x"; "y" ] [] "A(x,y) & !C(x,y)" ];
    fam 10 [ stream [ "x"; "z" ] [] "C(x,z) & !S(x)" ];
    (* head counting terms *)
    fam 10 [ stream [ "x" ] [ "#(y). A(x,y)" ] "S(x)" ];
    fam 10 [ stream [ "y" ] [ "#(z). B(y,z)" ] "exists x. A(x,y)" ];
    (* counts that take the relational fallback: S-anchored chains of
       width 5 and 6, and an anti-join. The width-6 chain costs least and
       the anti-join most; the width-5 chain carries most of the weight so
       that the reads' median falls inside its costs, not at the edge
       between two bodies'. *)
    fam 14 [ count "#(x,y,z,w,u). (S(x) & A(x,y) & C(x,z) & B(w,z) & C(u,w))" ];
    fam 8 [ count "#(x,y,z,w,u,v). (S(x) & C(x,y) & C(y,z) & C(z,w) & C(w,u) & C(u,v))" ];
    fam 8 [ count "#(x,y). (S(x) & A(x,y) & !C(x,y))" ];
  ]

let relational_stream ~seed =
  let n = 20_000 in
  let families = relational_families in
  {
    name = "relational-stream";
    n;
    structure = hub_skewed ~seed n;
    distinct = distinct_of families;
    sequence = (fun () -> dealer (Random.State.make [| 33; seed |]) families);
    settle_steps = 200;
    mix =
      Printf.sprintf
        "70%% query streams (%d-row pages, at most %d pages, then close), \
         30%% relational-fallback counts, no writes"
        page_rows page_cap;
  }

let names = [ "local-read"; "read-write"; "relational-stream" ]

let make name ~seed =
  match name with
  | "local-read" -> local_read ~seed
  | "read-write" -> read_write ~seed
  | "relational-stream" -> relational_stream ~seed
  | _ -> invalid_arg ("unknown workload " ^ name)
