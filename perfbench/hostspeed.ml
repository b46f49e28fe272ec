(* The host's speed, measured by a fixed reference kernel.

   The benchmark runs on a shared host whose speed moves by 2-3x over
   minutes to hours, with under 10% of the CPU time reported as stolen.
   In trial runs of local-read this kernel took 122 ms while the daemon
   served 116 requests/s, 150-200 ms at 72 requests/s and about 250 ms at
   51-59 requests/s: the product stayed within 10% while each factor
   moved 2x. So the kernel is timed again and again during set-up and
   during the timed window, always while no request is in flight, and the
   gated times are scaled to a nominal host on which it takes
   [nominal_ms]. The kernel is the benchmark's own code and calls nothing
   of the program under test, so a change to the program moves the
   workload's times and not the reference.

   The kernel fills 100k integers from an LCG, sorts them and scatters
   them into a table. It allocates nothing, so its time does not depend on
   this process's heap, and its 1.3 MB of arrays fit a core's L2 cache:
   with 400k integers (the size of the trial runs above) the median of
   one run's times moved by 15-25% from run to run at one host speed,
   with 100k by 2%. *)

let nominal_ms = 25.

let buf = Array.make 100_000 0
let tbl = Array.make 65_536 0

let kernel () =
  let x = ref 7 in
  for i = 0 to Array.length buf - 1 do
    x := ((!x * 1_103_515_245) + 12_345) land 0x3fff_ffff;
    buf.(i) <- !x
  done;
  Array.sort compare buf;
  Array.iter (fun v -> tbl.(v land 0xffff) <- tbl.(v land 0xffff) lxor v) buf

(* the kernel's times so far, newest first, in ms *)
type t = { mutable samples : float list }

let create () = { samples = [] }

(* Three kernel runs, each kept: one run's time moves by up to 20% with
   the host's noise from one run to the next, and a run's median is taken
   over 30-100 of them. *)
let sample r =
  for _ = 1 to 3 do
    let t = Unix.gettimeofday () in
    kernel ();
    r.samples <- ((Unix.gettimeofday () -. t) *. 1e3) :: r.samples
  done

let count r = List.length r.samples

let samples r = List.rev r.samples

let median_ms r =
  match List.sort compare r.samples with
  | [] -> invalid_arg "Hostspeed.median_ms: no samples"
  | s -> List.nth s (List.length s / 2)

(* How much slower than nominal the host ran while [r] was sampled: a
   time measured then is divided by this, a rate multiplied by it. *)
let slowdown r = median_ms r /. nominal_ms
