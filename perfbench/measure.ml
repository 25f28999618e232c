(* Timing, statistics and counter helpers shared by the workloads. Nothing
   here touches the library's internals: the benchmark only reads public
   counters, span events and [Gc] statistics, and puts its own timers
   around public calls. *)

module Metrics = Snf_obs.Metrics
module Span = Snf_obs.Span

let now () = Unix.gettimeofday ()

let time f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

let median xs =
  match List.sort compare xs with
  | [] -> 0.
  | sorted ->
    let a = Array.of_list sorted in
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Nearest-rank percentile over a sample; [p] in [0, 1]. *)
let percentile p xs =
  let a = Array.copy xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.
  else a.(max 0 (min (n - 1) (int_of_float (Float.ceil (p *. float_of_int n)) - 1)))

(* The value that a quarter of the rounds beat, for a metric where lower
   is better: [best_quarter ( < ) xs] is the 25th percentile of [xs],
   [best_quarter ( > ) xs] the 75th. The host drifts between fast and
   slow phases lasting seconds (see README.md, Noise); a round in a slow
   phase does not move this figure as long as a quarter of the run's
   rounds fell in fast ones, while a change to the program moves every
   round. *)
let best_quarter better xs =
  let a = Array.of_list xs in
  Array.sort (fun x y -> if better x y then -1 else if better y x then 1 else 0) a;
  let n = Array.length a in
  if n = 0 then 0. else a.(max 0 ((n + 3) / 4 - 1))

(* Elementwise minimum of equally long sample arrays: each op's best
   latency over rounds that run the same ops in the same order. Like
   [best_quarter], it takes an op's figure from whichever round caught
   the host in a fast phase, op by op. *)
let best_per_op = function
  | [] -> [||]
  | first :: rest -> List.fold_left (Array.map2 Float.min) first rest

let ratio num den = if den = 0 then 0. else float_of_int num /. float_of_int den

(* A fixed loop, timed before and after every run: when two runs of
   identical code disagree, this says whether the host slowed down. Each
   step is dependent integer arithmetic plus a read from a 32 MB table
   outside the OCaml heap, so it feels memory contention from neighbours
   as the workloads do, and leaves the heap figures alone. *)
let ref_loop_ms () =
  let words = 1 lsl 22 in
  let table = Bigarray.(Array1.create int c_layout words) in
  Bigarray.Array1.fill table 1;
  let t0 = now () in
  let x = ref 1 in
  for i = 1 to 300_000 do
    x :=
      (((!x * 1103515245) + i) land 0xffffff)
      + Bigarray.Array1.unsafe_get table (!x land (words - 1))
  done;
  ignore (Sys.opaque_identity !x);
  (now () -. t0) *. 1e3

(* Counter deltas over a region, by name. *)
type counters = (string * int) list

let counters () = (Metrics.snapshot ()).Metrics.counters

let delta (before : counters) (after : counters) name =
  let get l = Option.value (List.assoc_opt name l) ~default:0 in
  get after - get before

(* Allocation sampled around a region ([Gc.quick_stat] sums all domains). *)
type gc = { minor_words : float; major_collections : int }

let gc () =
  let s = Gc.quick_stat () in
  { minor_words = s.Gc.minor_words; major_collections = s.Gc.major_collections }

let gc_diff a b =
  { minor_words = b.minor_words -. a.minor_words;
    major_collections = b.major_collections - a.major_collections }

(* Total duration (ms) of every recorded span with the given name, over
   all domains. The executor's stage spans ([query.mint_tokens],
   [query.server_filter], [query.reconstruct], [query.client_decrypt])
   are siblings under [query] / [query.batch], never nested in one
   another, so their totals can be summed without double counting. *)
let span_total_ms events name =
  List.fold_left
    (fun acc (e : Span.event) -> if e.Span.name = name then acc +. e.Span.dur_us else acc)
    0. events
  /. 1e3
