(* The repository benchmark: three closed-loop SNF workloads through the
   public API, every answer checked against the plaintext oracle.

     snfbench.exe --workload acs-point|net-batch|acs-ingest --seed N
                  --seconds S --trace 0|1
     snfbench.exe --self-test

   The last line of standard output is one JSON object
   {"correct", "attempted", "failed", "metrics"}: with --trace 0 the
   end-to-end metrics, with --trace 1 the per-layer ones. Lines before it
   are a human-readable report. Exit codes: 0 ok, 1 a wrong answer or a
   failed op (the JSON is still printed), 2 bad usage. See README.md. *)

module W = Workloads
module M = Measure
module Leakage = Snf_obs.Leakage

(* The op count of each workload grows with --seconds; the rates are what
   the workloads sustain on a shared 2-core x86 host, so one run's timed
   window lasts about --seconds there. The count never depends on the
   clock: the same arguments always run the same op sequence. A round
   (a pass, a group of batches, a compaction period) lasts one to six
   seconds; at --seconds 20 a window holds 14, 8 and 5 of them. *)
let scaled seconds per_second =
  max 1 (int_of_float (Float.round (float_of_int seconds *. per_second)))

let full_acs_point seconds =
  { W.ap_rows = 500; ap_per_way = 100; ap_ranges = 100; ap_passes = scaled seconds 0.7 }

let full_net_batch seconds =
  let rounds = scaled seconds 0.4 in
  { W.nb_rows = 4000; nb_per_way = 48; nb_k = 8; nb_conns = 2; nb_rounds = rounds;
    nb_batches = 13 * rounds }

let full_acs_ingest seconds =
  { W.ai_base = 300; ai_inserts = 5; ai_queries = 20; ai_compact_every = 10;
    ai_per_way = 100; ai_rounds = scaled seconds (1. /. 4.) }

let toy_acs_point =
  { W.ap_rows = 40; ap_per_way = 6; ap_ranges = 6; ap_passes = 2 }

let toy_net_batch =
  { W.nb_rows = 200; nb_per_way = 6; nb_k = 4; nb_conns = 2; nb_rounds = 3; nb_batches = 3 }

let toy_acs_ingest =
  { W.ai_base = 40; ai_inserts = 2; ai_queries = 3; ai_compact_every = 2; ai_per_way = 3;
    ai_rounds = 2 }

let workloads = [ "acs-point"; "net-batch"; "acs-ingest" ]

let socket_path () = Printf.sprintf "snfbench-%d.sock" (Unix.getpid ())

(* setup_s is the median of this many identical setups (two suffice for
   the self-test, which only exercises the release path). *)
let setups = 3

let run_workload ~toy name ~seed ~seconds ~traced =
  let setups = if toy then 2 else setups in
  match name with
  | "acs-point" ->
    W.acs_point (if toy then toy_acs_point else full_acs_point seconds) ~setups ~seed ~traced
  | "net-batch" ->
    let sock = socket_path () in
    if Sys.file_exists sock then Sys.remove sock;
    W.net_batch
      (if toy then toy_net_batch else full_net_batch seconds)
      ~setups ~seed ~traced ~sock
  | "acs-ingest" ->
    W.acs_ingest (if toy then toy_acs_ingest else full_acs_ingest seconds) ~setups ~seed ~traced
  | _ -> invalid_arg name

(* ---- metrics -------------------------------------------------------------- *)

type metric = { name : string; unit_ : string; value : float }

let m name unit_ value = { name; unit_; value }

let per_query (w : W.window) x = x /. float_of_int (max 1 w.W.queries)

let round_qps (secs, lat) = float_of_int (Array.length lat) /. secs

(* Where every round runs the same ops in the same order (acs-point,
   acs-ingest), latency and throughput are those of a round whose every op
   took its best time over the rounds: the latency percentile over the
   ops' best latencies, and the round's queries over the sum of its
   queries' and writes' best times. Otherwise (net-batch) each is taken
   per round and reported as the value the best quarter of rounds reach. *)
let latency (o : W.outcome) p =
  let rounds = List.map snd o.W.untraced.W.rounds in
  if o.W.repeated then M.percentile p (M.best_per_op rounds)
  else M.best_quarter ( < ) (List.map (M.percentile p) rounds)

let throughput (o : W.outcome) =
  let w = o.W.untraced in
  if o.W.repeated then begin
    let rounds = List.map snd w.W.rounds in
    let n = List.length rounds in
    let per_round = Array.length w.W.write_ms / n in
    let writes = List.init n (fun r -> Array.sub w.W.write_ms (r * per_round) per_round) in
    let sum a = Array.fold_left ( +. ) 0. a in
    let busy_ms = sum (M.best_per_op rounds) +. sum (M.best_per_op writes) in
    float_of_int (Array.length (List.hd rounds)) /. (busy_ms /. 1e3)
  end
  else M.best_quarter ( > ) (List.map round_qps w.W.rounds)

let end_to_end (o : W.outcome) =
  let w = o.W.untraced in
  let pq = per_query w in
  [ m "setup_s" "s" (M.median o.W.setups_s);
    m "query_p50_ms" "ms" (latency o 0.5);
    m "query_p90_ms" "ms" (latency o 0.9);
    m "throughput_qps" "1/s" (throughput o);
    m "wire_bytes_per_query" "B" (pq (float_of_int w.W.wire_bytes));
    m "round_trips_per_query" "count" (pq (float_of_int w.W.round_trips));
    m "oblivious_joins_per_query" "count" (pq (float_of_int w.W.joins));
    m "storage_expansion" "ratio" o.W.storage_expansion;
    m "peak_heap_mb" "MB"
      (float_of_int (o.W.peak_live_words * (Sys.word_size / 8)) /. (1024. *. 1024.));
    m "leak_leaf_pairs" "count" (float_of_int o.W.leak.Leakage.p_cooccur_pairs) ]

(* Stage self times from the executor's spans. The four stage spans are
   siblings, so [executor.other_ms] — the traced op time they leave
   unexplained (describe, planning, publishing) — makes them add up to
   [executor.query_ms] exactly. *)
let stages =
  [ ("executor.mint_ms", "query.mint_tokens");
    ("executor.server_filter_ms", "query.server_filter");
    ("executor.reconstruct_ms", "query.reconstruct");
    ("executor.client_decrypt_ms", "query.client_decrypt") ]

let per_layer (o : W.outcome) ~host_ms =
  let tw = Option.get o.W.traced in
  let c0, c1 = tw.W.counters in
  let d name = float_of_int (M.delta c0 c1 name) in
  let pq = per_query tw in
  let rate hit miss = M.ratio (M.delta c0 c1 hit) (M.delta c0 c1 hit + M.delta c0 c1 miss) in
  let mean = function [] -> 0. | l -> List.fold_left ( +. ) 0. l /. float_of_int (List.length l) in
  let stage_ms = List.map (fun (n, span) -> (n, pq (M.span_total_ms tw.W.spans span))) stages in
  let query_ms = pq (tw.W.busy_s *. 1e3) in
  let other = query_ms -. List.fold_left (fun a (_, v) -> a +. v) 0. stage_ms in
  let wire phase =
    m (Printf.sprintf "wire.%s.bytes_per_query" phase) "B"
      (pq (d (Printf.sprintf "exec.wire.%s.bytes_up" phase)
           +. d (Printf.sprintf "exec.wire.%s.bytes_down" phase)))
  in
  let layer name unit_ = m name unit_ (List.assoc name o.W.layers) in
  let stage name = m name "ms" (List.assoc name stage_ms) in
  [ layer "normalizer.plan_ms" "ms";
    layer "enc_relation.encrypt_ms" "ms";
    layer "enc_relation.cells_encrypted" "count";
    layer "system.bind_ms" "ms";
    layer "statistics.refresh_ms" "ms";
    layer "setup.warmup_ms" "ms";
    layer "planner.decide_us" "us";
    m "planner.cache_hit_rate" "ratio" (rate "plan.cache.hit" "plan.cache.miss");
    m "executor.query_ms" "ms" query_ms;
    stage "executor.mint_ms";
    m "executor.tokens_per_query" "count" (pq (d "exec.query.tokens_minted"));
    m "enc_relation.mapping_cache_hit_rate" "ratio"
      (rate "exec.mapping_cache.hits" "exec.mapping_cache.misses");
    stage "executor.server_filter_ms";
    m "server.scanned_cells_per_query" "count" (pq (d "exec.query.scanned_cells"));
    m "server.index_probes_per_query" "count" (pq (d "exec.query.index_probes"));
    stage "executor.reconstruct_ms";
    m "bitonic.comparisons_per_query" "count" (pq (d "exec.query.comparisons"));
    m "oblivious_join.rows_processed_per_query" "count" (pq (d "exec.query.rows_processed"));
    m "oblivious_join.tid_cache_hit_rate" "ratio"
      (rate "exec.join.tid_cache.hits" "exec.join.tid_cache.misses");
    m "executor.batch_join_reuses_per_batch" "count"
      (M.ratio (M.delta c0 c1 "exec.batch.join_reuses") (M.delta c0 c1 "exec.batch.count"));
    stage "executor.client_decrypt_ms";
    m "executor.result_rows_per_query" "count" (pq (d "exec.query.result_rows"));
    m "executor.other_ms" "ms" other;
    m "server_api.rtt_ms_per_query" "ms" (pq tw.W.rtt_ms);
    wire "admin";
    wire "probe";
    wire "filter";
    wire "fetch";
    m "net.server_requests_per_query" "count" (pq (float_of_int tw.W.server_requests));
    m "net.busy_rejections" "count" (float_of_int tw.W.busy_rejections);
    m "dynamic.insert_ms" "ms" (mean tw.W.insert_ms);
    m "dynamic.compact_ms" "ms" (mean tw.W.compact_ms);
    m "dynamic.cells_encrypted_per_insert" "count"
      (mean (List.map float_of_int tw.W.cells_per_insert));
    m "gc.minor_words_per_query" "words" (pq tw.W.gc.M.minor_words);
    m "gc.major_collections_per_query" "count" (pq (float_of_int tw.W.gc.M.major_collections));
    m "leakage.eq_distinct" "count" (float_of_int o.W.leak.Leakage.p_eq_distinct);
    m "leakage.volume_distinct" "count" (float_of_int o.W.leak.Leakage.p_volume_distinct);
    m "host.ref_loop_ms" "ms" host_ms;
    m "trace.overhead_frac" "ratio" ((tw.W.elapsed_s /. o.W.untraced.W.elapsed_s) -. 1.) ]

(* ---- output --------------------------------------------------------------- *)

let json_number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let json_line ~correct ~attempted ~failed metrics =
  let body =
    List.map
      (fun x ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" x.name (json_number x.value) x.unit_)
      metrics
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed (String.concat ", " body)

let print_table title metrics =
  Printf.printf "%s\n" title;
  List.iter (fun x -> Printf.printf "  %-42s %16.6g %s\n" x.name x.value x.unit_) metrics

let report name ~seed ~seconds ~traced ~host_before ~host_after (o : W.outcome) =
  let w = o.W.untraced in
  let windows = w :: Option.to_list o.W.traced in
  let attempted = List.fold_left (fun a x -> a + x.W.attempted) 0 windows in
  let failed = List.fold_left (fun a x -> a + x.W.failed) 0 windows in
  Printf.printf "snfbench %s seed=%d seconds=%d trace=%d (%s)\n" name seed seconds
    (if traced then 1 else 0) o.W.domains;
  Printf.printf "  setups: %s s\n"
    (String.concat ", " (List.map (Printf.sprintf "%.3f") o.W.setups_s));
  Printf.printf "  window: %.3f s, %d queries, %d writes, %d rounds of %s latency samples\n"
    w.W.elapsed_s w.W.queries (Array.length w.W.write_ms) (List.length w.W.rounds)
    (String.concat "/"
       (List.map (fun (_, lat) -> string_of_int (Array.length lat)) w.W.rounds));
  let per_round f = String.concat ", " (List.map f w.W.rounds) in
  Printf.printf "  round throughputs: %s q/s\n"
    (per_round (fun r -> Printf.sprintf "%.1f" (round_qps r)));
  Printf.printf "  round p50s: %s ms\n"
    (per_round (fun (_, lat) -> Printf.sprintf "%.3f" (M.percentile 0.5 lat)));
  Printf.printf "  round p90s: %s ms\n"
    (per_round (fun (_, lat) -> Printf.sprintf "%.3f" (M.percentile 0.9 lat)));
  Printf.printf "  host.ref_loop_ms before %.2f after %.2f\n" host_before host_after;
  let e2e = end_to_end o in
  let extra =
    m "error_rate" "ratio" (M.ratio failed attempted)
    ::
    (if Array.length w.W.write_ms = 0 then []
     else
       [ m "write_p50_ms" "ms" (M.percentile 0.5 w.W.write_ms);
         m "write_p90_ms" "ms" (M.percentile 0.9 w.W.write_ms) ])
  in
  print_table "end-to-end (untraced window)" (e2e @ extra);
  let metrics =
    if not traced then e2e
    else begin
      let layers = per_layer o ~host_ms:((host_before +. host_after) /. 2.) in
      print_table "per-layer (traced window)" layers;
      let get n = (List.find (fun x -> x.name = n) layers).value in
      let total = get "executor.query_ms" in
      Printf.printf "stage breakdown of the traced query time (%.4f ms/query):\n" total;
      List.iter
        (fun n ->
          Printf.printf "  %-30s %10.4f ms  %5.1f%%\n" n (get n) (100. *. get n /. total))
        (List.map fst stages @ [ "executor.other_ms" ]);
      layers
    end
  in
  if w.W.mismatches > 0 then
    Printf.printf "ORACLE MISMATCH: %d answers disagree with the plaintext oracle\n"
      w.W.mismatches;
  let correct = failed = 0 in
  print_endline (json_line ~correct ~attempted ~failed metrics);
  correct

(* ---- self-test ------------------------------------------------------------ *)

(* Every workload at toy size, twice with one seed: the count metrics must
   repeat exactly and no op may fail. Timings are not compared. *)
let counted =
  [ "wire_bytes_per_query"; "round_trips_per_query"; "oblivious_joins_per_query";
    "storage_expansion"; "leak_leaf_pairs"; "enc_relation.cells_encrypted";
    "executor.tokens_per_query"; "server.scanned_cells_per_query";
    "server.index_probes_per_query"; "bitonic.comparisons_per_query";
    "oblivious_join.rows_processed_per_query"; "executor.result_rows_per_query";
    "executor.batch_join_reuses_per_batch"; "wire.admin.bytes_per_query";
    "wire.probe.bytes_per_query"; "wire.filter.bytes_per_query";
    "wire.fetch.bytes_per_query"; "dynamic.cells_encrypted_per_insert";
    "leakage.eq_distinct"; "leakage.volume_distinct" ]

let self_test () =
  let ok = ref true in
  List.iter
    (fun name ->
      let once () =
        let o = run_workload ~toy:true name ~seed:7 ~seconds:1 ~traced:true in
        let failed =
          o.W.untraced.W.failed + Option.fold ~none:0 ~some:(fun w -> w.W.failed) o.W.traced
        in
        (failed, end_to_end o @ per_layer o ~host_ms:0.)
      in
      let f1, a = once () in
      let f2, b = once () in
      let value l n = (List.find (fun x -> x.name = n) l).value in
      let diffs = List.filter (fun n -> value a n <> value b n) counted in
      let pass = f1 = 0 && f2 = 0 && diffs = [] in
      if not pass then ok := false;
      Printf.printf "self-test %-10s failed ops %d/%d, count metrics %s: %s\n%!" name f1 f2
        (if diffs = [] then "identical"
         else "differ (" ^ String.concat ", " diffs ^ ")")
        (if pass then "PASS" else "FAIL"))
    workloads;
  if !ok then exit 0 else exit 1

(* ---- command line --------------------------------------------------------- *)

let usage () =
  prerr_endline
    "usage: snfbench.exe --workload acs-point|net-batch|acs-ingest --seed N --seconds S \
     --trace 0|1\n       snfbench.exe --self-test";
  exit 2

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  if args = [ "--self-test" ] then self_test ();
  let rec parse acc = function
    | [] -> acc
    | key :: v :: rest when String.length key > 2 && String.sub key 0 2 = "--" ->
      parse ((String.sub key 2 (String.length key - 2), v) :: acc) rest
    | _ -> usage ()
  in
  let opts = parse [] args in
  let int_opt key default =
    match List.assoc_opt key opts with
    | None -> default
    | Some v -> (match int_of_string_opt v with Some n -> n | None -> usage ())
  in
  List.iter
    (fun (k, _) -> if not (List.mem k [ "workload"; "seed"; "seconds"; "trace" ]) then usage ())
    opts;
  let name = match List.assoc_opt "workload" opts with Some n -> n | None -> usage () in
  if not (List.mem name workloads) then begin
    Printf.eprintf "snfbench: unknown workload %S (expected one of: %s)\n" name
      (String.concat ", " workloads);
    exit 2
  end;
  let seed = int_opt "seed" 1 in
  let seconds = int_opt "seconds" 10 in
  let traced =
    match int_opt "trace" 0 with 0 -> false | 1 -> true | _ -> usage ()
  in
  if seconds < 1 then usage ();
  let host_before = M.ref_loop_ms () in
  let o = run_workload ~toy:false name ~seed ~seconds ~traced in
  let host_after = M.ref_loop_ms () in
  let correct = report name ~seed ~seconds ~traced ~host_before ~host_after o in
  exit (if correct then 0 else 1)
