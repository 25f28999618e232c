(* The three closed-loop workloads. Each builds its inputs from the seed,
   sets the store up several times (setup_s is the median), runs one fixed
   op sequence in a timed window, checks every retained answer against the
   plaintext oracle after the window, and replays the distinct ops once
   under the SNFT recorder for the leakage counts. *)

open Snf_relational
module System = Snf_exec.System
module Executor = Snf_exec.Executor
module Dynamic = Snf_exec.Dynamic
module Parallel = Snf_exec.Parallel
module Planner = Snf_exec.Planner
module Server_api = Snf_exec.Server_api
module Enc_relation = Snf_exec.Enc_relation
module Storage_model = Snf_exec.Storage_model
module Query = Snf_exec.Query
module Normalizer = Snf_core.Normalizer
module Acs = Snf_workload.Acs
module Sensitivity = Snf_workload.Sensitivity
module Query_gen = Snf_workload.Query_gen
module Oracle = Snf_check.Oracle
module Leakage = Snf_obs.Leakage
module Span = Snf_obs.Span
module Prng = Snf_crypto.Prng
module Server = Snf_net.Server
module Client = Snf_net.Client
module M = Measure

(* The datasets (the ACS generator at its default seed), their
   sensitivity annotation and each workload's query pool are fixed, as
   the paper's one ACS table and query set are; the seed draws the order
   in which the pool is visited and, on net-batch, the Zipf draws. A
   dataset drawn per seed re-draws every attribute's value domain, and
   with it every selectivity: per-query latency then moved about 20%
   between seeds, against about 8% between repeats of one seed. A pool
   drawn per seed moved the median by up to 16% (a different share of
   2- and 3-join queries, of wide and narrow ranges). *)
let policy_seed = 2020

let query_seed = 14

(* The pool in the order the seed draws. *)
let seeded_order ~seed pool =
  let a = Array.of_list pool in
  Prng.shuffle (Prng.create ((seed * 7919) + 17)) a;
  a

(* What one timed window measured. The window runs in rounds (a pass, a
   group of batches, a compaction period); latency and throughput are
   taken from the rounds' best figures (see snfbench.ml), so host
   contention that hits some rounds does not move them. Latencies are
   per query; a query in a batch gets its batch's latency. *)
type window = {
  elapsed_s : float;
  rounds : (float * float array) list;  (** seconds, query latencies (ms) *)
  write_ms : float array;  (** in op order; on acs-ingest, the same writes every round *)
  busy_s : float;  (** summed latency of query ops, each batch once *)
  queries : int;
  attempted : int;  (** queries plus writes *)
  failed : int;  (** errors, exceptions and oracle mismatches *)
  mismatches : int;
  wire_bytes : int;
  round_trips : int;
  joins : int;
  counters : M.counters * M.counters;  (** before, after *)
  gc : M.gc;
  spans : Span.event list;
  rtt_ms : float;  (** summed request round trips on instrumented conns *)
  server_requests : int;
  busy_rejections : int;
  insert_ms : float list;
  compact_ms : float list;
  cells_per_insert : int list;
}

type outcome = {
  domains : string;
  repeated : bool;  (** every round runs the same ops in the same order *)
  setups_s : float list;
  peak_live_words : int;
      (** largest live heap after a full collection, sampled after every
          setup and after the untraced window *)
  untraced : window;
  traced : window option;
  storage_expansion : float;
  leak : Leakage.profile;
  layers : (string * float) list;
      (** setup-side and workload-specific per-layer metrics (traced only) *)
}

(* Per-op bookkeeping while a window runs. *)
type tally = {
  mutable seg : float list;  (** query latencies of the current round *)
  mutable rounds_ms : float list list;  (** finished rounds, newest first *)
  mutable w_ms : float list;
  mutable busy : float;
  mutable n_queries : int;
  mutable n_attempted : int;
  mutable n_failed : int;
  mutable wire : int;
  mutable trips : int;
  mutable n_joins : int;
  mutable checks : (Relation.t * string list) list;  (** answer, expected bag *)
  mutable inserts : float list;
  mutable compacts : float list;
  mutable cells : int list;
}

let tally () =
  { seg = []; rounds_ms = []; w_ms = []; busy = 0.; n_queries = 0; n_attempted = 0; n_failed = 0;
    wire = 0; trips = 0; n_joins = 0; checks = []; inserts = []; compacts = [];
    cells = [] }

let note_trace t (tr : Executor.trace) =
  t.wire <- t.wire + tr.Executor.wire_bytes_up + tr.Executor.wire_bytes_down;
  t.trips <- t.trips + tr.Executor.wire_requests;
  t.n_joins <- t.n_joins + tr.Executor.plan.Planner.joins

(* One query op answered [k] queries in [dt] seconds. *)
let note_op t ~k dt =
  t.n_attempted <- t.n_attempted + k;
  t.n_queries <- t.n_queries + k;
  for _ = 1 to k do
    t.seg <- (dt *. 1e3) :: t.seg
  done;
  t.busy <- t.busy +. dt

let end_round t =
  t.rounds_ms <- t.seg :: t.rounds_ms;
  t.seg <- []

(* Runs [n] rounds of [f], closing each in the tally; returns the rounds'
   wall times in order. *)
let run_rounds t n f =
  List.init n (fun r ->
      let (), dt = M.time (fun () -> f r) in
      end_round t;
      dt)

let note_answer t want = function
  | Ok ans -> t.checks <- (ans, want) :: t.checks
  | Error _ -> t.n_failed <- t.n_failed + 1

let catch f = try f () with e -> Error (Printexc.to_string e)

(* Answers are retained during the window and compared afterwards, so the
   oracle never runs inside the timed region. *)
let mismatches checks =
  List.fold_left (fun n (ans, want) -> if Oracle.bag ans = want then n else n + 1) 0 checks

let merge_tallies = function
  | [] -> tally ()
  | first :: rest ->
    List.fold_left
      (fun a b ->
        { seg = []; rounds_ms = List.map2 ( @ ) a.rounds_ms b.rounds_ms; w_ms = b.w_ms @ a.w_ms; busy = a.busy +. b.busy;
          n_queries = a.n_queries + b.n_queries;
          n_attempted = a.n_attempted + b.n_attempted;
          n_failed = a.n_failed + b.n_failed; wire = a.wire + b.wire;
          trips = a.trips + b.trips; n_joins = a.n_joins + b.n_joins;
          checks = b.checks @ a.checks; inserts = b.inserts @ a.inserts;
          compacts = b.compacts @ a.compacts; cells = b.cells @ a.cells })
      first rest

(* Runs a window body under counter, GC and (when traced) span capture.
   The body returns its tally, its rounds' wall times, the instrumented
   round-trip time and the server's request and busy-rejection counts. *)
let timed_window ~traced body =
  Span.reset ();
  Span.set_enabled traced;
  let c0 = M.counters () and g0 = M.gc () in
  let (t, round_s, rtt, server_requests, busy_rejections), elapsed = M.time body in
  let g1 = M.gc () and c1 = M.counters () in
  Span.set_enabled false;
  let spans = if traced then Span.events () else [] in
  let bad = mismatches t.checks in
  { elapsed_s = elapsed;
    rounds = List.combine round_s (List.rev_map Array.of_list t.rounds_ms);
    write_ms = Array.of_list (List.rev t.w_ms);
    busy_s = t.busy;
    queries = t.n_queries;
    attempted = t.n_attempted;
    failed = t.n_failed + bad;
    mismatches = bad;
    wire_bytes = t.wire;
    round_trips = t.trips;
    joins = t.n_joins;
    counters = (c0, c1);
    gc = M.gc_diff g0 g1;
    spans;
    rtt_ms = rtt;
    server_requests;
    busy_rejections;
    insert_ms = List.rev t.inserts;
    compact_ms = List.rev t.compacts;
    cells_per_insert = List.rev t.cells }

(* What a workload plugs into [drive]. A setup returns its state and the
   seconds its warm-up pass took. *)
type 's spec = {
  domains : string;
  repeated : bool;
  setups : int;
  setup : unit -> 's * float;
  release : 's -> unit;
  window : 's -> traced:bool -> window;
  replay : 's -> unit;  (** the distinct ops, run once under the recorder *)
  expansion : 's -> float;
  layers :
    's -> setup_counters:M.counters * M.counters -> encrypt_ms:float -> warmup_s:float ->
    (string * float) list;
}

(* Setups are repeated and all but the last released; setup_s is their
   median, which absorbs the host's second-scale drift. A traced run
   measures one untraced window, then sets up afresh with spans on and
   measures the same op sequence traced, so both windows start from
   identical state and their ratio is the tracing overhead. *)
let drive ~traced spec =
  (* Every measured region starts from a collected heap, so its GC work
     does not depend on what ran before it. The live heap is sampled at
     those quiescent points: a high-water mark of the heap's peak during
     a region would depend on when collections happened to run. *)
  let peak = ref 0 in
  let collect () =
    Gc.full_major ();
    peak := max !peak (Gc.stat ()).Gc.live_words
  in
  let rec setups k acc =
    Gc.full_major ();
    let (s, _), dt = M.time spec.setup in
    collect ();
    if k <= 1 then (s, List.rev (dt :: acc))
    else begin
      spec.release s;
      setups (k - 1) (dt :: acc)
    end
  in
  let s, setups_s = setups (max 1 spec.setups) [] in
  let untraced = spec.window s ~traced:false in
  collect ();
  let peak_live_words = !peak in
  let s, traced_w, layers =
    if not traced then (s, None, [])
    else begin
      spec.release s;
      let c0 = M.counters () in
      Span.reset ();
      Span.set_enabled true;
      let s, warmup_s = spec.setup () in
      Span.set_enabled false;
      let c1 = M.counters () in
      let encrypt_ms = M.span_total_ms (Span.events ()) "enc.encrypt" in
      Gc.full_major ();
      let w = spec.window s ~traced:true in
      (s, Some w, spec.layers s ~setup_counters:(c0, c1) ~encrypt_ms ~warmup_s)
    end
  in
  let (), trace = System.record_wire_trace (fun () -> spec.replay s) in
  let expansion = spec.expansion s in
  spec.release s;
  { domains = spec.domains;
    repeated = spec.repeated;
    setups_s;
    peak_live_words;
    untraced;
    traced = traced_w;
    storage_expansion = expansion;
    leak = Leakage.profile trace;
    layers }

(* Mean microseconds per [Planner.decide] over [qs], after one untimed
   pass so cached handles are measured warm, as the window runs them. *)
let decide_us ?handle rep qs =
  List.iter (fun q -> ignore (Planner.decide ?handle rep q)) qs;
  let (), dt =
    M.time (fun () -> List.iter (fun q -> ignore (Planner.decide ?handle rep q)) qs)
  in
  dt *. 1e6 /. float_of_int (max 1 (List.length qs))

(* Setup-side layers common to every workload: planning timed by its own
   call, encryption from its span and counter, binding by re-binding the
   same owner to the same backend kind. *)
let setup_layers (owner : System.owner) ~graph ~setup_counters:(c0, c1) ~encrypt_ms
    ~warmup_s =
  let policy = owner.System.policy in
  let plan_ms =
    M.median
      (List.init 3 (fun _ ->
           snd (M.time (fun () -> Normalizer.plan_with_graph graph policy))))
    *. 1e3
  in
  let bind_s =
    let o, dt = M.time (fun () -> System.with_backend owner (System.backend owner)) in
    System.release o;
    dt
  in
  [ ("normalizer.plan_ms", plan_ms);
    ("enc_relation.encrypt_ms", encrypt_ms);
    ("enc_relation.cells_encrypted", float_of_int (M.delta c0 c1 "enc.cells_encrypted"));
    ("system.bind_ms", bind_s *. 1e3);
    ("setup.warmup_ms", warmup_s *. 1e3) ]

let expansion_of enc r =
  float_of_int (Enc_relation.measured_bytes enc)
  /. float_of_int (Storage_model.relation_plaintext_bytes r)

let bag_of r q = Oracle.bag (Oracle.answer r q)

(* ------------------------------------------------------------------------ *)
(* acs-point: the paper's workload (ACS, 231 attributes), one query at a
   time through System.query: sort-merge, greedy planner, mapping cache
   off. Parallel runs at one domain: with two, every filter fan-out and
   bitonic substage spawns a domain, and on a shared 2-core host the wait
   for the second core made p90 and throughput spread 0.42 and 0.37 over
   six seeds, against 0.29 and 0.23 at one domain in the same period. *)

type acs_point = {
  ap_rows : int;
  ap_per_way : int;  (** 2-way and 3-way point queries each *)
  ap_ranges : int;
  ap_passes : int;  (** passes over the query list in the window *)
}

let acs_point p ~setups ~seed ~traced =
  let domains = 1 in
  Parallel.set_domain_count domains;
  let acs = Acs.generate { Acs.default_config with Acs.rows = p.ap_rows } in
  let r = acs.Acs.relation and graph = acs.Acs.graph in
  let policy = Sensitivity.annotate ~seed:policy_seed (Relation.schema r) in
  let queries =
    Array.to_list
      (seeded_order ~seed
         (Query_gen.mixed_with_ranges ~count_per_way:p.ap_per_way ~range_count:p.ap_ranges
            ~seed:query_seed r policy))
  in
  let expected = List.map (fun q -> (q, bag_of r q)) queries in
  let run_all owner = List.iter (fun q -> ignore (System.query owner q)) queries in
  drive ~traced
    { domains = Printf.sprintf "Parallel=%d" domains;
      repeated = true;
      setups;
      setup =
        (fun () ->
          let owner = System.outsource ~name:"acs" ~graph r policy in
          let (), warm = M.time (fun () -> run_all owner) in
          (owner, warm));
      release = System.release;
      window =
        (fun owner ~traced ->
          timed_window ~traced (fun () ->
              let t = tally () in
              let round_s =
                run_rounds t p.ap_passes (fun _ ->
                    List.iter
                      (fun (q, want) ->
                        let res, dt =
                          M.time (fun () -> catch (fun () -> System.query owner q))
                        in
                        note_op t ~k:1 dt;
                        Result.iter (fun (_, tr) -> note_trace t tr) res;
                        note_answer t want (Result.map fst res))
                      expected)
              in
              (t, round_s, 0., 0, 0)));
      replay = run_all;
      expansion = (fun owner -> expansion_of owner.System.enc r);
      layers =
        (fun owner ~setup_counters ~encrypt_ms ~warmup_s ->
          setup_layers owner ~graph ~setup_counters ~encrypt_ms ~warmup_s
          @ [ ("statistics.refresh_ms", 0.);
              ( "planner.decide_us",
                decide_us owner.System.plan.Normalizer.representation queries ) ]) }

(* ------------------------------------------------------------------------ *)
(* net-batch: an in-process socket server (one worker domain) holding a
   narrow ACS-shaped store; two client connections, each in its own
   domain, loop on run_batch over Zipf-skewed draws from a hot pool, with
   the cost planner and the mapping cache. *)

type net_batch = {
  nb_rows : int;
  nb_per_way : int;  (** pool: 2-way and 3-way point queries each *)
  nb_k : int;  (** queries per batch *)
  nb_batches : int;  (** batches per connection in the window *)
  nb_rounds : int;  (** divides [nb_batches] *)
  nb_conns : int;
}

(* The main domain releases the client domains one round at a time;
   [ready] counts the workers that finished the current phase, [dead]
   says one raised (so the main domain stops waiting for it). *)
type gate = {
  lock : Mutex.t;
  cond : Condition.t;
  mutable ready : int;
  mutable dead : bool;
  mutable cmd : [ `Wait | `Round of int | `Quit ];
}

type net_state = {
  owner : System.owner;
  planner : Planner.handle;
  refresh_s : float;
  gate : gate;
  workers : (tally * float) option Domain.t list;
  mutable joined : (tally * float) option list option;
}

let narrow_config rows =
  { Acs.default_config with Acs.rows; cluster_sizes = [ 5; 4; 3; 2 ]; independent_attrs = 4 }

let rec with_busy_retry n f =
  try f ()
  with Server_api.Busy when n > 0 ->
    Unix.sleepf 0.002;
    with_busy_retry (n - 1) f

let net_batch p ~setups ~seed ~traced ~sock =
  Parallel.set_domain_count 1;
  let acs = Acs.generate (narrow_config p.nb_rows) in
  let r = acs.Acs.relation and graph = acs.Acs.graph in
  let policy = Sensitivity.annotate ~seed:policy_seed (Relation.schema r) in
  (* Point queries only: a hot range query's result size swings with the
     seed over the whole relation, which would make the mix (and every
     per-query figure) depend on which queries the seed made hot. *)
  let pool =
    Array.of_list (Query_gen.mixed_workload ~count_per_way:p.nb_per_way ~seed:query_seed r policy)
  in
  let want = Array.map (bag_of r) pool in
  let n = Array.length pool in
  (* Each connection draws its own Zipf sequence over a seeded
     permutation of the pool, so the hot queries are a random mix of
     shapes rather than the first 2-way ones. The skew is mild (s = 0.6:
     the hottest query takes about 7% of draws): with the steeper s = 1.07
     a handful of queries dominate, and every per-query figure swings with
     whichever ones the seed made hot. *)
  let batches =
    List.init p.nb_conns (fun c ->
        let prng = Prng.create ((seed * 7919) + c + 1) in
        let perm = Array.init n Fun.id in
        Prng.shuffle prng perm;
        let draw = Prng.zipf_sampler prng ~s:0.6 n in
        List.init p.nb_batches (fun _ -> List.init p.nb_k (fun _ -> perm.(draw ()))))
  in
  let chunks l =
    let rec go acc cur k = function
      | [] -> List.rev (if cur = [] then acc else List.rev cur :: acc)
      | x :: rest ->
        if k = p.nb_k then go (List.rev cur :: acc) [ x ] 1 rest
        else go acc (x :: cur) (k + 1) rest
    in
    go [] [] 0 l
  in
  let distinct l = List.sort_uniq compare (List.concat l) in
  let name = "netbatch" in
  let addr = "unix:" ^ sock in
  let config =
    { Server.default_config with Server.domains = 1; queue_capacity = 1024; idle_timeout = 0. }
  in
  let srv =
    match Server.start_mem ~config ~addr () with
    | Ok srv -> srv
    | Error e -> failwith ("net-batch: cannot start server: " ^ e)
  in
  Fun.protect ~finally:(fun () -> Server.stop srv) @@ fun () ->
  let run_batch ~planner client conn rep idxs =
    try
      with_busy_retry 50 (fun () ->
          Executor.run_batch ~planner ~use_mapping_cache:true client conn rep
            (List.map (fun i -> pool.(i)) idxs))
    with e -> List.map (fun _ -> Error (Printexc.to_string e)) idxs
  in
  (* A client connection in its own domain: warm-up over its distinct
     queries, then run its batch sequence one round at a time as the gate
     opens. The conn is the socket conn wrapped so every request's round
     trip is timed; accounting stays on the outer conn. *)
  let worker gate planner rep mine () =
    let client =
      Enc_relation.make_client ~seed:0x5eed ~relation_name:name ~master:("master:" ^ name) ()
    in
    let inner =
      match Client.connect addr with Ok c -> c | Error e -> failwith ("net-batch: " ^ e)
    in
    let rtt = ref 0. in
    let conn =
      Server_api.connect_handler ~name:"socket"
        ~handle:(fun req ->
          let resp, dt = M.time (fun () -> Server_api.exchange_raw inner req) in
          rtt := !rtt +. dt;
          resp)
        ~close:(fun () -> Server_api.close inner)
    in
    Fun.protect ~finally:(fun () -> Server_api.close conn; Snf_obs.flush ()) @@ fun () ->
    List.iter (fun b -> ignore (run_batch ~planner client conn rep b)) (chunks (distinct mine));
    (* Publish the warm-up's counters and spans now, so the window's
       deltas (taken on the main domain) cover the window alone. *)
    Snf_obs.flush ();
    (* Signal the phase just finished, then wait for round [r]. *)
    let next_round r =
      Mutex.protect gate.lock (fun () ->
          gate.ready <- gate.ready + 1;
          Condition.broadcast gate.cond;
          let rec wait () =
            match gate.cmd with
            | `Quit -> false
            | `Round r' when r' = r -> true
            | _ ->
              Condition.wait gate.cond gate.lock;
              wait ()
          in
          wait ())
    in
    let t = tally () in
    let per_round = p.nb_batches / p.nb_rounds in
    let rec go r todo =
      if r = p.nb_rounds then begin
        Mutex.protect gate.lock (fun () ->
            gate.ready <- gate.ready + 1;
            Condition.broadcast gate.cond);
        Some (t, !rtt *. 1e3)
      end
      else if not (next_round r) then None
      else begin
        if r = 0 then rtt := 0.;
        let now = List.filteri (fun i _ -> i < per_round) todo in
        List.iter
          (fun b ->
            let res, dt = M.time (fun () -> run_batch ~planner client conn rep b) in
            note_op t ~k:(List.length b) dt;
            List.iter2
              (fun i res ->
                Result.iter (fun (_, tr) -> note_trace t tr) res;
                note_answer t want.(i) (Result.map fst res))
              b res)
          now;
        end_round t;
        go (r + 1) (List.filteri (fun i _ -> i >= per_round) todo)
      end
    in
    go 0 mine
  in
  let set_cmd gate cmd =
    gate.ready <- 0;
    gate.cmd <- cmd;
    Condition.broadcast gate.cond
  in
  let spawn gate f =
    Domain.spawn (fun () ->
        try f ()
        with e ->
          Mutex.protect gate.lock (fun () ->
              gate.dead <- true;
              Condition.broadcast gate.cond);
          raise e)
  in
  (* Sets [cmd] (when given) and waits until every connection finished the
     phase. If a worker died, the others are told to quit and joining
     re-raises its exception. *)
  let await ?cmd gate workers =
    let dead =
      Mutex.protect gate.lock (fun () ->
          Option.iter (set_cmd gate) cmd;
          while gate.ready < p.nb_conns && not gate.dead do
            Condition.wait gate.cond gate.lock
          done;
          if gate.dead then set_cmd gate `Quit;
          gate.dead)
    in
    if dead then List.iter (fun d -> ignore (Domain.join d)) workers
  in
  let join st =
    let results = List.map Domain.join st.workers in
    st.joined <- Some results;
    results
  in
  let release st =
    if st.joined = None then begin
      Mutex.protect st.gate.lock (fun () -> set_cmd st.gate `Quit);
      ignore (join st)
    end;
    System.release st.owner
  in
  drive ~traced
    { domains =
        Printf.sprintf "client Parallel=1, %d client domains, server workers=%d"
          p.nb_conns config.Server.domains;
      repeated = false;
      setups;
      setup =
        (fun () ->
          let owner =
            System.outsource ~backend:(`Ext (Client.backend addr)) ~name ~graph r policy
          in
          let planner, refresh_s = M.time (fun () -> System.cost_planner owner) in
          let rep = owner.System.plan.Normalizer.representation in
          let gate =
            { lock = Mutex.create (); cond = Condition.create (); ready = 0; dead = false;
              cmd = `Wait }
          in
          let t_warm = M.now () in
          let workers = List.map (fun mine -> spawn gate (worker gate planner rep mine)) batches in
          await gate workers;
          ({ owner; planner; refresh_s; gate; workers; joined = None }, M.now () -. t_warm));
      release;
      window =
        (fun st ~traced ->
          timed_window ~traced (fun () ->
              let s0 = Server.stats srv in
              let round_s =
                List.init p.nb_rounds (fun r ->
                    snd (M.time (fun () -> await ~cmd:(`Round r) st.gate st.workers)))
              in
              let results = List.filter_map Fun.id (join st) in
              let s1 = Server.stats srv in
              ( merge_tallies (List.map fst results),
                round_s,
                List.fold_left (fun a (_, rtt) -> a +. rtt) 0. results,
                s1.Server.requests_served - s0.Server.requests_served,
                s1.Server.busy_rejections - s0.Server.busy_rejections )));
      replay =
        (fun st ->
          List.iter
            (fun b ->
              ignore
                (System.query_batch ~planner:st.planner st.owner
                   (List.map (fun i -> pool.(i)) b)))
            (chunks (distinct (List.concat batches))));
      expansion = (fun st -> expansion_of st.owner.System.enc r);
      layers =
        (fun st ~setup_counters ~encrypt_ms ~warmup_s ->
          let rep = st.owner.System.plan.Normalizer.representation in
          setup_layers st.owner ~graph ~setup_counters ~encrypt_ms ~warmup_s
          @ [ ("statistics.refresh_ms", st.refresh_s *. 1e3);
              ( "planner.decide_us",
                decide_us ~handle:st.planner rep
                  (List.concat_map (List.map (fun i -> pool.(i))) (List.concat batches)) ) ]) }

(* ------------------------------------------------------------------------ *)
(* acs-ingest: writes beside reads over Dynamic (ACS, 231 attributes).
   Each cycle inserts fresh generated rows, then runs point queries over
   base and delta; every [ai_compact_every] cycles a compaction folds the
   delta back into a re-encrypted base. A round is one compaction period
   from the same freshly outsourced base: the same inserts, the whole
   query pool once in the same order, then the compaction, so rounds are
   repeated measurements of one op sequence. The outsourcing that resets
   the base before each round is timed in no round. A base carried from
   round to round grew 50 rows per compaction, and each round ran slower
   than the one before; a base left warm by the setup's warm-up made the
   first round's median latency a quarter of the others'. *)

type acs_ingest = {
  ai_base : int;  (** rows outsourced at setup and at each round's start *)
  ai_rounds : int;
  ai_inserts : int;  (** rows per insert *)
  ai_queries : int;  (** point queries per cycle *)
  ai_compact_every : int;  (** cycles per round *)
  ai_per_way : int;
      (** pool: 2-way and 3-way point queries each; the pool holds
          [ai_queries * ai_compact_every] queries *)
}

type ingest_state = { first : System.owner; mutable dyn : Dynamic.t }

let acs_ingest p ~setups ~seed ~traced =
  Parallel.set_domain_count 1;
  let total = p.ai_base + (p.ai_compact_every * p.ai_inserts) in
  let acs = Acs.generate { Acs.default_config with Acs.rows = total } in
  let full = acs.Acs.relation and graph = acs.Acs.graph in
  let prefix n = Relation.filter full (fun i _ -> i < n) in
  let base = prefix p.ai_base in
  let policy = Sensitivity.annotate ~seed:policy_seed (Relation.schema full) in
  let pool =
    seeded_order ~seed (Query_gen.mixed_workload ~count_per_way:p.ai_per_way ~seed:query_seed base policy)
  in
  let query_at c j = pool.(((c * p.ai_queries) + j) mod Array.length pool) in
  let used = Array.to_list pool in
  (* The oracle for cycle [c] is the plaintext after its insert. *)
  let expected =
    Array.init p.ai_compact_every (fun c ->
        let state = prefix (p.ai_base + ((c + 1) * p.ai_inserts)) in
        Array.init p.ai_queries (fun j -> bag_of state (query_at c j)))
  in
  let rows_of c =
    List.init p.ai_inserts (fun k -> Relation.row full (p.ai_base + (c * p.ai_inserts) + k))
  in
  let outsource () = System.outsource ~name:"ingest" ~graph base policy in
  let run_all d = List.iter (fun q -> ignore (Dynamic.query d q)) used in
  let write t note f =
    t.n_attempted <- t.n_attempted + 1;
    match M.time f with
    | v, dt ->
      t.w_ms <- (dt *. 1e3) :: t.w_ms;
      note v dt
    | exception _ -> t.n_failed <- t.n_failed + 1
  in
  drive ~traced
    { domains = "Parallel=1";
      repeated = true;
      setups;
      setup =
        (fun () ->
          let owner = outsource () in
          let d = Dynamic.create owner in
          let (), warm = M.time (fun () -> run_all d) in
          ({ first = owner; dyn = d }, warm));
      release = (fun st -> System.release st.first);
      window =
        (fun st ~traced ->
          timed_window ~traced (fun () ->
              let t = tally () in
              let cycle d c =
                write t
                  (fun (s : Dynamic.stats) dt ->
                    t.inserts <- (dt *. 1e3) :: t.inserts;
                    t.cells <- s.Dynamic.cells_encrypted :: t.cells)
                  (fun () -> Dynamic.insert d (rows_of c));
                for j = 0 to p.ai_queries - 1 do
                  let res, dt = M.time (fun () -> catch (fun () -> Dynamic.query d (query_at c j))) in
                  note_op t ~k:1 dt;
                  Result.iter (fun (_, trs) -> List.iter (note_trace t) trs) res;
                  note_answer t expected.(c).(j) (Result.map fst res)
                done
              in
              let round_s =
                List.init p.ai_rounds (fun _ ->
                    let owner = outsource () in
                    let d = Dynamic.create owner in
                    let (), dt =
                      M.time (fun () ->
                          for c = 0 to p.ai_compact_every - 1 do
                            cycle d c
                          done;
                          write t
                            (fun _ dt -> t.compacts <- (dt *. 1e3) :: t.compacts)
                            (fun () -> Dynamic.compact d))
                    in
                    end_round t;
                    (* The compaction replaced [owner] as the base. *)
                    System.release owner;
                    st.dyn <- d;
                    dt)
              in
              (t, round_s, 0., 0, 0)));
      replay = (fun st -> run_all st.dyn);
      expansion =
        (fun st ->
          (* Every round ends on a compaction, so the store is exactly the
             representation of the current plaintext; the simulation
             accountant equals [Enc_relation.measured_bytes] there. *)
          let now = Dynamic.current_plaintext st.dyn in
          float_of_int
            (Storage_model.representation_bytes Storage_model.Simulation now
               st.first.System.plan.Normalizer.representation)
          /. float_of_int (Storage_model.relation_plaintext_bytes now));
      layers =
        (fun st ~setup_counters ~encrypt_ms ~warmup_s ->
          setup_layers st.first ~graph ~setup_counters ~encrypt_ms ~warmup_s
          @ [ ("statistics.refresh_ms", 0.);
              ("planner.decide_us", decide_us st.first.System.plan.Normalizer.representation used) ]) }
