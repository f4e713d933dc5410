(* The repository benchmark: one workload per invocation.

     dune exec --root . ./perfbench/main.exe -- \
       --workload htap|oltp_durable|shard_2pc --seed N --seconds S --trace 0|1

   --trace 0 measures the end-to-end metrics (virtual latency/throughput
   of the modeled database, host speed of the simulator, set-up time,
   peak heap); --trace 1 runs the same workload again with an
   event sink, op counters and host spans attached and reports the
   per-layer metrics.  Both modes run every correctness check.  The last
   line of stdout is one JSON object:
   {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
   A failed check prints correct=false and exits 1. *)

let usage =
  "main.exe --workload {htap|oltp_durable|shard_2pc} --seed N --seconds S --trace {0|1}"

let line fmt = Printf.printf (fmt ^^ "\n%!")
let median = Layers.median

type outcome = { checks : Checks.result list; metrics : Layers.m list; attempted : int; failed : int }

(* -- Shared: first run, checks, determinism -------------------------------------- *)

(* A short run of a different workload, so the repeat of this one runs
   after another workload in the same process (process-global counters
   have moved on). *)
let other_workload k ~seed =
  let o = match k with Wl.Htap -> Wl.Oltp_durable | Wl.Oltp_durable -> Wl.Shard_2pc | Wl.Shard_2pc -> Wl.Htap in
  ignore (Wl.run o ~seed ~interval_us:(Wl.interval_us o) ~horizon_ms:2.)

let rep ?obs ?op_probe ?segments ?(horizon_ms = Wl.horizon_ms) k ~seed =
  Wl.run ?obs ?op_probe ?segments k ~seed ~interval_us:(Wl.interval_us k) ~horizon_ms:(horizon_ms k)

let same_schedule name ~expect (r : Wl.run) =
  let fp = Wl.fingerprint r.Wl.node in
  Checks.check name (fp = expect) "fingerprint %s (first run %s)" fp expect

let inputs_differ k ~seed =
  let a = Wl.inputs_fingerprint k ~seed and b = Wl.inputs_fingerprint k ~seed:(Int64.succ seed) in
  Checks.check "seed-changes-inputs" (a <> b) "seed %Ld -> %s, seed %Ld -> %s" seed a (Int64.succ seed) b

let print_run_header k (first : Wl.run) (v : Wl.virt) =
  line "workload %s  seed %Ld  horizon %.0f virtual ms  offered %.1f kTPS" (Wl.name k) first.Wl.seed
    (Wl.horizon_us first /. 1000.)
    (Wl.offered_ktps k ~interval_us:(Wl.interval_us k));
  line "  NewOrder samples %d (p99 has %d beyond it); HP attempted %d, failed %d" v.Wl.no_samples
    (v.Wl.no_samples / 100) v.Wl.hp_attempted v.Wl.hp_failed

(* -- --trace 0: end-to-end --------------------------------------------------------- *)

(* The number of segments every run has, and the sum of each one's
   fastest time across the runs. *)
let best_segments segs =
  let arrs = List.map Array.of_list segs in
  let n = List.fold_left (fun n a -> min n (Array.length a)) max_int arrs in
  let total = ref 0. in
  for i = 0 to n - 1 do
    total := !total +. List.fold_left (fun m a -> Float.min m a.(i)) infinity arrs
  done;
  (n, !total)

let end_to_end k ~seed ~seconds ~t_start ~timing ~first ~peak_mb ~checks =
  let v = Wl.virt_of k first.Wl.node in
  (* Repeats of the first, lone timing run, each after another workload
     has run: they must reproduce its schedule.  Keep going until
     [seconds] have passed since the start, and at least four timing runs
     in all. *)
  let expect = Wl.fingerprint timing.Wl.node in
  let rec reps acc n =
    if n >= 4 && Unix.gettimeofday () -. t_start >= seconds then List.rev acc
    else begin
      Hostref.sample ();
      let r = Span.with_ "run.repeat" (fun () -> rep ~horizon_ms:Wl.timing_ms k ~seed) in
      let ck = same_schedule (Printf.sprintf "determinism-run%d" n) ~expect r in
      (* keep only what the host figures need, not the database *)
      reps ((r.Wl.setup, r.Wl.seg_wall_s, ck) :: acc) (n + 1)
    end
  in
  let more = reps [] 1 in
  let runs =
    List.map (fun (r : Wl.run) -> (r.Wl.setup, r.Wl.seg_wall_s)) [ timing; first ]
    @ List.map (fun (s, g, _) -> (s, g)) more
  in
  let n_segs, best = best_segments (List.map snd runs) in
  let sim_rate = float_of_int n_segs *. Wl.segment_us /. best in
  let setups = List.map (fun (s, _) -> Wl.setup_total s) runs in
  let slowdown = Hostref.slowdown () in
  line "  host ran %.3fx nominal speed (reference loop best %.2f ms, nominal %.2f ms); raw rate %.0f vus/s, raw setup %.3f s"
    (1. /. slowdown) (1000. *. Hostref.best ()) (1000. *. Hostref.nominal_s) sim_rate (median setups);
  line "  host rate over the first %.0f virtual ms: %d segments of %.0f us, each at its fastest of %d runs; per run: %s vus/s"
    (Wl.timing_ms k) n_segs Wl.segment_us (List.length runs)
    (String.concat " "
       (List.map
          (fun (_, g) ->
            Printf.sprintf "%.0f"
              (float_of_int (List.length g) *. Wl.segment_us /. List.fold_left ( +. ) 0. g))
          runs));
  line "  setup s per run: %s" (String.concat " " (List.map (Printf.sprintf "%.3f") setups));
  {
    checks = checks @ List.map (fun (_, _, c) -> c) more;
    metrics =
      [
        ("neworder_p50_us", v.Wl.no_p50_us, "us");
        ("neworder_p99_us", v.Wl.no_p99_us, "us");
        ("hp_ktps", v.Wl.hp_ktps, "kTPS");
        ("hp_p99_us", v.Wl.hp_p99_us, "us");
        ("sim_vus_per_s", sim_rate *. slowdown, "vus/s");
        ("setup_s", median setups /. slowdown, "s");
        ("peak_heap_mb", peak_mb, "MB");
      ];
    attempted = v.Wl.hp_attempted;
    failed = v.Wl.hp_failed;
  }

(* -- --trace 1: per layer --------------------------------------------------------- *)

let per_layer k ~seed ~first ~checks =
  let v = Wl.virt_of k first.Wl.node in
  let expect = Wl.fingerprint first.Wl.node in
  let sink =
    match k with Wl.Htap | Wl.Oltp_durable -> Some (Obs.Sink.create ~capacity:(1 lsl 17) ()) | Wl.Shard_2pc -> None
  in
  let op_counts = Array.make (Array.length Layers.op_names) 0 in
  let op_probe _ op =
    let i = Layers.op_index op in
    op_counts.(i) <- op_counts.(i) + 1
  in
  let traced =
    Span.with_ "run.traced" (fun () -> rep ?obs:sink ~op_probe ~segments:false k ~seed)
  in
  let labels = match first.Wl.node with Wl.Single s -> List.rev !(s.Wl.gens.Wl.log) | Wl.Cluster _ -> [] in
  let floor = Span.with_ "engine.floor" (fun () -> Layers.floor_replay k ~seed ~labels) in
  let prims = Span.with_ "primitives" (fun () -> Layers.primitives ~depth:(Layers.des_max_queue first)) in
  let untraced_wall = first.Wl.des_wall_s in
  let wall_ns = untraced_wall *. 1e9 in
  let events = Wl.events first in
  let txns = v.Wl.committed_all in
  let per_txn x = Layers.div x (float_of_int txns) in
  (* host-time model of the full run: every micro-op at its engine-floor
     cost, every event at the queue's cost, every send at the fabric's,
     every histogram record at the histogram's *)
  let engine_ns =
    Array.fold_left ( +. ) 0.
      (Array.mapi (fun i c -> float_of_int c *. Layers.floor_ns_per_op floor i) op_counts)
  in
  let eventq_ns = float_of_int events *. prims.Layers.eq in
  let sends = match first.Wl.node with Wl.Single s -> s.Wl.res.Preemptdb.Runner.uintr_sends | Wl.Cluster _ -> 0 in
  let uintr_ns = float_of_int sends *. prims.Layers.send in
  let hist_ns = float_of_int (Layers.hist_records first) *. prims.Layers.hist in
  let model_ns = engine_ns +. eventq_ns +. uintr_ns +. hist_ns in
  let pct x = 100. *. Layers.div x wall_ns in
  let dropped, split_rows, split_top, split =
    match (sink, traced.Wl.node) with
    | Some s, Wl.Single ts ->
      let rows, top, sp = Span.with_ "obs.split" (fun () -> Layers.tail_split s !(ts.Wl.gens.Wl.reqs)) in
      (Obs.Sink.dropped s, rows, top, sp)
    | _ -> (0, 0, 0, Layers.zero_split)
  in
  let rungs, capacity = Span.with_ "capacity" (fun () -> Capacity.search k ~seed) in
  line "  capacity ladder (HP p99 <= %.0f us with failures as misses, committed >= %.0f%% of offered, %.0f virtual ms per rung):"
    Capacity.limit_us (Capacity.keep_up *. 100.) (Capacity.rung_ms k);
  List.iter
    (fun (r : Capacity.rung) ->
      line "    interval %6.2f us  offered %8.2f kTPS  committed %8.2f kTPS  HP p99 %10.2f us  failed %4d  %s"
        r.Capacity.interval_us r.Capacity.offered_ktps r.Capacity.achieved_ktps r.Capacity.p99_us
        r.Capacity.failed (if r.Capacity.pass then "pass" else "FAIL"))
    rungs;
  let complete = sink <> None && dropped = 0 in
  line "  engine floor: %d requests, %d micro-ops replayed" floor.Layers.requests
    (Layers.floor_ops floor);
  line "  traced split of %d committed NewOrders; top 1%% = %d requests%s" split_rows split_top
    (if complete then "" else " (INCOMPLETE: no sink on this workload or events dropped)");
  let setups = [ first.Wl.setup; traced.Wl.setup ] in
  let setup_med f = median (List.map f setups) in
  let fo = Layers.floor_ops floor in
  {
    checks = checks @ [ same_schedule "determinism-traced" ~expect traced ];
    metrics =
      [
        ("sim.events_per_txn", per_txn (float_of_int events), "count");
        ("sim.host_ns_per_event", Layers.div wall_ns (float_of_int events), "ns");
        ("sim.words_per_txn", per_txn first.Wl.words, "words");
        ("sim.eq_ns", prims.Layers.eq, "ns");
        ("engine.host_ns_per_op", Layers.div (Layers.floor_ns floor) (float_of_int fo), "ns");
        ("engine.words_per_op", Layers.div floor.Layers.words (float_of_int fo), "words");
      ]
      @ List.filteri (fun i _ -> i < 5)
          (Array.to_list
             (Array.mapi (fun i n -> ("engine.ns." ^ n, Layers.floor_ns_per_op floor i, "ns")) Layers.op_names))
      @ [
          ("scaffold.host_ns_per_txn", per_txn (wall_ns -. engine_ns), "ns");
          ("scaffold.model_ns_per_txn", per_txn model_ns, "ns");
          ("scaffold.residual_pct", pct (wall_ns -. model_ns), "%");
          ("share.engine_pct", pct engine_ns, "%");
          ("share.event_queue_pct", pct eventq_ns, "%");
          ("share.uintr_pct", pct uintr_ns, "%");
          ("share.histogram_pct", pct hist_ns, "%");
          ("prim.uintr_send_ns", prims.Layers.send, "ns");
          ("prim.histogram_record_ns", prims.Layers.hist, "ns");
          ("prim.btree_probe_ns", prims.Layers.btree, "ns");
        ]
      @ Layers.storage first @ Layers.uintr_and_workers first v @ Layers.durability first
      @ Layers.replication first @ Layers.maint first v @ Layers.shard first
      @ [
          ("capacity.ktps", capacity, "kTPS");
          ("setup.assemble_s", setup_med (fun s -> s.Wl.assemble_s), "s");
          ("setup.load_tpcc_s", setup_med (fun s -> s.Wl.load_tpcc_s), "s");
          ("setup.load_tpch_s", setup_med (fun s -> s.Wl.load_tpch_s), "s");
          ("setup.cluster_s", setup_med (fun s -> s.Wl.cluster_s), "s");
          ("obs.trace_overhead_pct", 100. *. (Layers.div traced.Wl.des_wall_s untraced_wall -. 1.), "%");
          ("obs.dropped", float_of_int dropped, "count");
          ("obs.split_complete", (if complete then 1. else 0.), "bool");
          ("tail.queue_share", split.Layers.queue, "ratio");
          ("tail.run_share", split.Layers.run, "ratio");
          ("tail.preempted_share", split.Layers.preempted, "ratio");
          ("tail.parked_share", split.Layers.parked, "ratio");
          ("tail.residual_share", split.Layers.residual, "ratio");
        ];
    attempted = v.Wl.hp_attempted;
    failed = v.Wl.hp_failed;
  }

(* -- Output ------------------------------------------------------------------------ *)

let metrics_json ms =
  Obs.Json.Obj
    (List.map
       (fun (n, v, u) -> (n, Obs.Json.Obj [ ("value", Obs.Json.Float v); ("unit", Obs.Json.String u) ]))
       ms)

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    Sys.mkdir d 0o755
  end

let write_trace k ~seed (o : outcome) =
  let dir = Filename.concat "perfbench" "out" in
  mkdir_p dir;
  let path = Filename.concat dir (Printf.sprintf "%s-seed%Ld.trace.json" (Wl.name k) seed) in
  let j =
    Obs.Json.Obj
      [
        ("workload", Obs.Json.String (Wl.name k));
        ("seed", Obs.Json.String (Int64.to_string seed));
        ("spans", Span.to_json ());
        ("metrics", metrics_json o.metrics);
      ]
  in
  let oc = open_out path in
  Obs.Json.to_channel ~minify:false oc j;
  close_out oc;
  line "  spans and per-layer metrics written to %s" path;
  line "  host self time by span:";
  List.iter (fun (name, (n, s)) -> line "    %-22s %3dx %8.3f s" name n s) (Span.self_times ())

let emit (o : outcome) =
  List.iter
    (fun (c : Checks.result) -> line "  check %-24s %s  %s" c.Checks.name (if c.Checks.ok then "ok  " else "FAIL") c.Checks.detail)
    o.checks;
  List.iter (fun (n, v, u) -> line "  %-30s %16.6g %s" n v u) o.metrics;
  let correct = List.for_all (fun (c : Checks.result) -> c.Checks.ok) o.checks in
  let j =
    Obs.Json.Obj
      [
        ("correct", Obs.Json.Bool correct);
        ("attempted", Obs.Json.Int o.attempted);
        ("failed", Obs.Json.Int o.failed);
        ("metrics", metrics_json o.metrics);
      ]
  in
  print_endline (Obs.Json.to_string j);
  if not correct then exit 1

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 10. and trace = ref (-1) in
  let spec =
    [
      ("--workload", Arg.Set_string workload, " htap | oltp_durable | shard_2pc");
      ("--seed", Arg.Set_int seed, " workload seed (>= 0)");
      ("--seconds", Arg.Set_float seconds, " measurement budget in host seconds");
      ("--trace", Arg.Set_int trace, " 0 = end-to-end metrics, 1 = per-layer metrics");
    ]
  in
  let fail msg =
    prerr_endline msg;
    prerr_endline ("usage: " ^ usage);
    exit 2
  in
  (try Arg.parse_argv Sys.argv spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage
   with Arg.Bad m | Arg.Help m -> fail m);
  let k = match Wl.of_name !workload with Some k -> k | None -> fail ("unknown workload " ^ !workload) in
  if !seed < 0 then fail "--seed must be given and >= 0";
  if !trace <> 0 && !trace <> 1 then fail "--trace must be 0 or 1";
  let seed = Int64.of_int !seed in
  let t_start = Unix.gettimeofday () in
  if !trace = 1 then Span.enable ();
  (* The first run of the process runs alone: under --trace 0 the first
     timing run, under --trace 1 the full run, without the segment probe
     since its allocation is counted. *)
  let timing =
    if !trace = 0 then begin
      Hostref.sample ();
      Some (Span.with_ "run.timing" (fun () -> rep ~horizon_ms:Wl.timing_ms k ~seed))
    end
    else None
  in
  let first = Span.with_ "run.first" (fun () -> rep ~segments:(timing <> None) k ~seed) in
  let peak_mb =
    float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6
  in
  let v = Wl.virt_of k first.Wl.node in
  print_run_header k first v;
  let checks = Span.with_ "checks" (fun () -> Checks.run_checks first) in
  Span.with_ "run.other" (fun () -> other_workload k ~seed);
  let checks = checks @ [ Span.with_ "inputs" (fun () -> inputs_differ k ~seed) ] in
  let o =
    match timing with
    | Some timing -> end_to_end k ~seed ~seconds:!seconds ~t_start ~timing ~first ~peak_mb ~checks
    | None ->
      let o = per_layer k ~seed ~first ~checks in
      write_trace k ~seed o;
      o
  in
  emit o
