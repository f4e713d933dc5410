(* Per-layer measurements for the traced run: the engine-only floor, the
   primitive timings, the virtual latency split rebuilt from the event
   sink, and the layer counters already exposed by [Runner.result],
   [Obs.Profiler] and [Shard.Cluster.stats]. *)

module Runner = Preemptdb.Runner
module Worker = Preemptdb.Worker
module P = Workload.Program

let ns () = Int64.to_float (Monotonic_clock.now ())
let div a b = if b = 0. then 0. else a /. b
let fdiv a b = div (float_of_int a) (float_of_int b)

let median xs =
  match List.sort compare xs with
  | [] -> 0.
  | s -> List.nth s (List.length s / 2)

(* -- Micro-op kinds ----------------------------------------------------------- *)

let op_names = [| "record_read"; "index_probe"; "scan_step"; "record_write"; "commit_latch"; "other" |]

let op_index = function
  | P.Record_read -> 0
  | P.Index_probe -> 1
  | P.Scan_step -> 2
  | P.Record_write -> 3
  | P.Commit_latch -> 4
  | _ -> 5

(* Cost of one pair of clock reads, subtracted from every timed resume. *)
let clock_overhead_ns =
  lazy
    (let n = 200_000 in
     let t0 = ns () in
     for _ = 1 to n do
       ignore (Sys.opaque_identity (Monotonic_clock.now ()))
     done;
     (ns () -. t0) /. float_of_int n)

(* -- Engine floor ---------------------------------------------------------------
   The workload's own seeded request stream, replayed through
   [Program.start]/[resume] with no DES, worker or scheduler: each request
   runs to completion, one at a time, and each resume is timed and keyed by
   the micro-op it was suspended at. *)

type floor = {
  requests : int;
  ops : int array;  (** per kind *)
  op_ns : float array;  (** total ns per kind *)
  words : float;
}

let floor_ops f = Array.fold_left ( + ) 0 f.ops
let floor_ns f = Array.fold_left ( +. ) 0. f.op_ns
let floor_ns_per_op f i = div f.op_ns.(i) (float_of_int f.ops.(i))

(* The first quarter of the run's generated stream, in generation order (so
   the generators redraw the same inputs).  The cluster generates its
   stream internally; its floor is the same NewOrder/Payment stream a
   single node would draw for the seed. *)
let floor_replay (k : Wl.kind) ~seed ~(labels : string list) =
  let eng = Storage.Engine.create () in
  let load_rng = Sim.Rng.create (Int64.add seed 1L) in
  let warehouses = match k with Wl.Shard_2pc -> 8 | Wl.Htap | Wl.Oltp_durable -> Wl.workers k in
  let tpcc = Workload.Tpcc_db.create eng (Workload.Tpcc_schema.small ~warehouses) in
  Workload.Tpcc_db.load tpcc load_rng;
  let tpch =
    match k with
    | Wl.Htap ->
      let db = Workload.Tpch_db.create eng Workload.Tpch_schema.default in
      Workload.Tpch_db.load db load_rng;
      Some db
    | Wl.Oltp_durable | Wl.Shard_2pc -> None
  in
  let g = Wl.make_gens ~seed ~tpcc ~tpch in
  let labels =
    match k with
    | Wl.Shard_2pc -> List.init 4000 (fun _ -> "")
    | Wl.Htap | Wl.Oltp_durable ->
      let n = List.length labels / 4 in
      List.filteri (fun i _ -> i < n) labels
  in
  let ops = Array.make (Array.length op_names) 0 in
  let op_ns = Array.make (Array.length op_names) 0. in
  let over = Lazy.force clock_overhead_ns in
  let w0 = Wl.words_allocated () in
  List.iteri
    (fun i label ->
      let req =
        match (label, g.Wl.lp) with
        | "Q2", Some lp -> lp ~worker:0 ~submitted_at:0L
        | _ -> g.Wl.hp ~submitted_at:0L
      in
      if label <> "" && label <> req.Preemptdb.Request.label then
        failwith "engine floor: replayed stream diverged from the run's";
      let env =
        {
          P.eng;
          worker = i mod warehouses;
          ctx = (if req.Preemptdb.Request.priority = Preemptdb.Request.Low then 0 else 1);
          cls = Uintr.Cls.create_area ();
          rng = req.Preemptdb.Request.rng;
        }
      in
      let rec go idx step_of =
        let t0 = Monotonic_clock.now () in
        let step = step_of () in
        let t1 = Monotonic_clock.now () in
        ops.(idx) <- ops.(idx) + 1;
        op_ns.(idx) <- op_ns.(idx) +. Int64.to_float (Int64.sub t1 t0) -. over;
        match step with
        | P.Finished _ -> ()
        | P.Pending (op, k) -> go (op_index op) (fun () -> P.resume k)
      in
      go 5 (fun () -> P.start req.Preemptdb.Request.prog env))
    labels;
  let words = Wl.words_allocated () -. w0 in
  { requests = List.length labels; ops; op_ns; words }

(* -- Primitive timings (host ns per call) ---------------------------------------- *)

let median_of n f = median (List.init n (fun _ -> f ()))

(* Event queue at the run's own peak depth: pop the minimum, push a
   replacement a little ahead, so the depth holds. *)
let eq_ns ~depth =
  let depth = max 16 depth in
  let q = Sim.Event_queue.create () in
  let t = ref 0 in
  for _ = 1 to depth do
    t := !t + 17;
    Sim.Event_queue.push_int q ~time:!t ()
  done;
  median_of 3 (fun () ->
      let iters = 200_000 in
      let t0 = ns () in
      for _ = 1 to iters do
        t := !t + 17;
        Sim.Event_queue.push_int q ~time:!t ();
        ignore (Sys.opaque_identity (Sim.Event_queue.pop_exn_int q))
      done;
      (ns () -. t0) /. float_of_int iters)

(* senduipi -> delivery through a fabric on its own DES, per send. *)
let uintr_send_ns () =
  median_of 3 (fun () ->
      let des = Sim.Des.create () in
      let fabric = Uintr.Fabric.create des ~costs:Uintr.Costs.default in
      let recv = Uintr.Receiver.create () in
      let idx = Uintr.Fabric.register fabric recv in
      let n = 50_000 in
      for i = 1 to n do
        Sim.Des.schedule_at_int des ~time:(i * 5000) (fun _ -> Uintr.Fabric.senduipi fabric idx)
      done;
      let t0 = ns () in
      Sim.Des.run des;
      (ns () -. t0) /. float_of_int n)

let hist_record_ns () =
  let h = Sim.Histogram.create () in
  let rng = Sim.Rng.create 7L in
  let xs = Array.init 4096 (fun _ -> Int64.of_int (Sim.Rng.int rng 1_000_000)) in
  median_of 3 (fun () ->
      let iters = 500_000 in
      let t0 = ns () in
      for i = 1 to iters do
        Sim.Histogram.record h (Array.unsafe_get xs (i land 4095))
      done;
      (ns () -. t0) /. float_of_int iters)

let btree_probe_ns () =
  let n = 100_000 in
  let tree = Storage.Btree.Int_tree.create () in
  for i = 0 to n - 1 do
    ignore (Storage.Btree.Int_tree.insert tree (i * 7) i)
  done;
  let rng = Sim.Rng.create 9L in
  let keys = Array.init 4096 (fun _ -> 7 * Sim.Rng.int rng n) in
  median_of 3 (fun () ->
      let iters = 500_000 in
      let t0 = ns () in
      for i = 1 to iters do
        ignore (Sys.opaque_identity (Storage.Btree.Int_tree.find tree (Array.unsafe_get keys (i land 4095))))
      done;
      (ns () -. t0) /. float_of_int iters)

type prims = { eq : float; send : float; hist : float; btree : float }

let primitives ~depth =
  {
    eq = Span.with_ "prim.event_queue" (fun () -> eq_ns ~depth);
    send = Span.with_ "prim.uintr_send" uintr_send_ns;
    hist = Span.with_ "prim.histogram" hist_record_ns;
    btree = Span.with_ "prim.btree" btree_probe_ns;
  }

(* -- Virtual latency split from the sink ------------------------------------------
   For each committed NewOrder: queue wait (submit -> first begin),
   running (begin -> commit minus the rest), preempted-away (its context
   switched out while it held it), parked (commit/gate park -> unpark),
   and the residual (end-to-end minus the four, i.e. commit event ->
   recorded finish). *)

type split = { queue : float; run : float; preempted : float; parked : float; residual : float }

let zero_split = { queue = 0.; run = 0.; preempted = 0.; parked = 0.; residual = 0. }

let tail_split sink (reqs : Preemptdb.Request.t list) =
  let begin_t = Hashtbl.create 4096 and commit_t = Hashtbl.create 4096 in
  let parked = Hashtbl.create 4096 and away = Hashtbl.create 4096 in
  let add tbl id v = Hashtbl.replace tbl id (v +. Option.value ~default:0. (Hashtbl.find_opt tbl id)) in
  let cur = Hashtbl.create 64 (* (wid, ctx) -> running request id *) in
  let away_since = Hashtbl.create 64 (* (wid, ctx) -> (id, time) *) in
  let parks = Hashtbl.create 256 (* lsn/gate -> (id, time) *) in
  let owner w c = Hashtbl.find_opt cur (w, c) in
  List.iter
    (fun (e : Obs.Sink.entry) ->
      let t = Int64.to_float e.Obs.Sink.time and w = e.Obs.Sink.wid and c = e.Obs.Sink.ctx in
      match e.Obs.Sink.ev with
      | Obs.Event.Txn_begin { id; _ } ->
        if not (Hashtbl.mem begin_t id) then Hashtbl.replace begin_t id t;
        Hashtbl.replace cur (w, c) id
      | Obs.Event.Txn_commit { id; _ } ->
        Hashtbl.replace commit_t id t;
        Hashtbl.remove cur (w, c)
      | Obs.Event.Txn_abort _ | Obs.Event.Txn_exhausted _ -> Hashtbl.remove cur (w, c)
      | Obs.Event.Commit_park { lsn } ->
        (match owner w c with
        | Some id -> Hashtbl.replace parks lsn (id, t)
        | None -> ());
        Hashtbl.remove cur (w, c)
      | Obs.Event.Commit_unpark { lsn; _ } -> (
        match Hashtbl.find_opt parks lsn with
        | Some (id, t0) ->
          Hashtbl.remove parks lsn;
          add parked id (t -. t0);
          Hashtbl.replace cur (w, c) id
        | None -> ())
      | Obs.Event.Passive_switch { from_ctx; to_ctx; _ }
      | Obs.Event.Active_switch { from_ctx; to_ctx; _ } ->
        (match owner w from_ctx with
        | Some id -> Hashtbl.replace away_since (w, from_ctx) (id, t)
        | None -> ());
        (match Hashtbl.find_opt away_since (w, to_ctx) with
        | Some (id, t0) ->
          Hashtbl.remove away_since (w, to_ctx);
          if owner w to_ctx = Some id then add away id (t -. t0)
        | None -> ())
      | _ -> ())
    (Obs.Sink.dump sink);
  let rows =
    List.filter_map
      (fun (r : Preemptdb.Request.t) ->
        match (r.Preemptdb.Request.outcome, r.Preemptdb.Request.finished_at) with
        | Some (P.Committed _), Some fin when r.Preemptdb.Request.label = "NewOrder" -> (
          let id = r.Preemptdb.Request.id in
          match (Hashtbl.find_opt begin_t id, Hashtbl.find_opt commit_t id) with
          | Some b, Some cm ->
            let sub = Int64.to_float r.Preemptdb.Request.submitted_at in
            let e2e = Int64.to_float fin -. sub in
            let pk = Option.value ~default:0. (Hashtbl.find_opt parked id) in
            let aw = Option.value ~default:0. (Hashtbl.find_opt away id) in
            let queue = b -. sub in
            let run = cm -. b -. pk -. aw in
            Some
              ( e2e,
                { queue; run; preempted = aw; parked = pk; residual = e2e -. queue -. run -. pk -. aw } )
          | _ -> None)
        | _ -> None)
      reqs
  in
  (* composition of the slowest 1 % (at least one request) *)
  let sorted = List.sort (fun (a, _) (b, _) -> compare b a) rows in
  let n = max 1 (List.length sorted / 100) in
  let top = List.filteri (fun i _ -> i < n) sorted in
  let total = List.fold_left (fun a (e, _) -> a +. e) 0. top in
  let sum f = div (List.fold_left (fun a (_, s) -> a +. f s) 0. top) total in
  ( List.length rows,
    List.length top,
    {
      queue = sum (fun s -> s.queue);
      run = sum (fun s -> s.run);
      preempted = sum (fun s -> s.preempted);
      parked = sum (fun s -> s.parked);
      residual = sum (fun s -> s.residual);
    } )

(* -- Layer counters ------------------------------------------------------------------ *)

type m = string * float * string

let workers_of (r : Wl.run) =
  match r.Wl.node with
  | Wl.Single s -> Array.to_list s.Wl.asm.Runner.workers
  | Wl.Cluster c ->
    List.concat (List.init (Shard.Cluster.n_shards c) (fun sid -> Array.to_list (Shard.Cluster.workers c ~sid)))

let engine_stats (r : Wl.run) =
  match r.Wl.node with
  | Wl.Single s -> [ s.Wl.res.Runner.engine_stats ]
  | Wl.Cluster c ->
    List.init (Shard.Cluster.n_shards c) (fun sid -> Storage.Engine.stats (Shard.Cluster.engine c ~sid))

let bucket_share (r : Wl.run) buckets =
  match r.Wl.node with
  | Wl.Single s ->
    let p = s.Wl.res.Runner.profile in
    let totals = Obs.Profiler.totals p in
    let get b = Option.value ~default:0L (List.assoc_opt (Obs.Profiler.bucket_name b) totals) in
    let busy = Int64.to_float s.Wl.res.Runner.workers.Runner.busy_cycles in
    div (List.fold_left (fun a b -> a +. Int64.to_float (get b)) 0. buckets) busy
  | Wl.Cluster _ -> 0.

let storage (r : Wl.run) : m list =
  let es = engine_stats r in
  let sum f = List.fold_left (fun a (e : Storage.Engine.stats) -> a + f e) 0 es in
  let commits = sum (fun e -> e.Storage.Engine.commits) in
  let aborts = sum Storage.Engine.total_aborts in
  [
    ("storage.abort_ratio", fdiv aborts (commits + aborts), "ratio");
    ("storage.reads_per_commit", fdiv (sum (fun e -> e.Storage.Engine.reads)) commits, "count");
    ( "storage.writes_per_commit",
      fdiv (sum (fun e -> e.Storage.Engine.updates + e.Storage.Engine.inserts + e.Storage.Engine.deletes)) commits,
      "count" );
  ]

let p99_us clock h =
  if Sim.Histogram.is_empty h then 0.
  else Sim.Clock.us_of_cycles clock (Sim.Histogram.percentile h 99.)

let uintr_and_workers (r : Wl.run) (v : Wl.virt) : m list =
  let ws = List.map Worker.stats (workers_of r) in
  let sum f = List.fold_left (fun a s -> a + f s) 0 ws in
  let clock = Wl.clock_of r.Wl.node in
  let horizon = Int64.to_float (Wl.horizon_of r.Wl.node) in
  let sends, s2r =
    match r.Wl.node with
    | Wl.Single s ->
      ( s.Wl.res.Runner.uintr_sends,
        p99_us clock (Uintr.Stages.send_to_resume s.Wl.res.Runner.stages) )
    | Wl.Cluster _ -> (0, 0.)
  in
  let cs = Wl.classes r.Wl.node in
  let no_wait =
    match List.assoc_opt "NewOrder" cs with Some c -> p99_us clock c.Wl.sched | None -> 0.
  in
  let recognized = sum (fun s -> s.Worker.uintr_recognized) in
  [
    ("uintr.sends", float_of_int sends, "count");
    ("uintr.passive_switches", float_of_int (sum (fun s -> s.Worker.passive_switches)), "count");
    ( "uintr.reject_ratio",
      fdiv (sum (fun s -> s.Worker.drops_region + s.Worker.drops_window)) recognized,
      "ratio" );
    ("uintr.send_to_resume_p99_us", s2r, "us");
    ( "uintr.switch_cycle_share",
      bucket_share r [ Obs.Profiler.Switch_passive; Obs.Profiler.Switch_active ],
      "ratio" );
    ("sched.neworder_wait_p99_us", no_wait, "us");
    ("sched.lp_ktps", v.Wl.lp_ktps, "kTPS");
    ("sched.fail_pct", 100. *. fdiv v.Wl.hp_failed v.Wl.hp_attempted, "%");
    ( "worker.busy_share",
      div (float_of_int (sum (fun s -> s.Worker.busy_cycles))) (horizon *. float_of_int (List.length ws)),
      "ratio" );
    ("worker.queue_op_share", bucket_share r [ Obs.Profiler.Queue_op ], "ratio");
    ("worker.retries_per_txn", fdiv (sum (fun s -> s.Worker.retries)) v.Wl.committed_all, "count");
  ]

let durability (r : Wl.run) : m list =
  let clock = Wl.clock_of r.Wl.node in
  let ws = List.map Worker.stats (workers_of r) in
  let parks = List.fold_left (fun a s -> a + s.Worker.dur_parks) 0 ws in
  let cwait =
    match List.assoc_opt "NewOrder" (Wl.classes r.Wl.node) with
    | Some c -> p99_us clock c.Wl.cwait
    | None -> 0.
  in
  let commits, flushes, bytes, busy =
    match r.Wl.node with
    | Wl.Single { res = { Runner.durability = Some d; _ }; _ } ->
      ( d.Runner.ds_log_commits,
        d.Runner.ds_flushes,
        Int64.to_float d.Runner.ds_device_bytes,
        Int64.to_float d.Runner.ds_device_busy )
    | Wl.Single _ -> (0, 0, 0., 0.)
    | Wl.Cluster c ->
      let n = Shard.Cluster.n_shards c in
      let commits =
        List.fold_left ( + ) 0 (List.init n (fun sid -> Durability.Log.committed (Shard.Cluster.log c ~sid)))
      in
      let flushes =
        Array.fold_left (fun a s -> a + s.Shard.Cluster.ss_flushes) 0 (Shard.Cluster.stats c)
      in
      (commits, flushes, 0., 0.)
  in
  let horizon = Int64.to_float (Wl.horizon_of r.Wl.node) in
  [
    ("dur.txns_per_flush", fdiv commits flushes, "count");
    ("dur.bytes_per_commit", div bytes (float_of_int commits), "bytes");
    ("dur.device_busy_share", div busy horizon, "ratio");
    ("dur.commit_wait_p99_us", cwait, "us");
    ("dur.parks_per_commit", fdiv parks commits, "count");
  ]

let replication (r : Wl.run) : m list =
  match r.Wl.node with
  | Wl.Single { res = { Runner.replication = Some rs; durability = Some d; _ }; _ } ->
    [
      ( "repl.lag_p99_us",
        (if Sim.Histogram.is_empty rs.Runner.rs_lag_us_hist then 0.
         else Int64.to_float (Sim.Histogram.percentile rs.Runner.rs_lag_us_hist 99.)),
        "us" );
      ("repl.resent_ratio", fdiv rs.Runner.rs_resent rs.Runner.rs_records, "ratio");
      ("repl.bytes_per_commit", fdiv rs.Runner.rs_ship_bytes d.Runner.ds_log_commits, "bytes");
    ]
  | _ -> [ ("repl.lag_p99_us", 0., "us"); ("repl.resent_ratio", 0., "ratio"); ("repl.bytes_per_commit", 0., "bytes") ]

let maint (r : Wl.run) (v : Wl.virt) : m list =
  match r.Wl.node with
  | Wl.Single { res = { Runner.maint = Some ms; _ }; _ } ->
    [
      ("maint.reclaimed_per_commit", fdiv ms.Runner.ms_versions_reclaimed v.Wl.committed_all, "count");
      ( "maint.chain_len_p99",
        (if Sim.Histogram.is_empty ms.Runner.ms_chain_hist then 0.
         else Int64.to_float (Sim.Histogram.percentile ms.Runner.ms_chain_hist 99.)),
        "count" );
      ("maint.max_epoch_lag", float_of_int ms.Runner.ms_max_lag, "count");
      ("maint.gc_cycle_share", bucket_share r [ Obs.Profiler.Gc ], "ratio");
    ]
  | _ ->
    [
      ("maint.reclaimed_per_commit", 0., "count");
      ("maint.chain_len_p99", 0., "count");
      ("maint.max_epoch_lag", 0., "count");
      ("maint.gc_cycle_share", 0., "ratio");
    ]

let shard (r : Wl.run) : m list =
  match r.Wl.node with
  | Wl.Cluster c ->
    let st = Shard.Cluster.stats c in
    let sum f = Array.fold_left (fun a s -> a + f s) 0 st in
    let started = sum (fun s -> s.Shard.Cluster.ss_xs_started) in
    let hp_committed = List.fold_left (fun a l -> a + Shard.Report.label_committed c l) 0 Shard.Cluster.coordinator_labels in
    [
      ("shard.xs_commit_ratio", fdiv (sum (fun s -> s.Shard.Cluster.ss_xs_committed)) started, "ratio");
      ("shard.coord_timeouts", float_of_int (sum (fun s -> s.Shard.Cluster.ss_coord_timeouts)), "count");
      ("shard.gate_parks_per_xs", fdiv (sum (fun s -> s.Shard.Cluster.ss_gate_parks)) started, "count");
      ("shard.link_bytes_per_txn", fdiv (sum (fun s -> s.Shard.Cluster.ss_link_bytes)) hp_committed, "bytes");
      ("shard.parked_left", float_of_int (sum (fun s -> s.Shard.Cluster.ss_parked_left)), "count");
    ]
  | Wl.Single _ ->
    [
      ("shard.xs_commit_ratio", 0., "ratio");
      ("shard.coord_timeouts", 0., "count");
      ("shard.gate_parks_per_xs", 0., "count");
      ("shard.link_bytes_per_txn", 0., "bytes");
      ("shard.parked_left", 0., "count");
    ]

let des_max_queue (r : Wl.run) =
  match r.Wl.node with
  | Wl.Single s -> s.Wl.res.Runner.des_max_queue
  | Wl.Cluster c -> Sim.Des.max_queue_depth (Shard.Cluster.des c)

(* Histogram records a run makes: three per finished request class sample
   (end-to-end, scheduling, commit wait) plus one delivery sample per
   send — the count side of the histogram term in the host-time model. *)
let hist_records (r : Wl.run) =
  let cs = Wl.classes r.Wl.node in
  List.fold_left
    (fun a (_, c) ->
      a + Sim.Histogram.count c.Wl.e2e + Sim.Histogram.count c.Wl.sched + Sim.Histogram.count c.Wl.cwait)
    0 cs
  + match r.Wl.node with Wl.Single s -> s.Wl.res.Runner.uintr_sends | Wl.Cluster _ -> 0
