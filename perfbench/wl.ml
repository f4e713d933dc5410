(* The three benchmark workloads, built from outside the library with its
   public entry points only: [Runner.assemble], the TPC-C / TPC-H loaders,
   [Sched_thread.create] with generators seeded here, [Runner.finish], and
   [Shard.Cluster.create/run].  Owning the construction lets the benchmark
   own the workload seed, time set-up apart from the run, keep the post-run
   database for the oracles, and record the generated request stream. *)

module Config = Preemptdb.Config
module Runner = Preemptdb.Runner
module Request = Preemptdb.Request
module Metrics = Preemptdb.Metrics
module Sched_thread = Preemptdb.Sched_thread
module P = Workload.Program

type kind = Htap | Oltp_durable | Shard_2pc

let all = [ Htap; Oltp_durable; Shard_2pc ]

let name = function
  | Htap -> "htap"
  | Oltp_durable -> "oltp_durable"
  | Shard_2pc -> "shard_2pc"

let of_name s = List.find_opt (fun k -> name k = s) all

(* -- Fixed workload shapes ---------------------------------------------------
   [interval_us] is the high-priority arrival tick; each tick offers
   [batch] requests per node ([n_workers * hp_queue_size] on one node, one
   per shard tick in the cluster).  [horizon_ms] is the measured run. *)

let workers = function Htap | Oltp_durable -> 8 | Shard_2pc -> 2
let shards = function Shard_2pc -> 4 | Htap | Oltp_durable -> 1
let interval_us = function Htap -> 1000. | Oltp_durable -> 40. | Shard_2pc -> 18.
let horizon_ms = function Htap -> 80. | Oltp_durable -> 40. | Shard_2pc -> 100.

(* Host speed is timed over the first [timing_ms] of the schedule, short
   enough to repeat many times within a benchmark run, in slices of
   [segment_us] virtual µs; see [segment_probe]. *)
let timing_ms = function Htap | Oltp_durable -> 20. | Shard_2pc -> 40.
let segment_us = 200.

let batch k =
  match k with
  | Shard_2pc -> 1
  | Htap | Oltp_durable -> workers k * (Config.default ()).Config.hp_queue_size

(* Offered high-priority load, requests per virtual ms (= kTPS). *)
let offered_ktps k ~interval_us =
  float_of_int (batch k * shards k) *. 1000. /. interval_us

let config k ~seed =
  let base =
    { (Config.default ~policy:(Config.Preempt 1.0) ~n_workers:(workers k) ()) with
      Config.seed }
  in
  match k with
  | Htap -> base
  | Oltp_durable ->
    (* group commit + semi-sync standby (no crash) + epoch reclamation as
       preemptible low-priority GC chunks *)
    Config.with_reclaim (Config.with_replication base)
  | Shard_2pc ->
    Config.with_shard
      ~shard:{ Config.default_shard with Config.sh_shards = 4; sh_cross_pct = 10 }
      base

let hp_labels = function
  | Shard_2pc -> Shard.Cluster.coordinator_labels
  | Htap | Oltp_durable -> [ "NewOrder"; "Payment" ]

let lp_label = function Htap -> Some "Q2" | Oltp_durable -> Some "GC" | Shard_2pc -> None

(* -- Seeded request generators ------------------------------------------------
   One stream per run, drawn in call order: the run and the engine-floor
   replay call them in the same order and so get the same inputs.  Every
   generated label is logged for that replay. *)

type gens = {
  hp : submitted_at:int64 -> Request.t;
  lp : (worker:int -> submitted_at:int64 -> Request.t) option;
  log : string list ref;  (** generated labels, newest first *)
  reqs : Request.t list ref;  (** generated requests, newest first *)
}

let make_gens ~seed ~(tpcc : Workload.Tpcc_db.t) ~(tpch : Workload.Tpch_db.t option) =
  let gen_rng = Sim.Rng.create (Int64.add seed 2L) in
  let warehouses = tpcc.Workload.Tpcc_db.cfg.Workload.Tpcc_schema.warehouses in
  (* ids far above the library's own process-global request counter (GC
     chunks draw from it), so sink events never confuse the two *)
  let next_id = ref (1 lsl 40) and log = ref [] and reqs = ref [] in
  let make ~label ~priority ~prog ~rng ~submitted_at =
    incr next_id;
    let r = Request.make ~id:!next_id ~label ~priority ~prog ~rng ~submitted_at in
    log := label :: !log;
    reqs := r :: !reqs;
    r
  in
  let hp ~submitted_at =
    let rng = Sim.Rng.split gen_rng in
    let kind = if Sim.Rng.bool gen_rng then Workload.Tpcc.New_order else Workload.Tpcc.Payment in
    let prog env =
      Workload.Tpcc.program tpcc kind ~home_w:((env.P.worker mod warehouses) + 1) env
    in
    make ~label:(Workload.Tpcc.kind_to_string kind) ~priority:Request.High ~prog ~rng ~submitted_at
  in
  let lp =
    Option.map
      (fun db ~worker:_ ~submitted_at ->
        let rng = Sim.Rng.split gen_rng in
        make ~label:"Q2" ~priority:Request.Low ~prog:(Workload.Tpch_q2.random_program db) ~rng
          ~submitted_at)
      tpch
  in
  { hp; lp; log; reqs }

(* -- One run ------------------------------------------------------------------ *)

type setup = {
  assemble_s : float;  (** [Runner.assemble] *)
  load_tpcc_s : float;
  load_tpch_s : float;
  cluster_s : float;  (** [Shard.Cluster.create], loaders included *)
}

let setup_total s = s.assemble_s +. s.load_tpcc_s +. s.load_tpch_s +. s.cluster_s

type single = {
  asm : Runner.assembly;
  tpcc : Workload.Tpcc_db.t;
  gens : gens;
  res : Runner.result;
}

type node = Single of single | Cluster of Shard.Cluster.t

type run = {
  kind : kind;
  seed : int64;
  setup : setup;
  node : node;
  des_wall_s : float;  (** host seconds inside the DES run *)
  seg_wall_s : float list;  (** host seconds per virtual ms of the DES run *)
  words : float;  (** words allocated during the DES run *)
}

let now = Unix.gettimeofday

let timed f =
  let t0 = now () in
  let x = f () in
  (x, now () -. t0)

let words_allocated () =
  let s = Gc.quick_stat () in
  s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words

(* Host wall time per [segment_us] of virtual time, read from the DES
   probe (an observer: it cannot change the schedule).  Runs of one seed
   simulate one schedule, so segment i holds the same work in each; its
   fastest run is its least-disturbed time on a shared machine.  The probe
   boxes each event's time, so runs that count allocated words go
   without it. *)
let segment_probe ~on des =
  if not on then fun () -> []
  else
  let step = Sim.Clock.cycles_of_us (Sim.Des.clock des) segment_us in
  (* the clock starts at the first event, after [Runner.finish] has
     captured base images and started the daemons *)
  let next = ref step and last = ref nan and segs = ref [] in
  Sim.Des.set_probe des
    (Some
       (fun ~time ~seq:_ ->
         if Float.is_nan !last then last := now ()
         else if Int64.compare time !next >= 0 then begin
           let t = now () in
           segs := (t -. !last) :: !segs;
           last := t;
           while Int64.compare time !next >= 0 do
             next := Int64.add !next step
           done
         end));
  fun () ->
    Sim.Des.set_probe des None;
    List.rev !segs

let clock_of = function
  | Single s -> s.res.Runner.clock
  | Cluster c -> Shard.Cluster.clock c

let horizon_of = function
  | Single s -> s.res.Runner.horizon
  | Cluster c -> Shard.Cluster.horizon c

let horizon_us r = Sim.Clock.us_of_cycles (clock_of r.node) (horizon_of r.node)

let events r =
  match r.node with
  | Single s -> s.res.Runner.events
  | Cluster c -> Shard.Cluster.events_processed c

(* [obs] attaches a sink (single-node workloads only: the cluster has no
   sink argument); [op_probe] counts micro-ops per kind on every worker. *)
let run ?obs ?op_probe ?(segments = true) k ~seed ~interval_us ~horizon_ms =
  (* every run starts from a collected heap; no compaction, see README *)
  Gc.full_major ();
  let cfg = config k ~seed in
  let install_probe ws =
    match op_probe with
    | Some f -> Array.iter (fun w -> Preemptdb.Worker.set_op_probe w (Some f)) ws
    | None -> ()
  in
  match k with
  | Htap | Oltp_durable ->
    let asm, assemble_s = timed (fun () -> Runner.assemble ?obs cfg) in
    let load_rng = Sim.Rng.create (Int64.add seed 1L) in
    let tpcc, load_tpcc_s =
      timed (fun () ->
          let db =
            Workload.Tpcc_db.create asm.Runner.eng
              (Workload.Tpcc_schema.small ~warehouses:(workers k))
          in
          Workload.Tpcc_db.load db load_rng;
          db)
    in
    let tpch, load_tpch_s =
      timed (fun () ->
          match k with
          | Htap ->
            let db = Workload.Tpch_db.create asm.Runner.eng Workload.Tpch_schema.default in
            Workload.Tpch_db.load db load_rng;
            Some db
          | Oltp_durable | Shard_2pc -> None)
    in
    let gens = make_gens ~seed ~tpcc ~tpch in
    let clock = Sim.Des.clock asm.Runner.des in
    let sched =
      Sched_thread.create ~des:asm.Runner.des ~cfg ~fabric:asm.Runner.fabric
        ~metrics:asm.Runner.metrics ~workers:asm.Runner.workers ?obs ?lp_gen:gens.lp
        ?maint:(Runner.maint_arg asm cfg) ~hp_gen:gens.hp
        ~arrival_interval:(Sim.Clock.cycles_of_us clock interval_us)
        ()
    in
    install_probe asm.Runner.workers;
    let segs = segment_probe ~on:segments asm.Runner.des in
    let w0 = words_allocated () in
    let res = Runner.finish asm cfg sched ~horizon:(Sim.Clock.cycles_of_ms clock horizon_ms) in
    let words = words_allocated () -. w0 in
    {
      kind = k;
      seed;
      setup = { assemble_s; load_tpcc_s; load_tpch_s; cluster_s = 0. };
      node = Single { asm; tpcc; gens; res };
      des_wall_s = res.Runner.wall_s;
      seg_wall_s = segs ();
      words;
    }
  | Shard_2pc ->
    let cl, cluster_s =
      timed (fun () -> Shard.Cluster.create ~cfg ~arrival_interval_us:interval_us ())
    in
    for sid = 0 to Shard.Cluster.n_shards cl - 1 do
      install_probe (Shard.Cluster.workers cl ~sid)
    done;
    let segs = segment_probe ~on:segments (Shard.Cluster.des cl) in
    let w0 = words_allocated () in
    Shard.Cluster.run cl ~horizon_sec:(horizon_ms /. 1000.);
    let words = words_allocated () -. w0 in
    {
      kind = k;
      seed;
      setup = { assemble_s = 0.; load_tpcc_s = 0.; load_tpch_s = 0.; cluster_s };
      node = Cluster cl;
      des_wall_s = Shard.Cluster.wall_s cl;
      seg_wall_s = segs ();
      words;
    }

(* -- Virtual (modeled) results ---------------------------------------------- *)

(* Per-class statistics, merged across shards. *)
type cls = {
  e2e : Sim.Histogram.t;
  sched : Sim.Histogram.t;
  cwait : Sim.Histogram.t;
  mutable committed : int;
  mutable aborted : int;
  mutable aborted_user : int;
  mutable shed : int;
}

let metrics_of = function
  | Single s -> [ s.res.Runner.metrics ]
  | Cluster c -> List.init (Shard.Cluster.n_shards c) (fun sid -> Shard.Cluster.metrics c ~sid)

let classes node =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun m ->
      List.iter
        (fun (label, (c : Metrics.class_stats)) ->
          let d =
            match Hashtbl.find_opt tbl label with
            | Some d -> d
            | None ->
              let d =
                {
                  e2e = Sim.Histogram.create ();
                  sched = Sim.Histogram.create ();
                  cwait = Sim.Histogram.create ();
                  committed = 0;
                  aborted = 0;
                  aborted_user = 0;
                  shed = 0;
                }
              in
              Hashtbl.replace tbl label d;
              d
          in
          Sim.Histogram.merge_into ~src:c.Metrics.end_to_end ~dst:d.e2e;
          Sim.Histogram.merge_into ~src:c.Metrics.scheduling ~dst:d.sched;
          Sim.Histogram.merge_into ~src:c.Metrics.commit_wait ~dst:d.cwait;
          d.committed <- d.committed + c.Metrics.committed;
          d.aborted <- d.aborted + c.Metrics.aborted;
          d.aborted_user <- d.aborted_user + c.Metrics.aborted_user;
          d.shed <- d.shed + c.Metrics.shed)
        (Metrics.classes m))
    (metrics_of node);
  List.sort compare (Hashtbl.fold (fun l d acc -> (l, d) :: acc) tbl [])

let drops node = List.fold_left (fun a m -> a + Metrics.drops m) 0 (metrics_of node)

(* A request failed when it ended without the outcome its input asked for:
   any terminal abort except TPC-C's specified 1 % NewOrder rollback (a
   user abort of a local class), any deadline shed, any admission drop.
   Cross-shard classes have no specified rollback: every terminal abort is
   a failed 2PC. *)
let failed_of label (c : cls) =
  let spec_rollback =
    if label = "NewOrderX" || label = "PaymentX" then 0 else c.aborted_user
  in
  c.aborted - spec_rollback + c.shed

type virt = {
  no_samples : int;
  no_p50_us : float;
  no_p99_us : float;
  hp_ktps : float;
  hp_p99_us : float;  (** failures counted as misses *)
  hp_attempted : int;
  hp_failed : int;
  lp_ktps : float;
  committed_all : int;  (** every class, participants included *)
}

(* The [pct] percentile of a latency histogram, interpolated linearly
   across the ranks that share its bucket, so it moves with the counts
   instead of snapping to a bucket bound (a bucket spans at most 1/32 of
   its upper bound).  The histogram is read through [percentile] alone:
   the value at rank r is [percentile (100 (r - 1/2) / n)]. *)
let pct_interp h pct =
  let n = Sim.Histogram.count h in
  let at r = Int64.to_float (Sim.Histogram.percentile h (100. *. (float_of_int r -. 0.5) /. float_of_int n)) in
  let r = max 1 (min n (int_of_float (ceil (pct /. 100. *. float_of_int n)))) in
  let v = at r in
  (* [search lo hi] narrows to the boundary where [at] leaves [v] *)
  let rec first lo hi = if lo >= hi then lo else let m = (lo + hi) / 2 in if at m < v then first (m + 1) hi else first lo m in
  let rec last lo hi = if lo >= hi then lo else let m = (lo + hi + 1) / 2 in if at m > v then last lo (m - 1) else last m hi in
  let a = first 1 r and b = last r n in
  let below = if a > 1 then at (a - 1) else Int64.to_float (Sim.Histogram.min_value h) -. 1. in
  let lower = Float.max below (v -. (v /. 32.)) in
  lower +. ((v -. lower) *. (float_of_int (r - a) +. 0.5) /. float_of_int (b - a + 1))

(* The [pct] percentile of [h] with [missing] extra samples at +infinity:
   a failed request misses every latency limit.  [infinity] when the
   misses alone reach past the percentile. *)
let pct_with_misses h ~missing pct =
  let n = Sim.Histogram.count h in
  if n = 0 then infinity
  else
    let p = pct *. float_of_int (n + missing) /. float_of_int n in
    if p > 100. then infinity else pct_interp h p

let virt_of k node =
  let clock = clock_of node in
  let horizon_ms = Sim.Clock.ms_of_cycles clock (horizon_of node) in
  let us c = Sim.Clock.us_of_cycles clock (Int64.of_float c) in
  let cs = classes node in
  let hp = List.filter (fun (l, _) -> List.mem l (hp_labels k)) cs in
  let hp_hist = Sim.Histogram.create () in
  List.iter (fun (_, c) -> Sim.Histogram.merge_into ~src:c.e2e ~dst:hp_hist) hp;
  let sum f = List.fold_left (fun a (l, c) -> a + f l c) 0 hp in
  let dr = drops node in
  let hp_failed = sum failed_of + dr in
  let no =
    match List.assoc_opt "NewOrder" cs with
    | Some c -> c.e2e
    | None -> Sim.Histogram.create ()
  in
  let no_pct p = if Sim.Histogram.is_empty no then 0. else us (pct_interp no p) in
  let lp_committed =
    match lp_label k with
    | Some l -> (match List.assoc_opt l cs with Some c -> c.committed | None -> 0)
    | None -> 0
  in
  {
    no_samples = Sim.Histogram.count no;
    no_p50_us = no_pct 50.;
    no_p99_us = no_pct 99.;
    hp_ktps = float_of_int (sum (fun _ c -> c.committed)) /. horizon_ms;
    hp_p99_us = us (pct_with_misses hp_hist ~missing:hp_failed 99.);
    hp_attempted = sum (fun _ c -> c.committed + c.aborted + c.shed) + dr;
    hp_failed;
    lp_ktps = float_of_int lp_committed /. horizon_ms;
    committed_all = List.fold_left (fun a (_, c) -> a + c.committed) 0 cs;
  }

(* Everything the schedule determines, folded into one digest: two runs
   with equal fingerprints simulated the same schedule. *)
let fingerprint node =
  let cs =
    List.map
      (fun (l, c) ->
        ( l,
          c.committed,
          c.aborted,
          c.shed,
          Sim.Histogram.count c.e2e,
          Sim.Histogram.total c.e2e,
          Sim.Histogram.total c.sched,
          Sim.Histogram.total c.cwait ))
      (classes node)
  in
  let rest =
    match node with
    | Single s ->
      let r = s.res in
      Marshal.to_string
        ( r.Runner.events,
          r.Runner.workers,
          r.Runner.engine_stats,
          r.Runner.uintr_sends,
          r.Runner.backlog_left,
          r.Runner.generated_hp,
          r.Runner.generated_lp,
          r.Runner.generated_gc )
        []
    | Cluster c ->
      Marshal.to_string (Shard.Cluster.events_processed c, Shard.Cluster.stats c) []
  in
  Digest.to_hex (Digest.string (Marshal.to_string (cs, drops node) [] ^ rest))

(* The first [n] inputs a seed generates, without running them: labels
   and the first draw of each request's private stream.  The cluster draws
   its stream internally, so it is fingerprinted by a 1 ms run. *)
let inputs_fingerprint k ~seed =
  match k with
  | Htap | Oltp_durable ->
    let eng = Storage.Engine.create () in
    let tpcc = Workload.Tpcc_db.create eng (Workload.Tpcc_schema.small ~warehouses:1) in
    let g = make_gens ~seed ~tpcc ~tpch:None in
    let b = Buffer.create 1024 in
    for _ = 1 to 256 do
      let r = g.hp ~submitted_at:0L in
      Buffer.add_string b r.Request.label;
      Buffer.add_string b (Int64.to_string (Sim.Rng.next_int64 (Sim.Rng.copy r.Request.rng)))
    done;
    Digest.to_hex (Digest.string (Buffer.contents b))
  | Shard_2pc ->
    let r = run k ~seed ~interval_us:(interval_us k) ~horizon_ms:1. in
    fingerprint r.node
