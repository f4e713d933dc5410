(* Golden runs: one short, seeded run of every workload driver and of a
   2-shard cluster, each reduced to a fingerprint
   (DES events processed, committed/aborted per metrics class, NewOrder
   p99 end-to-end latency in cycles) and compared against values pinned
   from a known-good build.  The simulator is deterministic, so any
   difference means the schedule moved: a refactor that should be
   behaviour-preserving must pass this file without re-pinning. *)

module Config = Preemptdb.Config
module Metrics = Preemptdb.Metrics
module Runner = Preemptdb.Runner
module Cluster = Shard.Cluster

let small_tpch = { Workload.Tpch_schema.default with Workload.Tpch_schema.parts = 3000 }
let base ?(workers = 2) () = Config.default ~policy:(Config.Preempt 1.0) ~n_workers:workers ()

(* "events=N Label:committed/aborted ... no_p99=C", classes in label order. *)
let fingerprint ~events m =
  let classes =
    List.sort compare (Metrics.classes m)
    |> List.map (fun (label, (c : Metrics.class_stats)) ->
           Printf.sprintf "%s:%d/%d" label c.Metrics.committed c.Metrics.aborted)
  in
  let no_p99 =
    match Metrics.find m "NewOrder" with
    | Some c when Sim.Histogram.count c.Metrics.end_to_end > 0 ->
      Int64.to_string (Sim.Histogram.percentile c.Metrics.end_to_end 99.)
    | Some _ | None -> "-"
  in
  String.concat " " ((Printf.sprintf "events=%d" events :: classes) @ [ "no_p99=" ^ no_p99 ])

let of_result (r : Runner.result) = fingerprint ~events:r.Runner.events r.Runner.metrics

let golden name expected run =
  Alcotest.test_case name `Quick (fun () ->
      Alcotest.(check string) (name ^ " fingerprint") expected (run ()))

(* Mixed with every single-node subsystem the drivers wire: group commit
   with checkpoints, a semi-sync standby. *)
let mixed () =
  let cfg =
    Config.with_replication
      (Config.with_durability
         ~durability:{ Config.default_durability with Config.du_ckpt_interval_us = 2000. }
         (base ()))
  in
  of_result
    (Runner.run ~workload:Runner.Mixed ~cfg ~tpch_cfg:small_tpch ~arrival_interval_us:250.
      ~horizon_sec:0.01 ())

(* The same node with the blocking-commit ablation: commit waits spin
   holding the context instead of parking. *)
let mixed_blocking () =
  let cfg =
    Config.with_replication
      (Config.with_durability
         ~durability:
           {
             Config.default_durability with
             Config.du_ckpt_interval_us = 2000.;
             Config.du_blocking = true;
           }
         (base ()))
  in
  of_result
    (Runner.run ~workload:Runner.Mixed ~cfg ~tpch_cfg:small_tpch ~arrival_interval_us:250.
      ~horizon_sec:0.01 ())

let tpcc () =
  let cfg = { (base ()) with Config.empty_interrupts = true } in
  of_result (Runner.run ~workload:Runner.Tpcc ~cfg ~horizon_sec:0.005 ())

let htap () = of_result (Runner.run ~workload:Runner.Htap ~cfg:(base ())
  ~arrival_interval_us:250. ~horizon_sec:0.01 ())

let tiered () =
  let cfg = { (base ()) with Config.n_priority_levels = 3 } in
  of_result (Runner.run ~workload:Runner.Tiered ~cfg ~tpch_cfg:small_tpch ~horizon_sec:0.01 ())

let ledger () =
  let r = Runner.run ~workload:Runner.Ledger ~cfg:(base ()) ~horizon_sec:0.01 () in
  Printf.sprintf "%s balance=%d" (of_result r) (Option.get r.Runner.balance)

let maintenance () =
  let cfg = Config.with_reclaim (base ()) in
  of_result (Runner.run ~workload:Runner.Maintenance ~cfg ~arrival_interval_us:200.
    ~horizon_sec:0.01 ())

(* Two shards, one fingerprint per shard; events are cluster-wide.
   [blocking] spins 2PC gate waits instead of parking them. *)
let cluster ?(blocking = false) () =
  let cfg =
    Config.with_shard
      ~shard:{ Config.default_shard with Config.sh_shards = 2; Config.sh_blocking = blocking }
      (base ())
  in
  let cl = Cluster.create ~cfg ~arrival_interval_us:80. () in
  Cluster.run cl ~horizon_sec:0.01;
  String.concat " | "
    (List.init (Cluster.n_shards cl) (fun sid ->
         fingerprint ~events:(Cluster.events_processed cl) (Cluster.metrics cl ~sid)))

let () =
  Alcotest.run "golden"
    [
      ( "runs",
        [
          golden "mixed"
            "events=237259 Ckpt:4/0 NewOrder:186/1 Payment:133/0 Q2:46/0 no_p99=999423"
            mixed;
          golden "mixed blocking"
            "events=196644 Ckpt:4/0 NewOrder:173/2 Payment:145/0 Q2:33/0 no_p99=289810"
            mixed_blocking;
          golden "tpcc"
            "events=18315 Delivery:18/0 NewOrder:164/3 OrderStatus:16/0 Payment:146/0 StockLevel:23/0 no_p99=159743"
            tpcc;
          golden "htap"
            "events=254464 CH-Q1:11/0 CH-Q4:11/0 CH-Q6:8/0 NewOrder:180/4 Payment:136/0 no_p99=124927"
            htap;
          golden "tiered"
            "events=134287 BalanceCheck:156/0 Q2:20/0 StockLevel:80/0 no_p99=-"
            tiered;
          golden "ledger"
            "events=267175 Audit:17/0 Transfer:396/0 no_p99=- balance=10000000"
            ledger;
          golden "maintenance"
            "events=22672 GC:98/0 NewOrder:224/4 Payment:172/0 no_p99=126975"
            maintenance;
          golden "cluster"
            "events=9620 NewOrder:52/0 NewOrderX:8/0 Payment:61/0 PaymentX:4/0 XPart:14/0 no_p99=57741 | events=9620 NewOrder:44/0 NewOrderX:6/0 Payment:67/0 PaymentX:8/0 XPart:12/0 no_p99=57727"
            cluster;
          golden "cluster blocking"
            "events=12308 NewOrder:52/0 NewOrderX:7/1 Payment:61/0 PaymentX:4/0 XPart:13/1 no_p99=57741 | events=12308 NewOrder:44/0 NewOrderX:5/1 Payment:67/0 PaymentX:8/0 XPart:11/1 no_p99=177547"
            (cluster ~blocking:true);
        ] );
    ]
