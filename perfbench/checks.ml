(* Correctness checks over one run's post-run state.  Each returns
   [(name, ok, detail)]; any [ok = false] fails the benchmark run. *)

module Runner = Preemptdb.Runner

type result = { name : string; ok : bool; detail : string }

let check name ok fmt = Printf.ksprintf (fun detail -> { name; ok; detail }) fmt

let violations name vs =
  check name (vs = []) "%d violations%s" (List.length vs)
    (match vs with v :: _ -> ": " ^ Check.Violation.to_string v | [] -> "")

(* Every simulated cycle lands in exactly one (worker x phase) bucket:
   per worker, the non-idle buckets equal the worker's busy counter and
   all buckets sum to the horizon; the grand total is the bucket sum. *)
let profiler_conservation (s : Wl.single) =
  let p = s.Wl.res.Runner.profile in
  let horizon = s.Wl.res.Runner.horizon in
  let bad =
    Array.to_list s.Wl.asm.Runner.workers
    |> List.filter_map (fun w ->
           let wid = Preemptdb.Worker.id w in
           let busy = Int64.of_int (Preemptdb.Worker.stats w).Preemptdb.Worker.busy_cycles in
           let non_idle = Obs.Profiler.non_idle_total p ~wid in
           let total = Obs.Profiler.worker_total p ~wid in
           if Int64.equal non_idle busy && Int64.equal total (Int64.max horizon busy) then None
           else Some (Printf.sprintf "worker %d: non-idle %Ld busy %Ld total %Ld" wid non_idle busy total))
  in
  let bucket_sum =
    List.fold_left (fun a (_, c) -> Int64.add a c) 0L (Obs.Profiler.totals p)
  in
  let total = Obs.Profiler.total_cycles p in
  check "profiler-conservation"
    (bad = [] && Int64.equal bucket_sum total)
    "buckets %Ld of %Ld total%s" bucket_sum total
    (match bad with b :: _ -> "; " ^ b | [] -> "")

(* generated = committed + aborted + shed + left in backlog, queue or
   context (admission drops never became requests). *)
let ledger (s : Wl.single) =
  let r = s.Wl.res in
  let m = r.Runner.metrics in
  let c = check "request-ledger" (Check.Oracle.request_conservation r = []) in
  c "generated %d = committed %d + aborted %d + shed %d + backlog %d + queued %d + in-flight %d (dropped at admission %d)"
    (r.Runner.generated_hp + r.Runner.generated_lp + r.Runner.generated_gc)
    (Preemptdb.Metrics.committed_total m) (Preemptdb.Metrics.aborted_total m)
    (Preemptdb.Metrics.shed_total m) r.Runner.backlog_left r.Runner.queued_left
    r.Runner.inflight_left (Preemptdb.Metrics.drops m)

let durability (s : Wl.single) =
  let r = s.Wl.res in
  match (r.Runner.durability, r.Runner.replication) with
  | Some d, Some rs ->
    [
      (* an open reservation at the horizon is a commit the cut caught
         mid-flight, not a leak *)
      check "durable-acks" (d.Runner.ds_ack_violations = 0)
        "ack violations %d, acked %d, open reservations at the horizon %d"
        d.Runner.ds_ack_violations d.Runner.ds_acked d.Runner.ds_open_reservations;
      check "semi-sync-replication"
        (rs.Runner.rs_acked_lost = 0 && not rs.Runner.rs_degraded)
        "acked lost %d, degraded %b, applied %d of durable %d" rs.Runner.rs_acked_lost
        rs.Runner.rs_degraded rs.Runner.rs_applied_lsn d.Runner.ds_durable_lsn;
    ]
  | _ -> [ check "durable-acks" false "durability or replication summary missing" ]

let atomicity cl =
  let logs = Array.init (Shard.Cluster.n_shards cl) (fun sid -> Shard.Cluster.log cl ~sid) in
  let res = Check.Atomic.recover logs in
  let r =
    violations "2pc-atomicity" res.Check.Atomic.rs_violations
  in
  {
    r with
    detail =
      Printf.sprintf "%s; decisions %d, in-doubt %d (committed %d, aborted %d), torn %d"
        r.detail res.Check.Atomic.rs_decisions res.Check.Atomic.rs_in_doubt
        res.Check.Atomic.rs_committed res.Check.Atomic.rs_aborted res.Check.Atomic.rs_torn;
  }

let run_checks (r : Wl.run) =
  match r.Wl.node with
  | Wl.Single s ->
    [
      profiler_conservation s;
      ledger s;
      violations "tpcc-consistency" (Check.Oracle.tpcc_consistency s.Wl.tpcc);
    ]
    @ (match r.Wl.kind with Wl.Oltp_durable -> durability s | Wl.Htap | Wl.Shard_2pc -> [])
  | Wl.Cluster cl -> [ atomicity cl ]
