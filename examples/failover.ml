(* Replication + automatic failover.

   Runs the preemptive mixed workload with semi-sync log shipping to a
   standby, fail-stops the primary at a fixed virtual time, and lets the
   failure detector notice the silence and promote the replica.  Prints
   the timeline (crash -> detection -> promotion), the recovery metrics
   (RTO in virtual µs, RPO in acked transactions, the torn tail the
   promotion discarded) and the crash oracle's verdict, which checks both
   the primary's recovered log and the promoted standby.

     dune exec examples/failover.exe *)

module Config = Preemptdb.Config
module Runner = Preemptdb.Runner

let crash_at_us = 5000.

let () =
  let cfg =
    Config.with_replication
      ~replication:
        { Config.default_replication with Config.rp_mode = Config.Repl_semi_sync }
      (Config.with_durability
         (Config.default ~policy:(Config.Preempt 1.0) ~n_workers:2 ()))
  in
  Format.printf "Semi-sync replication, primary crash at %.0f virtual us@.@."
    crash_at_us;
  let o =
    Check.Crash.run ~cfg
      ~plan:{ Faults.Plan.none with Faults.Plan.crash_at_us; seed = 11L }
      ~arrival_interval_us:200. ~horizon_sec:0.012 ()
  in
  let r = o.Check.Crash.co_result in
  (match r.Runner.replication with
  | Some rs ->
    Format.printf "shipping: %d batches, %d records, %d heartbeats, %d resent@."
      rs.Runner.rs_batches rs.Runner.rs_records rs.Runner.rs_heartbeats
      rs.Runner.rs_resent;
    Format.printf "replica:  persisted=%d applied=%d (%d transactions redone)@."
      rs.Runner.rs_persisted_lsn rs.Runner.rs_applied_lsn rs.Runner.rs_txns_applied
  | None -> ());
  (match o.Check.Crash.co_failover with
  | Some fo ->
    Format.printf "@.timeline: crash@%.0fus -> detected@%.1fus -> promoted@%.1fus@."
      crash_at_us fo.Replication.Failover.fo_detected_us
      fo.Replication.Failover.fo_promoted_us;
    Format.printf
      "RTO = %.1f virtual us   RPO = %d acked transactions   torn tail discarded = \
       %d txns@."
      fo.Replication.Failover.fo_rto_us o.Check.Crash.co_acked_lost
      fo.Replication.Failover.fo_torn;
    Format.printf "promoted engine served %d probe commits@."
      fo.Replication.Failover.fo_probe_commits
  | None -> Format.printf "@.no failover happened (crash too late for the horizon?)@.");
  (match o.Check.Crash.co_standby with
  | Some sb ->
    Format.printf "@.commits audited on the primary: %d survived, %d unshipped died \
                   with it@."
      sb.Check.Crash.cut_kept sb.Check.Crash.cut_lost
  | None -> ());
  match o.Check.Crash.co_violations with
  | [] ->
    Format.printf
      "oracle: PASS — every acknowledged commit survives on the promoted standby@."
  | vs ->
    Format.printf "oracle: FAIL (%d violations)@." (List.length vs);
    List.iter (fun v -> Format.printf "  %s@." (Check.Violation.to_string v)) vs;
    exit 1
