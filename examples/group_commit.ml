(* Durability: group-commit WAL + preemptible commit waits + recovery.

   Runs the preemptive mixed workload with the durability subsystem armed,
   shows the group-commit daemon's flush pipeline and the park/unpark
   traffic from preemptible commit waits, then "crashes" with the tail
   unflushed, recovers, and shows exactly the durable prefix surviving.

     dune exec examples/group_commit.exe *)

module Config = Preemptdb.Config
module Runner = Preemptdb.Runner
module Engine = Storage.Engine
module Log = Durability.Log
module Daemon = Durability.Daemon
module Recovery = Durability.Recovery

let () =
  let cfg =
    Config.with_durability
      (Config.default ~policy:(Config.Preempt 1.0) ~n_workers:2 ())
  in
  let parts = ref None in
  let prepare (a : Runner.assembly) = parts := a.Runner.dur in
  Format.printf
    "running 10ms of preemptive mixed workload with durability armed...@.";
  let r =
    Runner.run ~workload:Runner.Mixed ~cfg ~prepare ~arrival_interval_us:250. ~horizon_sec:0.01 ()
  in
  let d = Option.get !parts in
  let log = d.Runner.dur_log and daemon = d.Runner.dur_daemon in
  let commits = r.Runner.engine_stats.Engine.commits in
  Format.printf "committed %d transactions; log committed %d (markers)@." commits
    (Log.committed log);
  Format.printf "group-commit flushes: %d; durable LSN %d of %d appended@."
    (Daemon.flushes daemon) (Log.durable_lsn log) (Log.next_lsn log);
  let w = r.Runner.workers in
  Format.printf
    "preemptible commit waits: %d parked / %d unparked, %d acked immediately@."
    w.Runner.dur_parks w.Runner.dur_unparks w.Runner.dur_immediate;

  (* Crash with the tail unflushed: only the durable prefix survives. *)
  let crashed_early = Recovery.recover log in
  Format.printf "@.crash with the tail unflushed:@.";
  Format.printf "  recovered state == crashed engine state: %b (tail lost)@."
    (Recovery.durable_state_equal r.Runner.eng crashed_early);

  (* Drain + final flush, then recover: everything survives. *)
  let _, upto, _, _ = Log.drain_all log in
  Log.set_durable log upto;
  let recovered = Recovery.recover log in
  Format.printf "@.recover after a clean final flush:@.";
  Format.printf "  recovered state == crashed engine state: %b@."
    (Recovery.durable_state_equal r.Runner.eng recovered);
  let orders = Engine.table recovered "orders" in
  Format.printf "  recovered orders table rows: %d@." (Storage.Table.size orders);
  Format.printf
    "@.Commit waits park the transaction and free the core through the@.";
  Format.printf
    "uintr path; the flush-completion interrupt unparks the waiters.@."
