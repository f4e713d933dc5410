(** The crash oracle: committed effects survive exactly up to a cut.

    A durability-enabled run is audited from the primary's engine side:
    every commit observed through {!Storage.Engine.set_observer} is
    recorded with its commit timestamp, marker LSN and final write
    payloads.  The run crashes as its fault plan says
    ({!Faults.Plan.crash_at_us} — the in-flight flush tears, the unflushed
    suffix is lost; with replication the whole primary dies and the
    standby is promoted).  The oracle then checks, independently of the
    flush, replay and shipping machinery, every {e cut} the configuration
    arms.  A cut is the LSN bound below which commits must survive, and
    the engine that must hold them:

    - the {e local cut} (always; oracle name ["durability"]): the primary's
      durable LSN and the engine recovered from the primary's log;
    - the {e standby cut} (when [cfg.replication] is set; oracle name
      ["failover"]): the replica's applied LSN — at promotion, or at the
      horizon — and the replica's engine, probe table excluded.

    Each cut's engine must equal the bootstrap base image overlaid with
    exactly the audited commits whose marker is below the cut, applied in
    commit-timestamp order — in both directions (no lost update, no
    resurrected torn tail, no duplicated apply, whether recovery started
    from the base or a fuzzy checkpoint) — and its version chains must be
    well-formed ({!Oracle.version_chains}).  On top of that:

    - {e acked ⟹ durable} (local): no acknowledgement names a marker
      outside the durable prefix or a commit the audit never saw, and
      every committed transaction has a marker (the daemon's early-ack
      fault trips this — the self-test that proves the checker catches a
      lying daemon);
    - {e semi-sync RPO = 0} (standby): while the shipper has not degraded,
      every acked marker sits below the standby cut;
    - {e the promoted engine serves} (standby): a completed promotion ran
      probe commits.

    Fuzzing = calling {!run} over a grid of seeds and crash instants;
    every outcome must come back with no violations. *)

type audit_write = {
  aw_table : string;
  aw_oid : int;
  aw_payload : Storage.Value.t option;  (** final payload ([None] = delete) *)
}

(** One committed transaction, as the engine observer saw it. *)
type audit = {
  ac_id : int;
  ac_ts : int64;
  ac_lsn : int option;  (** commit-marker LSN *)
  ac_writes : audit_write list;
}

(** One checked cut. *)
type cut = {
  cut_lsn : int;  (** commits with a marker below this must survive *)
  cut_engine : Storage.Engine.t;  (** the engine checked against the cut *)
  cut_kept : int;  (** audited commits below the cut *)
  cut_lost : int;  (** audited commits at or beyond it *)
}

type outcome = {
  co_result : Preemptdb.Runner.result;  (** the crashed (or clean) run *)
  co_audits : audit list;  (** commit-ts order *)
  co_local : cut;  (** durable LSN, engine recovered from the log *)
  co_standby : cut option;
      (** replica applied LSN and the replica's engine (promoted when
          failover completed); present iff [cfg.replication] *)
  co_acked : int;
  co_acked_lost : int;
      (** RPO in acked commits: acked markers beyond the standby cut (0
          without replication) *)
  co_failover : Replication.Failover.outcome option;
  co_rec_stats : Durability.Recovery.stats;  (** recovery of the local cut *)
  co_violations : Violation.t list;  (** empty = the oracle passed *)
}

val run :
  cfg:Preemptdb.Config.t ->
  ?tpcc_cfg:Workload.Tpcc_schema.config ->
  ?tpch_cfg:Workload.Tpch_schema.config ->
  ?plan:Faults.Plan.t ->
  ?early_ack:bool ->
  ?arrival_interval_us:float ->
  ?horizon_sec:float ->
  unit ->
  outcome
(** Run the mixed workload under [cfg] (which must set [cfg.durability])
    with the fault [plan] installed (default {!Faults.Plan.none}: no crash,
    the run ends at the horizon and the cuts are its final prefixes),
    recover, and check every armed cut.  [early_ack] arms the lying-daemon
    self-test, which must produce violations.
    @raise Invalid_argument when [cfg.durability] is unset. *)
