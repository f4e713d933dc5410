module R = Preemptdb.Runner
module Config = Preemptdb.Config
module Txn = Storage.Txn
module Table = Storage.Table
module Tuple = Storage.Tuple
module Version = Storage.Version

type outcome = {
  fv_result : R.result;
  fv_promoted : Storage.Engine.t;
  fv_survivor_lsn : int;
  fv_audits : Crash.audit list;  (* commit-ts order *)
  fv_survived_commits : int;
  fv_lost_commits : int;
  fv_acked : int;
  fv_acked_lost : int;
  fv_failover : Replication.Failover.outcome option;
  fv_violations : Violation.t list;
}

(* The independently-derived expected surviving state: the bootstrap base
   image overlaid with every audited commit whose marker the replica
   applied (marker LSN inside the survivor prefix), in commit-timestamp
   order.  Built from the engine-side audit trail on the PRIMARY, never
   from the shipped records — so it cross-checks the whole
   append/flush/ship/persist/apply pipeline end to end. *)
let expected_state (log : Durability.Log.t) ~survivor audits =
  let exp : (string * int, int64 * Storage.Value.t option) Hashtbl.t =
    Hashtbl.create 1024
  in
  List.iter
    (fun (tname, rows) ->
      List.iter
        (fun (oid, payload, ts) -> Hashtbl.replace exp (tname, oid) (ts, payload))
        rows)
    (Durability.Log.base log);
  List.iter
    (fun (a : Crash.audit) ->
      match a.Crash.ac_lsn with
      | Some lsn when lsn < survivor ->
        List.iter
          (fun (w : Crash.audit_write) ->
            Hashtbl.replace exp
              (w.Crash.aw_table, w.Crash.aw_oid)
              (a.Crash.ac_ts, w.Crash.aw_payload))
          a.Crash.ac_writes
      | Some _ | None -> ())
    audits;
  exp

(* Post-promotion probe commits land in their own table — exclude it from
   the primary-vs-promoted comparison. *)
let actual_state (eng : Storage.Engine.t) =
  let act : (string * int, int64 * Storage.Value.t option) Hashtbl.t =
    Hashtbl.create 1024
  in
  List.iter
    (fun table ->
      let name = Table.name table in
      if name <> Replication.Failover.probe_table then
        Table.iter table (fun tuple ->
            let v = Version.latest_committed (Tuple.head tuple) in
            if not (Version.is_nil v) then
              Hashtbl.replace act (name, tuple.Tuple.oid)
                (v.Version.begin_ts, v.Version.data)))
    (Storage.Engine.tables eng);
  act

let payload_to_string = function
  | None -> "<tombstone>"
  | Some v ->
    Printf.sprintf "%d fields, %d bytes" (Array.length v)
      (Storage.Value.size_bytes v)

let check ~(repl : R.repl_parts) ~(dur : R.dur_parts) ~mode ~audits ~survivor
    ~(promoted : Storage.Engine.t) =
  let dm = dur.R.dur_daemon in
  let vs = ref [] in
  let add fmt =
    Format.kasprintf
      (fun d -> vs := { Violation.oracle = "failover"; detail = d } :: !vs)
      fmt
  in
  (* 1. No commit was acknowledged before its marker was locally durable
     (the early-ack self-test trips this). *)
  let viol = Durability.Daemon.ack_violations dm in
  if viol > 0 then add "%d commit acks issued before the marker was durable" viol;
  (* 2. Acked-commit survival.  In semi-sync the ack gate means an
     acknowledged commit was already persisted (hence applied) on the
     replica — every acked marker must sit inside the surviving prefix,
     i.e. RPO = 0.  A degrade edge voids the gate from then on (that is
     its contract), so the clause only binds while the mode held. *)
  let degraded = Replication.Shipper.degraded repl.R.repl_shipper in
  if mode = Config.Repl_semi_sync && not degraded then
    List.iter
      (fun lsn ->
        if lsn >= survivor then
          add
            "semi-sync acked marker %d beyond the surviving prefix %d (RPO must \
             be 0)"
            lsn survivor)
      (Durability.Daemon.acked dm);
  (* 3. The surviving state equals the base image plus exactly the audited
     commits the replica applied — in both directions, probe table
     excluded. *)
  let exp = expected_state dur.R.dur_log ~survivor audits in
  let act = actual_state promoted in
  Hashtbl.iter
    (fun (tname, oid) (ets, epay) ->
      match Hashtbl.find_opt act (tname, oid) with
      | None ->
        if epay <> None then
          add "%s[%d]: expected a surviving row (ts %Ld), promoted engine has none"
            tname oid ets
      | Some (ats, apay) ->
        if not (Int64.equal ets ats) then
          add "%s[%d]: commit ts %Ld survives as %Ld" tname oid ets ats
        else if not (Option.equal Storage.Value.equal epay apay) then
          add "%s[%d]: payload mismatch at ts %Ld (expected %s, got %s)" tname
            oid ets (payload_to_string epay) (payload_to_string apay))
    exp;
  Hashtbl.iter
    (fun (tname, oid) (ats, _) ->
      if not (Hashtbl.mem exp (tname, oid)) then
        add "%s[%d]: promoted row (ts %Ld) matches no base row or applied commit"
          tname oid ats)
    act;
  (* 4. Promoted version chains are well-formed. *)
  let chains = Oracle.version_chains promoted in
  List.rev !vs @ chains

let run ~cfg ?tpcc_cfg ?tpch_cfg ?(crash_at_us = 0.) ?(crash_seed = 11L)
    ?(early_ack = false) ?(hb_drop_pct = 0) ?(replica_crash_at_us = 0.)
    ?(arrival_interval_us = 400.) ?(horizon_sec = 0.01) () =
  let mode =
    match cfg.Config.replication with
    | None -> invalid_arg "Check.Failover.run: cfg.replication must be set"
    | Some rp -> rp.Config.rp_mode
  in
  let audits = ref [] in
  let dur_parts = ref None in
  let repl_parts = ref None in
  let prepare (a : R.assembly) =
    dur_parts := a.R.dur;
    repl_parts := a.R.repl;
    (match a.R.dur with
    | Some d when early_ack -> Durability.Daemon.set_early_ack d.R.dur_daemon true
    | _ -> ());
    Storage.Engine.set_observer a.R.eng
      (Some
         {
           Storage.Engine.obs_read = (fun ~txn:_ ~table:_ ~oid:_ ~version:_ -> ());
           obs_write = (fun ~txn:_ ~table:_ ~oid:_ -> ());
           obs_commit =
             (fun ~txn ~commit_ts ->
               audits :=
                 {
                   Crash.ac_id = txn.Txn.id;
                   ac_ts = commit_ts;
                   ac_lsn = txn.Txn.commit_lsn;
                   ac_writes =
                     List.rev_map
                       (fun w ->
                         {
                           Crash.aw_table = Table.name w.Txn.wtable;
                           aw_oid = w.Txn.wtuple.Tuple.oid;
                           aw_payload = w.Txn.wversion.Version.data;
                         })
                       txn.Txn.writes;
                 }
                 :: !audits);
           obs_abort = (fun ~txn:_ ~reason:_ -> ());
         });
    Faults.Injector.install
      {
        Faults.Plan.none with
        Faults.Plan.crash_at_us;
        hb_drop_pct;
        replica_crash_at_us;
        seed = crash_seed;
      }
      a
  in
  let fv_result =
    R.run ~workload:R.Mixed ~cfg ?tpcc_cfg ?tpch_cfg ~prepare ~arrival_interval_us
      ~horizon_sec ()
  in
  let dur = match !dur_parts with Some d -> d | None -> assert false in
  let repl = match !repl_parts with Some r -> r | None -> assert false in
  let audits = List.sort (fun a b -> Int64.compare a.Crash.ac_ts b.Crash.ac_ts) !audits in
  let fv_failover = Option.bind repl.R.repl_failover Replication.Failover.outcome in
  let survivor =
    match fv_failover with
    | Some o -> o.Replication.Failover.fo_applied_lsn
    | None -> Replication.Replica.applied_lsn repl.R.repl_replica
  in
  let promoted = Replication.Replica.engine repl.R.repl_replica in
  let survived (a : Crash.audit) =
    match a.Crash.ac_lsn with Some l -> l < survivor | None -> false
  in
  let violations =
    check ~repl ~dur ~mode ~audits ~survivor ~promoted
    @
    (* A completed failover must leave an engine that serves new
       transactions: the probe commits prove it. *)
    match fv_failover with
    | Some o when o.Replication.Failover.fo_probe_commits = 0 ->
      [
        {
          Violation.oracle = "failover";
          detail = "promotion completed but no probe transaction committed";
        };
      ]
    | _ -> []
  in
  {
    fv_result;
    fv_promoted = promoted;
    fv_survivor_lsn = survivor;
    fv_audits = audits;
    fv_survived_commits = List.length (List.filter survived audits);
    fv_lost_commits =
      List.length (List.filter (fun a -> not (survived a)) audits);
    fv_acked = Durability.Daemon.acked_count dur.R.dur_daemon;
    fv_acked_lost =
      (match fv_result.R.replication with
      | Some rs -> rs.R.rs_acked_lost
      | None -> 0);
    fv_failover;
    fv_violations = violations;
  }
