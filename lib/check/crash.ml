module R = Preemptdb.Runner
module Config = Preemptdb.Config
module Txn = Storage.Txn
module Table = Storage.Table
module Tuple = Storage.Tuple
module Version = Storage.Version

type audit_write = {
  aw_table : string;
  aw_oid : int;
  aw_payload : Storage.Value.t option;
}

type audit = {
  ac_id : int;
  ac_ts : int64;
  ac_lsn : int option;
  ac_writes : audit_write list;
}

type cut = {
  cut_lsn : int;
  cut_engine : Storage.Engine.t;
  cut_kept : int;
  cut_lost : int;
}

type outcome = {
  co_result : R.result;
  co_audits : audit list;  (* commit-ts order *)
  co_local : cut;
  co_standby : cut option;
  co_acked : int;
  co_acked_lost : int;
  co_failover : Replication.Failover.outcome option;
  co_rec_stats : Durability.Recovery.stats;
  co_violations : Violation.t list;
}

let below cut a = match a.ac_lsn with Some lsn -> lsn < cut | None -> false

(* The independently-derived expected state at a cut, (table, oid) ->
   (commit ts, payload): the bootstrap base image overlaid with every
   audited commit whose marker is below the cut, in commit-timestamp
   order.  Built from the engine-side audit trail on the primary, never
   from log records, so it cross-checks the whole append/flush/replay (and
   ship/persist/apply) pipeline end to end. *)
let expected_state log ~cut audits =
  let base = Durability.Log.base log in
  let exp : (string * int, int64 * Storage.Value.t option) Hashtbl.t =
    Hashtbl.create (List.fold_left (fun n (_, rows) -> n + List.length rows) 16 base)
  in
  List.iter
    (fun (tname, rows) ->
      List.iter (fun (oid, payload, ts) -> Hashtbl.replace exp (tname, oid) (ts, payload)) rows)
    base;
  List.iter
    (fun a ->
      if below cut a then
        List.iter
          (fun w -> Hashtbl.replace exp (w.aw_table, w.aw_oid) (a.ac_ts, w.aw_payload))
          a.ac_writes)
    audits;
  exp

let payload_to_string = function
  | None -> "<tombstone>"
  | Some v -> Printf.sprintf "%d fields, %d bytes" (Array.length v) (Storage.Value.size_bytes v)

(* The clauses every cut shares: the engine's committed [image] holds
   exactly the expected state, in both directions, and its version chains
   are well-formed.  [what] names the engine in messages. *)
let prefix_violations ~oracle ~what log ~cut audits image eng =
  let vs = ref [] in
  let add fmt = Format.kasprintf (fun detail -> vs := { Violation.oracle; detail } :: !vs) fmt in
  let exp = expected_state log ~cut audits in
  List.iter
    (fun (tname, rows) ->
      List.iter
        (fun (oid, apay, ats) ->
          match Hashtbl.find_opt exp (tname, oid) with
          | None ->
            add "%s[%d]: %s row (ts %Ld) matches no base row or commit below the cut" tname
              oid what ats
          | Some (ets, epay) ->
            (* matched rows leave [exp]; what remains the engine lacks *)
            Hashtbl.remove exp (tname, oid);
            if not (Int64.equal ets ats) then
              add "%s[%d]: commit ts %Ld is %Ld in the %s engine" tname oid ets ats what
            else if not (Option.equal Storage.Value.equal epay apay) then
              add "%s[%d]: payload mismatch at ts %Ld (expected %s, got %s)" tname oid ets
                (payload_to_string epay) (payload_to_string apay))
        rows)
    image;
  Hashtbl.iter
    (fun (tname, oid) (ets, epay) ->
      if epay <> None then
        add "%s[%d]: expected a committed row (ts %Ld), the %s engine has none" tname oid ets
          what)
    exp;
  List.rev_append !vs (Oracle.version_chains eng)

let check ~cfg ~(dur : R.dur_parts) ~(repl : R.repl_parts option) ~failover ~audits ~local
    ~standby =
  let log = dur.R.dur_log and dm = dur.R.dur_daemon in
  let vs = ref [] in
  let add oracle fmt =
    Format.kasprintf (fun detail -> vs := { Violation.oracle; detail } :: !vs) fmt
  in
  (* Local cut.  1. The daemon never acknowledged a commit whose marker was
     not yet durable (the early-ack fault makes this fire — the
     self-test). *)
  let viol = Durability.Daemon.ack_violations dm in
  if viol > 0 then add "durability" "%d commit acks issued before the marker was durable" viol;
  let audited_lsns = Hashtbl.create 256 in
  List.iter
    (fun a -> match a.ac_lsn with Some l -> Hashtbl.replace audited_lsns l a | None -> ())
    audits;
  List.iter
    (fun lsn ->
      if lsn >= local.cut_lsn then
        add "durability" "acked marker %d outside the durable prefix (durable = %d)" lsn
          local.cut_lsn;
      if not (Hashtbl.mem audited_lsns lsn) then
        add "durability" "acked marker %d matches no audited commit" lsn)
    (Durability.Daemon.acked dm);
  (* 2. With durability armed, every committed transaction has a marker. *)
  List.iter
    (fun a ->
      if a.ac_lsn = None then add "durability" "committed txn %d has no marker LSN" a.ac_id)
    audits;
  (* 3. Recovered state = base image + exactly the durable commits. *)
  vs :=
    List.rev_append
      (prefix_violations ~oracle:"durability" ~what:"recovered" log ~cut:local.cut_lsn audits
         (Durability.Log.committed_image local.cut_engine)
         local.cut_engine)
      !vs;
  (match repl, standby with
  | Some repl, Some sb ->
    (* Standby cut.  4. In semi-sync the ack gate means an acknowledged
       commit was already persisted (hence applied) on the replica: every
       acked marker must sit below the standby cut, i.e. RPO = 0.  A
       degrade edge voids the gate from then on (that is its contract), so
       the clause only binds while the mode held. *)
    let semi_sync =
      match cfg.Config.replication with
      | Some rp -> rp.Config.rp_mode = Config.Repl_semi_sync
      | None -> false
    in
    if semi_sync && not (Replication.Shipper.degraded repl.R.repl_shipper) then
      List.iter
        (fun lsn ->
          if lsn >= sb.cut_lsn then
            add "failover"
              "semi-sync acked marker %d beyond the surviving prefix %d (RPO must be 0)" lsn
              sb.cut_lsn)
        (Durability.Daemon.acked dm);
    (* 5. The standby holds exactly the commits it applied; post-promotion
       probe commits land in their own table, which is excluded. *)
    let image =
      List.filter
        (fun (name, _) -> name <> Replication.Failover.probe_table)
        (Durability.Log.committed_image sb.cut_engine)
    in
    vs :=
      List.rev_append
        (prefix_violations ~oracle:"failover" ~what:"promoted" log ~cut:sb.cut_lsn audits image
           sb.cut_engine)
        !vs;
    (* 6. A completed failover leaves an engine that serves new
       transactions: the probe commits prove it. *)
    (match failover with
    | Some o when o.Replication.Failover.fo_probe_commits = 0 ->
      add "failover" "promotion completed but no probe transaction committed"
    | _ -> ())
  | _ -> ());
  List.rev !vs

let run ~cfg ?tpcc_cfg ?tpch_cfg ?(plan = Faults.Plan.none) ?(early_ack = false)
    ?(arrival_interval_us = 400.) ?(horizon_sec = 0.01) () =
  if cfg.Config.durability = None then
    invalid_arg "Check.Crash.run: cfg.durability must be set";
  let audits = ref [] in
  let parts = ref None in
  let prepare (a : R.assembly) =
    parts := Option.map (fun d -> (d, a.R.repl)) a.R.dur;
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
                   ac_id = txn.Txn.id;
                   ac_ts = commit_ts;
                   ac_lsn = txn.Txn.commit_lsn;
                   ac_writes =
                     List.rev_map
                       (fun w ->
                         {
                           aw_table = Table.name w.Txn.wtable;
                           aw_oid = w.Txn.wtuple.Tuple.oid;
                           aw_payload = w.Txn.wversion.Version.data;
                         })
                       txn.Txn.writes;
                 }
                 :: !audits);
           obs_abort = (fun ~txn:_ ~reason:_ -> ());
         });
    Faults.Injector.install plan a
  in
  let co_result =
    R.run ~workload:R.Mixed ~cfg ?tpcc_cfg ?tpch_cfg ~prepare ~arrival_interval_us ~horizon_sec ()
  in
  let dur, repl = match !parts with Some p -> p | None -> assert false in
  let audits = List.sort (fun a b -> Int64.compare a.ac_ts b.ac_ts) !audits in
  let cut lsn eng =
    let kept = List.length (List.filter (below lsn) audits) in
    { cut_lsn = lsn; cut_engine = eng; cut_kept = kept; cut_lost = List.length audits - kept }
  in
  let recovered, co_rec_stats = Durability.Recovery.recover_with_stats dur.R.dur_log in
  let co_local = cut (Durability.Log.durable_lsn dur.R.dur_log) recovered in
  let co_failover =
    Option.bind repl (fun r -> Option.bind r.R.repl_failover Replication.Failover.outcome)
  in
  let co_standby =
    Option.map
      (fun r ->
        let replica = r.R.repl_replica in
        let lsn =
          match co_failover with
          | Some o -> o.Replication.Failover.fo_applied_lsn
          | None -> Replication.Replica.applied_lsn replica
        in
        cut lsn (Replication.Replica.engine replica))
      repl
  in
  {
    co_result;
    co_audits = audits;
    co_local;
    co_standby;
    co_acked = Durability.Daemon.acked_count dur.R.dur_daemon;
    co_acked_lost =
      (match co_result.R.replication with Some rs -> rs.R.rs_acked_lost | None -> 0);
    co_failover;
    co_rec_stats;
    co_violations =
      check ~cfg ~dur ~repl ~failover:co_failover ~audits ~local:co_local ~standby:co_standby;
  }
