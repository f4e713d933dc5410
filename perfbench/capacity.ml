(* capacity_ktps: the highest rung of a fixed ladder of offered
   high-priority rates at which the p99 of every high-priority request
   (failed ones counted as misses) stays within [limit_us] and the backlog
   does not grow (committed >= 97 % of offered).  Rungs are probed from
   the lightest up and a climb stops at the first rung that misses; every
   rung probed is reported.

   The cluster's knee is not a sharp service limit but the onset of the
   2PC abort cascade, a metastable collapse whose start varies from seed
   to seed by several rungs; its capacity is the median of [trials]
   climbs with seeds derived from the run's. *)

let limit_us = 250.
let keep_up = 0.97

(* Virtual ms per rung: the cluster's collapse past saturation takes
   longer to show than a single node's backlog. *)
let rung_ms = function Wl.Htap | Wl.Oltp_durable -> 10. | Wl.Shard_2pc -> 50.

(* Arrival intervals in µs, lightest first; the last rungs sit past each
   workload's knee. *)
let ladder = function
  | Wl.Htap -> [ 60.; 45.; 38.; 34.; 31.; 29.; 27. ]
  | Wl.Oltp_durable -> [ 66.; 50.; 40.; 36.; 33.; 31.; 29. ]
  | Wl.Shard_2pc -> [ 18.; 16.; 14.; 13.; 12.; 11.; 10.; 9. ]

type rung = {
  interval_us : float;
  offered_ktps : float;
  achieved_ktps : float;
  p99_us : float;  (** infinity when failures alone exceed 1 % *)
  failed : int;
  pass : bool;
}

let probe k ~seed ~interval_us =
  let r = Wl.run k ~seed ~interval_us ~horizon_ms:(rung_ms k) in
  let v = Wl.virt_of k r.Wl.node in
  let offered = Wl.offered_ktps k ~interval_us in
  {
    interval_us;
    offered_ktps = offered;
    achieved_ktps = v.Wl.hp_ktps;
    p99_us = v.Wl.hp_p99_us;
    failed = v.Wl.hp_failed;
    pass = v.Wl.hp_p99_us <= limit_us && v.Wl.hp_ktps >= keep_up *. offered;
  }

(* The rungs probed, in order, and the committed kTPS at the last passing
   rung (0 when the lightest one misses). *)
let search k ~seed =
  let rec climb best acc = function
    | [] -> (List.rev acc, best)
    | i :: rest ->
      let r = probe k ~seed ~interval_us:i in
      if r.pass then climb r.achieved_ktps (r :: acc) rest else (List.rev (r :: acc), best)
  in
  climb 0. [] (ladder k)
