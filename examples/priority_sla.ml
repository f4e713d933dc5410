(* Tuning the starvation threshold for a latency/throughput SLA (§5, §6.4).

   Under a flood of high-priority requests, the starvation threshold L_max
   decides how much CPU the preemptive path may steal from low-priority
   analytics.  This example sweeps the threshold under overload and shows
   the tradeoff frontier, mirroring Figure 12.

     dune exec examples/priority_sla.exe *)

module Config = Preemptdb.Config
module Runner = Preemptdb.Runner

let () =
  Format.printf "Starvation-threshold tuning under high-priority overload@.";
  Format.printf "4 workers, hp queue 50, 400 hp requests per ms@.@.";
  Format.printf "%-10s %14s %14s %12s@." "L_max" "NO-p99(us)" "Q2-p99(us)" "Q2-kTPS";
  List.iter
    (fun threshold ->
      let cfg =
        {
          (Config.default ~policy:(Config.Preempt threshold) ~n_workers:4 ()) with
          Config.hp_queue_size = 50;
        }
      in
      let r = Runner.run ~workload:Runner.Mixed ~cfg ~horizon_sec:0.03 ~hp_batch:400 () in
      let l label pct =
        match Runner.latency_us r label ~pct with Some v -> v | None -> nan
      in
      Format.printf "%-10g %14.1f %14.1f %12.2f@." threshold (l "NewOrder" 99.)
        (l "Q2" 99.)
        (Runner.throughput_ktps r "Q2"))
    [ 0.0; 0.25; 0.5; 0.75; 1.0 ];
  Format.printf
    "@.Pick the row matching your SLA: low thresholds protect analytics,@.";
  Format.printf "high thresholds protect transactional tail latency.@."
