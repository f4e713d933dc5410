(* HTAP mixed workload — the paper's motivating scenario (§1).

   Long, low-priority TPC-H Q2 "operational reporting" dominates every
   core while short, high-priority TPC-C NewOrder/Payment "sales"
   transactions arrive every millisecond.  Runs the same configuration
   under Wait, Cooperative, and PreemptDB and prints the latency picture
   side by side.

     dune exec examples/htap_mixed.exe *)

module Config = Preemptdb.Config
module Runner = Preemptdb.Runner

let () =
  Format.printf "HTAP mix: Q2 (low priority) + NewOrder/Payment (high priority)@.";
  Format.printf "4 workers, 1ms arrival interval, 30ms virtual horizon@.@.";
  let results =
    List.map
      (fun (name, policy) ->
        let cfg = Config.default ~policy ~n_workers:4 () in
        name, Runner.run ~workload:Runner.Mixed ~cfg ~horizon_sec:0.03 ())
      [
        "Wait", Config.Wait;
        "Cooperative(10k)", Config.Cooperative 10_000;
        "PreemptDB", Config.Preempt 1.0;
      ]
  in
  Format.printf "%-18s %12s %12s %12s %12s@." "policy" "NO-p50(us)" "NO-p99(us)"
    "Q2-p50(us)" "Q2-kTPS";
  List.iter
    (fun (name, r) ->
      let l label pct =
        match Runner.latency_us r label ~pct with Some v -> v | None -> nan
      in
      Format.printf "%-18s %12.1f %12.1f %12.1f %12.2f@." name (l "NewOrder" 50.)
        (l "NewOrder" 99.) (l "Q2" 50.)
        (Runner.throughput_ktps r "Q2"))
    results;
  Format.printf "@.The preemptive engine answers sales transactions in tens of@.";
  Format.printf "microseconds while the reporting queries keep their throughput.@.";
  (* peek at the mechanism *)
  (match List.assoc_opt "PreemptDB" results with
  | Some r ->
    Format.printf "@.mechanism: %d senduipi, %d recognized, %d passive switches,@."
      r.Runner.uintr_sends r.Runner.workers.Runner.uintr_recognized
      r.Runner.workers.Runner.passive_switches;
    Format.printf "           %d active switches back, %d dropped in regions@."
      r.Runner.workers.Runner.active_switches r.Runner.workers.Runner.drops_region
  | None -> ())
