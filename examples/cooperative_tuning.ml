(* Why cooperative scheduling is hard to tune (§6.3, Figure 11).

   Sweeps the yield interval of the cooperative baseline and shows the
   bind: frequent yields give good high-priority latency but tax the
   long-running queries; infrequent yields do the reverse; the
   "handcrafted" variant needs engine surgery per workload.  PreemptDB
   sidesteps the dial entirely.

     dune exec examples/cooperative_tuning.exe *)

module Config = Preemptdb.Config
module Runner = Preemptdb.Runner

let run policy =
  let cfg = Config.default ~policy ~n_workers:4 () in
  Runner.run ~workload:Runner.Mixed ~cfg ~horizon_sec:0.03 ()

let print_row name r =
  let l label pct = match Runner.latency_us r label ~pct with Some v -> v | None -> nan in
  Format.printf "%-24s %12.1f %12.1f %12.1f@." name
    (l "NewOrder" 99.)
    (l "Q2" 50.)
    (l "Q2" 99.)

let () =
  Format.printf "Cooperative yield-interval tuning (4 workers, mixed workload)@.@.";
  Format.printf "%-24s %12s %12s %12s@." "variant" "NO-p99(us)" "Q2-p50(us)" "Q2-p99(us)";
  List.iter
    (fun interval ->
      print_row
        (Printf.sprintf "Cooperative(%d)" interval)
        (run (Config.Cooperative interval)))
    [ 1; 100; 10_000; 100_000 ];
  print_row "Handcrafted(1000)" (run (Config.Cooperative_handcrafted 1000));
  print_row "PreemptDB (no tuning)" (run (Config.Preempt 1.0));
  Format.printf
    "@.No single yield interval wins both columns; preemption does not need one.@."
