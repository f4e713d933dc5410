(* Preemption timeline: watch the mechanism work, event by event.

   Runs a short preemptive mixed workload on one worker with an
   observability sink attached and prints the typed scheduling timeline —
   Q2 starting, a user interrupt (send → recognize) preempting it into
   context 1, NewOrder/Payment executing, and the active switch returning
   to the paused Q2.  The same events export to Perfetto via
   `preemptdb_cli trace`.

     dune exec examples/preemption_timeline.exe *)

module Config = Preemptdb.Config
module Runner = Preemptdb.Runner

let () =
  let obs = Obs.Sink.create ~capacity:200 () in
  let cfg = Config.default ~policy:(Config.Preempt 1.0) ~n_workers:1 () in
  let r =
    Runner.run ~workload:Runner.Mixed ~cfg ~obs ~arrival_interval_us:500. ~horizon_sec:0.004 ()
  in
  Format.printf "scheduling timeline (one worker, 4ms of virtual time):@.@.";
  Format.printf "%a@." (Obs.Sink.pp r.Runner.clock) obs;
  Format.printf "(%d events recorded, %d lost to the 200-entry rings)@."
    (Obs.Sink.recorded obs) (Obs.Sink.dropped obs)
