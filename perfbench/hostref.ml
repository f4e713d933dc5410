(* Host speed reference.  A shared host runs the same code up to half
   again slower in some minutes than in others, for whole runs at a time,
   so a raw host-time figure measures the neighbours as much as the
   simulator.  This fixed, stdlib-only loop (balanced-tree inserts and
   lookups: allocation and pointer chasing, the simulator's own mix) is
   timed beside every timing run; its best time says how fast the host is
   running now.  The host metrics are scaled to [nominal_s], the loop's
   best time on a calm host, which cut the run-to-run spread of the
   simulation rate from about 30 % to about 7 % on the 2-vCPU VM it was
   tuned on.  The loop is part of the benchmark, not of the system under
   test, so a change to the system cannot move it. *)

module M = Map.Make (Int)

let nominal_s = 0.030
let samples = ref []

let sample () =
  for _ = 1 to 3 do
    let t0 = Unix.gettimeofday () in
    let m = ref M.empty in
    for i = 1 to 20_000 do
      m := M.add (i * 7919 land 65535) i !m
    done;
    let s = ref 0 in
    for i = 1 to 200_000 do
      match M.find_opt (i * 31 land 65535) !m with Some v -> s := !s + v | None -> ()
    done;
    ignore (Sys.opaque_identity !s);
    samples := (Unix.gettimeofday () -. t0) :: !samples
  done

let best () = List.fold_left Float.min infinity !samples

(* How much slower than nominal the host ran (> 1 = slower). *)
let slowdown () = best () /. nominal_s
