(* Differential proof harness for the timing-wheel event queue.

   The wheel ([Sim.Event_queue]) replaced the boxed binary min-heap on the
   simulator's hottest path.  Its contract is not "a correct priority
   queue" but something stronger: *bit-identical pop order* to the heap it
   replaced, because every schedule the simulator has ever produced —
   baselines, regression traces, the 27 gated perf metrics — is defined by
   that order.  This suite drives the wheel and the reference heap
   ([Sim.Event_queue_ref], kept verbatim as the oracle) through:

   - 10,000+ randomized operation scripts covering duplicate timestamps,
     same-tick bursts, far-future times beyond the 2^40 wheel horizon
     (overflow promotion), pushes behind the cursor (backfill), byte-level
     cursor rollover, and mid-script clears; and
   - a real bench-tpcc-shaped operation trace captured from a live
     [Runner.run ~workload:Runner.Tpcc] via [Sim.Des.set_queue_tracer] and replayed against
     both implementations,

   asserting identical [(time, payload)] streams pop for pop.  The oracle
   is referenced statically below, so deleting [Event_queue_ref] breaks
   this file at compile time — deliberately. *)

module Wheel = Sim.Event_queue
module Ref_heap = Sim.Event_queue_ref
module Des = Sim.Des
module Config = Preemptdb.Config
module Runner = Preemptdb.Runner

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

(* -- lockstep mirror ----------------------------------------------------- *)

(* Both queues driven through identical ops; payloads are push-order ids,
   so equal [(time, id)] streams prove the FIFO tie-break agrees too. *)
type mirror = {
  w : int Wheel.t;
  r : int Ref_heap.t;
  mutable next_id : int;
}

let mirror () = { w = Wheel.create (); r = Ref_heap.create (); next_id = 0 }

let push m time =
  Wheel.push m.w ~time m.next_id;
  Ref_heap.push m.r ~time m.next_id;
  m.next_id <- m.next_id + 1

let pop_both ~ctx m =
  match (Wheel.pop m.w, Ref_heap.pop m.r) with
  | None, None -> None
  | Some (tw, vw), Some (tr, vr) ->
    if not (Int64.equal tw tr && vw = vr) then
      Alcotest.failf "%s: wheel popped (%Ld, #%d) but reference popped (%Ld, #%d)"
        ctx tw vw tr vr;
    Some (tw, vw)
  | Some (tw, vw), None ->
    Alcotest.failf "%s: wheel popped (%Ld, #%d) but reference is empty" ctx tw vw
  | None, Some (tr, vr) ->
    Alcotest.failf "%s: wheel empty but reference popped (%Ld, #%d)" ctx tr vr

let check_agree ~ctx m =
  if Wheel.length m.w <> Ref_heap.length m.r then
    Alcotest.failf "%s: length %d (wheel) vs %d (reference)" ctx
      (Wheel.length m.w) (Ref_heap.length m.r);
  match (Wheel.peek_time m.w, Ref_heap.peek_time m.r) with
  | None, None -> ()
  | Some a, Some b when Int64.equal a b -> ()
  | a, b ->
    let s = function None -> "empty" | Some t -> Int64.to_string t in
    Alcotest.failf "%s: peek %s (wheel) vs %s (reference)" ctx (s a) (s b)

let drain_both ~ctx m =
  let rec loop n =
    match pop_both ~ctx m with None -> n | Some _ -> loop (n + 1)
  in
  let n = loop 0 in
  check_agree ~ctx m;
  n

(* -- randomized scripts --------------------------------------------------- *)

(* Times are generated relative to an advancing [base] (mirroring the DES,
   where the cursor follows popped event times), hitting every regime the
   wheel treats specially: L0 ties and near clusters, higher-level slots,
   far-future beyond the 2^40 horizon (overflow heap, later promoted back
   into the wheel), and times behind the cursor (backfill heap). *)
let gen_time st base =
  match Random.State.int st 100 with
  | n when n < 30 -> Int64.add base (Int64.of_int (Random.State.int st 8))
  | n when n < 50 -> base (* exact duplicate: FIFO tie-break territory *)
  | n when n < 65 -> Int64.add base (Int64.of_int (Random.State.int st 65536))
  | n when n < 78 -> Int64.add base (Int64.of_int (Random.State.full_int st (1 lsl 30)))
  | n when n < 88 ->
    (* beyond the wheel horizon: must land in overflow and promote back *)
    Int64.add base (Int64.of_int ((1 lsl 41) + Random.State.full_int st (1 lsl 42)))
  | _ ->
    (* behind the cursor once pops have advanced it: backfill *)
    let back = Int64.sub base (Int64.of_int (1 + Random.State.int st 4096)) in
    if Int64.compare back 0L < 0 then 0L else back

let run_script seed =
  let st = Random.State.make [| 0xd1f; seed |] in
  let m = mirror () in
  let n_ops = 40 + Random.State.int st 160 in
  let base = ref 0L in
  for op = 1 to n_ops do
    let ctx = Printf.sprintf "script %d op %d" seed op in
    match Random.State.int st 100 with
    | n when n < 55 -> push m (gen_time st !base)
    | n when n < 90 -> (
      match pop_both ~ctx m with
      | Some (t, _) -> base := t (* the DES cursor follows popped times *)
      | None -> ())
    | n when n < 92 ->
      (* rare wholesale reset: also covers clear-resets-seq in lockstep *)
      Wheel.clear m.w;
      Ref_heap.clear m.r;
      base := 0L
    | _ -> check_agree ~ctx m
  done;
  ignore (drain_both ~ctx:(Printf.sprintf "script %d drain" seed) m)

let test_random_scripts () =
  let n_scripts = 10_000 in
  for seed = 1 to n_scripts do
    run_script seed
  done

(* -- targeted edge cases -------------------------------------------------- *)

let test_duplicate_timestamps () =
  let m = mirror () in
  (* one big same-tick burst: pop order must be exactly insertion order *)
  for _ = 1 to 1_000 do
    push m 77L
  done;
  let rec loop expect =
    match pop_both ~ctx:"dup burst" m with
    | None -> checki "all popped" 1_000 expect
    | Some (t, v) ->
      checkb "time is the tick" true (Int64.equal t 77L);
      checki "FIFO among ties" expect v;
      loop (expect + 1)
  in
  loop 0

let test_horizon_rollover () =
  (* times straddling every byte boundary of the wheel's five levels, pushed
     in a shuffled order, must still drain identically *)
  let boundaries =
    [
      0L; 1L; 254L; 255L; 256L; 257L; 511L; 512L;
      65_535L; 65_536L; 65_537L;
      16_777_215L; 16_777_216L; 16_777_217L;
      4_294_967_295L; 4_294_967_296L; 4_294_967_297L;
      1_099_511_627_775L (* 2^40 - 1: last in-wheel time from cursor 0 *);
      1_099_511_627_776L (* 2^40: first overflow time *);
      1_099_511_627_777L;
    ]
  in
  let st = Random.State.make [| 0xb0b |] in
  let arr = Array.of_list (boundaries @ boundaries) in
  for i = Array.length arr - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done;
  let m = mirror () in
  Array.iter (fun t -> push m t) arr;
  checki "drained all" (Array.length arr) (drain_both ~ctx:"rollover" m)

let test_overflow_promotion () =
  (* events pushed beyond the 2^40 horizon sit in the overflow heap; as pops
     advance the cursor they must re-enter the wheel and interleave with
     near events in exactly the order the reference heap reports *)
  let m = mirror () in
  let far k = Int64.of_int ((1 lsl 40) + (k * (1 lsl 20))) in
  for k = 9 downto 0 do
    push m (far k)
  done;
  for k = 0 to 9 do
    push m (Int64.of_int (k * 100))
  done;
  (* pop the near batch, pushing new events past the horizon as we go *)
  for k = 0 to 9 do
    (match pop_both ~ctx:"promotion near" m with
    | Some (t, _) -> checkb "near first" true (Int64.equal t (Int64.of_int (k * 100)))
    | None -> Alcotest.fail "queue empty during near batch");
    push m (far (20 + k))
  done;
  checki "far batch drains in step" 20 (drain_both ~ctx:"promotion far" m)

let test_backfill_behind_cursor () =
  (* the DES clamps past schedules, but the queue itself must handle raw
     pushes below the cursor (the backfill heap) identically to the ref *)
  let m = mirror () in
  List.iter (fun t -> push m t) [ 100L; 200L; 300L ];
  ignore (pop_both ~ctx:"backfill warm" m);
  ignore (pop_both ~ctx:"backfill warm" m);
  (* cursor now at 200; push below, at, and above it *)
  List.iter (fun t -> push m t) [ 50L; 150L; 199L; 200L; 250L ];
  let popped = ref [] in
  let rec loop () =
    match pop_both ~ctx:"backfill drain" m with
    | Some (t, _) ->
      popped := t :: !popped;
      loop ()
    | None -> ()
  in
  loop ();
  Alcotest.(check (list int64))
    "backfill interleaves in time order"
    [ 50L; 150L; 199L; 200L; 250L; 300L ]
    (List.rev !popped)

(* Regression for the clear bug: both implementations must reset the
   tie-break counter on [clear], so a cleared queue replays a script with
   the exact pop order of a fresh queue. *)
let test_clear_resets_tie_break () =
  let script q push_fn pop_fn =
    List.iter (fun t -> push_fn q t) [ 5L; 5L; 3L; 5L; 3L ];
    let rec drain acc =
      match pop_fn q with None -> List.rev acc | Some e -> drain (e :: acc)
    in
    drain []
  in
  (* wheel *)
  let fresh_w = Wheel.create () in
  let ids = ref 0 in
  let wpush q t = incr ids; Wheel.push q ~time:t !ids in
  let expect = script fresh_w wpush Wheel.pop in
  let used_w = Wheel.create () in
  Wheel.push used_w ~time:9L 999;
  Wheel.push used_w ~time:1L 998;
  ignore (Wheel.pop used_w);
  Wheel.clear used_w;
  ids := 0;
  let got = script used_w wpush Wheel.pop in
  Alcotest.(check (list (pair int64 int))) "wheel: cleared == fresh" expect got;
  (* reference heap: same contract *)
  let fresh_r = Ref_heap.create () in
  ids := 0;
  let rpush q t = incr ids; Ref_heap.push q ~time:t !ids in
  let expect_r = script fresh_r rpush Ref_heap.pop in
  let used_r = Ref_heap.create () in
  Ref_heap.push used_r ~time:9L 999;
  ignore (Ref_heap.pop used_r);
  Ref_heap.clear used_r;
  ids := 0;
  let got_r = script used_r rpush Ref_heap.pop in
  Alcotest.(check (list (pair int64 int))) "ref: cleared == fresh" expect_r got_r;
  Alcotest.(check (list (pair int64 int))) "wheel == ref after clear" expect got_r

(* -- workload-shaped trace ------------------------------------------------ *)

(* Capture every queue operation of a real (small) TPC-C run through
   [Des.set_queue_tracer], then replay the trace against a fresh wheel AND
   the reference heap in lockstep.  Each recorded pop must match what both
   replicas produce — proving the production run's schedule is exactly the
   schedule the old heap would have computed. *)
let test_tpcc_trace_replay () =
  let trace = ref [] in
  let installed = ref false in
  let prepare (a : Runner.assembly) =
    (* the replay below assumes every live event was traced from birth *)
    Alcotest.(check int64) "queue empty at tracer install" Int64.max_int
      (Des.next_event_time a.Runner.des);
    Des.set_queue_tracer a.Runner.des (Some (fun op -> trace := op :: !trace));
    installed := true
  in
  let cfg =
    { (Config.default ~policy:(Config.Preempt 1.0) ~n_workers:4 ()) with
      Config.seed = 7L }
  in
  let r = Runner.run ~workload:Runner.Tpcc ~cfg ~horizon_sec:0.005 ~prepare () in
  checkb "tracer installed" true !installed;
  checkb "run did work" true (r.Runner.events > 1_000);
  let ops = List.rev !trace in
  let m = mirror () in
  let pushes = ref 0 and pops = ref 0 in
  List.iter
    (fun op ->
      match op with
      | Wheel.Op_push t ->
        incr pushes;
        push m t
      | Wheel.Op_pop t -> (
        incr pops;
        match pop_both ~ctx:(Printf.sprintf "trace pop %d" !pops) m with
        | Some (tr, _) ->
          if not (Int64.equal tr t) then
            Alcotest.failf "trace pop %d: live run popped %Ld, replicas popped %Ld"
              !pops t tr
        | None ->
          Alcotest.failf "trace pop %d: live run popped %Ld on empty replicas"
            !pops t)
      | Wheel.Op_clear ->
        Wheel.clear m.w;
        Ref_heap.clear m.r)
    ops;
  (* every event the live run processed went through the traced queue *)
  checki "replay saw every processed event" r.Runner.events !pops;
  checkb "trace is workload-sized" true (!pushes > 1_000);
  ignore (drain_both ~ctx:"trace leftover" m)

let () =
  Alcotest.run "queue_diff"
    [
      ( "differential",
        [
          Alcotest.test_case "10k randomized scripts" `Quick test_random_scripts;
          Alcotest.test_case "duplicate timestamps" `Quick test_duplicate_timestamps;
          Alcotest.test_case "horizon rollover" `Quick test_horizon_rollover;
          Alcotest.test_case "overflow promotion" `Quick test_overflow_promotion;
          Alcotest.test_case "backfill behind cursor" `Quick test_backfill_behind_cursor;
          Alcotest.test_case "clear resets tie-break" `Quick test_clear_resets_tie_break;
        ] );
      ( "workload-trace",
        [ Alcotest.test_case "tpcc trace replay" `Quick test_tpcc_trace_replay ] );
    ]
