module J = Obs.Json

type t = { version : int; metrics : (string * float) list }

let current_version = 1

(* -- The pinned suite -------------------------------------------------------
   Everything here is deliberately frozen: seeds, worker counts, horizons,
   arrival rates.  The simulator is seeded-RNG + integer cycle math, so the
   collected numbers are a pure function of this file and the engine —
   any change in them is a real behavior change, not noise. *)

let horizon_sec = 0.04
let workers = 4

let stage_metrics clock (st : Uintr.Stages.t) =
  List.filter_map
    (fun (name, h) ->
      if Sim.Histogram.is_empty h then None
      else
        Some
          ( Printf.sprintf "stage_%s_p99_us" name,
            Sim.Clock.us_of_cycles clock (Sim.Histogram.percentile h 99.) ))
    [
      ("send_to_deliver", Uintr.Stages.send_to_deliver st);
      ("deliver_to_recognize", Uintr.Stages.deliver_to_recognize st);
      ("recognize_to_switch", Uintr.Stages.recognize_to_switch st);
      ("switch_to_resume", Uintr.Stages.switch_to_resume st);
      ("send_to_resume", Uintr.Stages.send_to_resume st);
    ]

let class_metrics (r : Runner.result) labels =
  List.concat_map
    (fun label ->
      (Printf.sprintf "%s_ktps" label, Runner.throughput_ktps r label)
      :: List.filter_map
           (fun (suffix, get) ->
             Option.map (fun v -> (Printf.sprintf "%s_%s" label suffix, v)) (get ()))
           [
             ("p99_us", fun () -> Runner.latency_us r label ~pct:99.);
             ("sched_p99_us", fun () -> Runner.sched_latency_us r label ~pct:99.);
           ])
    labels

let info_metrics (r : Runner.result) =
  let virtual_us = Sim.Clock.us_of_cycles r.Runner.clock r.Runner.horizon in
  if r.Runner.wall_s > 0. then
    [ ("info_sim_rate_virtual_us_per_s", virtual_us /. r.Runner.wall_s) ]
  else []

let cell name metrics = List.map (fun (k, v) -> (name ^ "." ^ k, v)) metrics

let collect () =
  let cfg policy =
    { (Config.default ~policy ~n_workers:workers ()) with Config.seed = 42L }
  in
  let preempt = Runner.run ~workload:Runner.Mixed ~cfg:(cfg (Config.Preempt 1.0))
    ~horizon_sec () in
  let wait = Runner.run ~workload:Runner.Mixed ~cfg:(cfg Config.Wait) ~horizon_sec () in
  let dur_cfg =
    Config.with_durability ~durability:Config.default_durability
      (cfg (Config.Preempt 1.0))
  in
  let dur =
    Runner.run ~workload:Runner.Mixed ~cfg:dur_cfg ~arrival_interval_us:40. ~horizon_sec ()
  in
  let commit_wait_p99 (r : Runner.result) =
    match Runner.commit_wait_us r "NewOrder" ~pct:99. with
    | Some v -> [ ("NewOrder_commit_wait_p99_us", v) ]
    | None -> []
  in
  {
    version = current_version;
    metrics =
      cell "mixed_preempt"
        (class_metrics preempt [ "NewOrder"; "Payment"; "Q2" ]
        @ stage_metrics preempt.Runner.clock preempt.Runner.stages
        @ info_metrics preempt)
      @ cell "mixed_wait" (class_metrics wait [ "NewOrder"; "Q2" ] @ info_metrics wait)
      @ cell "durability_preempt"
          (class_metrics dur [ "NewOrder" ] @ commit_wait_p99 dur @ info_metrics dur);
  }

(* -- Serialization ---------------------------------------------------------- *)

let to_json t =
  J.Obj
    [
      ("version", J.Int t.version);
      ("metrics", J.Obj (List.map (fun (k, v) -> (k, J.Float v)) t.metrics));
    ]

let of_json json =
  match J.member "version" json, J.member "metrics" json with
  | Some v, Some (J.Obj fields) -> (
    match J.to_int_opt v with
    | None -> Error "baseline: version is not an integer"
    | Some version -> (
      let metrics =
        List.filter_map
          (fun (k, v) -> Option.map (fun f -> (k, f)) (J.to_float_opt v))
          fields
      in
      if List.length metrics <> List.length fields then
        Error "baseline: non-numeric metric value"
      else Ok { version; metrics }))
  | _ -> Error "baseline: missing version/metrics fields"

let write ~path t =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (J.to_string ~minify:false (to_json t) ^ "\n"))

let read ~path =
  match
    In_channel.with_open_text path (fun ic -> In_channel.input_all ic)
  with
  | exception Sys_error msg -> Error msg
  | s -> (
    match J.parse s with Error e -> Error ("baseline: " ^ e) | Ok j -> of_json j)

(* -- Comparison ------------------------------------------------------------- *)

type verdict = {
  metric : string;
  base : float option;
  fresh : float option;
  delta_pct : float;
  regressed : bool;
  informational : bool;
}

let is_info name =
  (* the cell prefix comes first: "mixed_preempt.info_sim_rate..." *)
  let name = match String.index_opt name '.' with
    | Some i -> String.sub name (i + 1) (String.length name - i - 1)
    | None -> name
  in
  String.length name >= 5 && String.sub name 0 5 = "info_"

let higher_is_better name =
  let suffix s =
    let ls = String.length s and ln = String.length name in
    ln >= ls && String.sub name (ln - ls) ls = s
  in
  if suffix "_ktps" then true
  else if suffix "_us" then false
  else true (* counts default to higher-is-better *)

let diff ~base ~fresh ~tolerance_pct =
  if base.version <> fresh.version then
    invalid_arg
      (Printf.sprintf "Baseline.diff: schema version mismatch (base %d, fresh %d)"
         base.version fresh.version);
  let keys =
    List.map fst base.metrics
    @ List.filter
        (fun k -> not (List.mem_assoc k base.metrics))
        (List.map fst fresh.metrics)
  in
  List.map
    (fun metric ->
      let b = List.assoc_opt metric base.metrics in
      let f = List.assoc_opt metric fresh.metrics in
      let informational = is_info metric in
      match b, f with
      | Some b_v, Some f_v ->
        let delta_pct =
          if b_v = 0. then if f_v = 0. then 0. else Float.infinity
          else (f_v -. b_v) /. Float.abs b_v *. 100.
        in
        let worse =
          if higher_is_better metric then delta_pct < -.tolerance_pct
          else delta_pct > tolerance_pct
        in
        {
          metric;
          base = Some b_v;
          fresh = Some f_v;
          delta_pct;
          regressed = (not informational) && worse;
          informational;
        }
      | _ ->
        (* a metric appearing or disappearing is schema drift — gate it *)
        {
          metric;
          base = b;
          fresh = f;
          delta_pct = Float.nan;
          regressed = not informational;
          informational;
        })
    keys

let regressions verdicts = List.filter (fun v -> v.regressed) verdicts

let pp_verdicts ppf verdicts =
  let opt = function Some v -> Printf.sprintf "%14.4f" v | None -> "       missing" in
  Format.fprintf ppf "  %-55s %14s %14s %9s@." "metric" "baseline" "fresh" "delta";
  List.iter
    (fun v ->
      let delta =
        if Float.is_nan v.delta_pct then "      -"
        else Printf.sprintf "%+6.2f%%" v.delta_pct
      in
      let flag =
        if v.regressed then "  REGRESSED"
        else if v.informational then "  (info)"
        else ""
      in
      Format.fprintf ppf "  %-55s %s %s %s%s@." v.metric (opt v.base) (opt v.fresh)
        delta flag)
    verdicts

let perturb_worse t ~pct =
  {
    t with
    metrics =
      List.map
        (fun (k, v) ->
          if is_info k then (k, v)
          else
            let factor = pct /. 100. in
            (k, if higher_is_better k then v *. (1. -. factor) else v *. (1. +. factor)))
        t.metrics;
  }
