(* Host spans around the benchmark's calls into each layer: name, start,
   end (seconds since the process started recording) and the enclosing
   span.  Kept in memory; recording is off unless [enable] was called, so
   the untraced measurement pays nothing. *)

type t = { id : int; name : string; parent : int; start : float; mutable stop : float }

let on = ref false
let spans : t list ref = ref []
let stack : int list ref = ref []
let next = ref 0
let t0 = Unix.gettimeofday ()
let enable () = on := true

let with_ name f =
  if not !on then f ()
  else begin
    incr next;
    let s =
      {
        id = !next;
        name;
        parent = (match !stack with p :: _ -> p | [] -> 0);
        start = Unix.gettimeofday () -. t0;
        stop = nan;
      }
    in
    spans := s :: !spans;
    stack := s.id :: !stack;
    Fun.protect
      ~finally:(fun () ->
        s.stop <- Unix.gettimeofday () -. t0;
        stack := List.tl !stack)
      f
  end

let all () = List.rev !spans

(* Self time per span name: duration minus the time its children cover. *)
let self_times () =
  let child = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let d = s.stop -. s.start in
      Hashtbl.replace child s.parent
        (d +. Option.value ~default:0. (Hashtbl.find_opt child s.parent)))
    !spans;
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let self =
        s.stop -. s.start -. Option.value ~default:0. (Hashtbl.find_opt child s.id)
      in
      let n, tot = Option.value ~default:(0, 0.) (Hashtbl.find_opt tbl s.name) in
      Hashtbl.replace tbl s.name (n + 1, tot +. self))
    !spans;
  List.sort
    (fun (_, (_, a)) (_, (_, b)) -> compare b a)
    (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

let to_json () =
  Obs.Json.List
    (List.map
       (fun s ->
         Obs.Json.Obj
           [
             ("id", Obs.Json.Int s.id);
             ("name", Obs.Json.String s.name);
             ("parent", Obs.Json.Int s.parent);
             ("start_s", Obs.Json.Float s.start);
             ("end_s", Obs.Json.Float s.stop);
           ])
       (all ()))
