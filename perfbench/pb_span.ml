(* The benchmark's own span recorder.  Spans are taken from the
   benchmark's files around its calls into the layers: name, start, end,
   parent span, and the id of the workload operation they belong to.
   They stay in memory and are written as Chrome trace-event JSON
   (loadable in Perfetto) when the run ends.  Off, [with_span] is one
   load and a branch. *)

type span = {
  id : int;
  name : string;
  op : int;
  parent : int;  (* 0 = root *)
  track : int;  (* 0 = main thread; serve connections use 1, 2, ... *)
  t0 : float;
  t1 : float;
}

let on = ref false
let lock = Mutex.create ()
let spans : span list ref = ref []
let next_id = ref 1

(* open spans of the main thread, innermost first *)
let stack : int list ref = ref []

let fresh_id () =
  Mutex.protect lock (fun () ->
      let i = !next_id in
      incr next_id;
      i)

let add s = Mutex.protect lock (fun () -> spans := s :: !spans)
let current () = match !stack with p :: _ -> p | [] -> 0

(* [f ()] inside a span nested under the main thread's innermost one. *)
let with_span ?(op = 0) name f =
  if not !on then f ()
  else begin
    let id = fresh_id () in
    let parent = current () in
    stack := id :: !stack;
    let t0 = Pb.now () in
    Fun.protect
      ~finally:(fun () ->
        stack := List.tl !stack;
        add { id; name; op; parent; track = 0; t0; t1 = Pb.now () })
      f
  end

(* An interval timed by the caller, for threads other than the main one:
   they name their parent explicitly. *)
let record ?(id = 0) ~parent ~track ~op name t0 t1 =
  if !on then
    add
      {
        id = (if id = 0 then fresh_id () else id);
        name;
        op;
        parent;
        track;
        t0;
        t1;
      }

(* A traced run's repetitions: untraced and traced alternate, so drift
   over the run (heap growth, neighbours on the host) falls on both sides
   alike.  Returns (untraced, traced). *)
let repeat_alternating ~seconds rep =
  let reps =
    Pb.repeat ~seconds ~min_reps:4 (fun k ->
        on := k mod 2 = 1;
        Fun.protect ~finally:(fun () -> on := false) (fun () -> (!on, rep k)))
  in
  ( List.filter_map (fun (t, r) -> if t then None else Some r) reps,
    List.filter_map (fun (t, r) -> if t then Some r else None) reps )

(* Self time of each span: its duration minus the part its children on
   the same track cover (children nest inside their parent; children on
   other tracks ran concurrently with it). *)
let self_times () =
  let spans = !spans in
  let by_id = Hashtbl.create 1024 in
  List.iter (fun s -> Hashtbl.replace by_id s.id s) spans;
  let child = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      match Hashtbl.find_opt by_id s.parent with
      | Some p when p.track = s.track ->
          Hashtbl.replace child s.parent
            ((s.t1 -. s.t0)
            +. Option.value ~default:0.0 (Hashtbl.find_opt child s.parent))
      | _ -> ())
    spans;
  List.map
    (fun s ->
      let covered = Option.value ~default:0.0 (Hashtbl.find_opt child s.id) in
      (s, s.t1 -. s.t0 -. covered))
    spans

(* Summed self time per span name, sorted by name. *)
let self_by_name () =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun (s, self) ->
      let n, t = Option.value ~default:(0, 0.0) (Hashtbl.find_opt tbl s.name) in
      Hashtbl.replace tbl s.name (n + 1, t +. self))
    (self_times ());
  List.sort compare (Hashtbl.fold (fun k (n, t) acc -> (k, n, t) :: acc) tbl [])

(* Summed self time of every span in the subtrees rooted at spans named
   [root], per operation id. *)
let subtree_self root =
  let selfs = self_times () in
  let by_id = Hashtbl.create 1024 in
  List.iter (fun (s, _) -> Hashtbl.replace by_id s.id s) selfs;
  let rec under s =
    s.name = root
    || (s.parent <> 0
       && match Hashtbl.find_opt by_id s.parent with
          | Some p -> under p
          | None -> false)
  in
  let by_op = Hashtbl.create 16 in
  List.iter
    (fun (s, self) ->
      if under s then
        Hashtbl.replace by_op s.op
          (self +. Option.value ~default:0.0 (Hashtbl.find_opt by_op s.op)))
    selfs;
  Hashtbl.fold (fun _ t acc -> t :: acc) by_op []

let write path =
  let spans = List.rev !spans in
  let base =
    List.fold_left (fun acc s -> Float.min acc s.t0) infinity spans
  in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc "{\"traceEvents\":[";
      List.iteri
        (fun i s ->
          Printf.fprintf oc
            "%s\n{\"name\":%S,\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.1f,\"dur\":%.1f,\"args\":{\"id\":%d,\"parent\":%d,\"op\":%d}}"
            (if i = 0 then "" else ",")
            s.name s.track
            ((s.t0 -. base) *. 1e6)
            ((s.t1 -. s.t0) *. 1e6)
            s.id s.parent s.op)
        spans;
      output_string oc "\n]}\n")
