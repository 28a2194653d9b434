(* serve: a serve_main child with one worker domain and the default poll
   front end (no arena), driven by two connections of this process in a
   closed loop: each connection waits for a reply whose handles its next
   request uses.  Singleton frames, loadgen's request mix.  The service
   uses the kernel differently from the other workloads (thousands of
   tiny per-session managers) and its time goes to serve, mt and proto.

   Each connection closes its session and opens a new one every
   [session_requests] requests, as loadgen's --churn does, so the state a
   session holds does not grow with the rate.

   Replies are only recorded while the load runs; they are checked
   against a local oracle (mirror BDDs, as loadgen keeps) after the
   window, so the rate measures the server, not the checker.  The timed
   window starts after a warm-up: a fresh server runs slower for its first
   second or so. *)

open Pb
module P = Serve.Proto

let nvars = 12
let connections = 2

(* Requests per session.  In this mix a session only grows, so without a
   fresh session now and then a faster server would end the window holding
   more state and memory. *)
let session_requests = 1000
let warmup = 1.5
let server_starts = 20
let bench_blif = lazy (Blif.to_string (Generate.counter ~bits:4))

(* --- the server child ----------------------------------------------------- *)

type server = { pid : int; sock : string; mutable alive : bool }

let stop_server srv =
  if srv.alive then begin
    srv.alive <- false;
    (try Unix.kill srv.pid Sys.sigterm with Unix.Unix_error _ -> ());
    let _, status = Unix.waitpid [] srv.pid in
    (try Unix.unlink srv.sock with Unix.Unix_error _ -> ());
    status = Unix.WEXITED 0
  end
  else true

let kill_server srv =
  if srv.alive then begin
    srv.alive <- false;
    (try Unix.kill srv.pid Sys.sigkill with Unix.Unix_error _ -> ());
    (try ignore (Unix.waitpid [] srv.pid) with Unix.Unix_error _ -> ());
    try Unix.unlink srv.sock with Unix.Unix_error _ -> ()
  end

(* Start a server and wait for its first reply.  Returns the seconds from
   spawn to the first accepted connection, the set-up time, and from spawn
   to the first reply.  The server finishes starting its worker after it
   listens, and a request sent at once waits for that: 1-2 ms in some
   phases of the host, about 20 ms in others, each lasting seconds.  A
   median over starts of the first-reply time jumps between the two, so
   it is a per-layer figure.  The socket path is relative to the
   checkout, which keeps it under the Unix socket path limit. *)
let start_server env ~sock ~metrics =
  let args =
    [ env.serve_exe; "--socket"; sock; "--workers"; "1" ]
    @ match metrics with Some m -> [ "--metrics"; m ] | None -> []
  in
  (try Unix.unlink sock with Unix.Unix_error _ -> ());
  let t0 = now () in
  let pid =
    Unix.create_process env.serve_exe (Array.of_list args) Unix.stdin
      Unix.stderr Unix.stderr
  in
  let srv = { pid; sock; alive = true } in
  on_exit (fun () -> kill_server srv);
  let bind = Serve.Server.Unix_path sock in
  let rec dial () =
    match Serve.Client.connect bind with
    | cl -> cl
    | exception Unix.Unix_error _ ->
        (match Unix.waitpid [ Unix.WNOHANG ] pid with
        | 0, _ -> ()
        | _ ->
            srv.alive <- false;
            failwith "serve_main exited during start-up");
        if now () -. t0 > 30.0 then failwith "serve_main did not come up";
        Unix.sleepf 0.0005;
        dial ()
  in
  let cl = dial () in
  let listening = now () -. t0 in
  let reply = Serve.Client.call cl P.Ping in
  let first_reply = now () -. t0 in
  Serve.Client.close cl;
  if reply <> P.Pong then failwith "serve_main: first reply is not Pong";
  (srv, listening, first_reply)

(* --- one connection's closed loop ------------------------------------------ *)

type exchange = {
  req : P.request;
  reply : P.reply;
  t0 : float;
  t1 : float;
}

type conn = {
  logs : exchange list list;  (* one per session, each newest first *)
  broken : string option;  (* transport failure that ended the loop *)
}

(* Live handles and their sizes: all the client tracks while the load
   runs.  The BDDs behind them are rebuilt by the oracle afterwards. *)
module Live = struct
  type t = { mutable ids : int array; mutable sizes : int array; mutable n : int }

  let create () = { ids = Array.make 64 0; sizes = Array.make 64 0; n = 0 }

  let add t id size =
    if t.n = Array.length t.ids then begin
      let grow a = Array.append a (Array.make t.n 0) in
      t.ids <- grow t.ids;
      t.sizes <- grow t.sizes
    end;
    t.ids.(t.n) <- id;
    t.sizes.(t.n) <- size;
    t.n <- t.n + 1

  let pick t rng =
    if t.n = 0 then None
    else
      let i = Random.State.int rng t.n in
      Some (i, t.ids.(i), t.sizes.(i))

  let remove_at t i =
    t.n <- t.n - 1;
    t.ids.(i) <- t.ids.(t.n);
    t.sizes.(i) <- t.sizes.(t.n)
end

exception Broken of string

let connection ~seed ~idx ~sock ~until ~warm_until ~parent =
  let rng = Random.State.make [| 0x5e57e; seed; idx |] in
  let connect () =
    try Serve.Client.connect (Serve.Server.Unix_path sock)
    with Unix.Unix_error (e, _, _) -> raise (Broken (Unix.error_message e))
  in
  let cl = ref (connect ()) in
  let live = ref (Live.create ()) in
  let logs = ref [] and log = ref [] and count = ref 0 and in_session = ref 0 in
  let compiled = ref false in
  let new_session () =
    Serve.Client.close !cl;
    cl := connect ();
    logs := !log :: !logs;
    log := [];
    live := Live.create ();
    compiled := false;
    in_session := 0
  in
  let call req =
    let t0 = now () in
    let reply =
      try Serve.Client.call !cl req with
      | End_of_file -> raise (Broken "server hung up")
      | P.Bad_frame m -> raise (Broken ("bad reply frame: " ^ m))
      | Unix.Unix_error (e, _, _) -> raise (Broken (Unix.error_message e))
    in
    let t1 = now () in
    if t0 >= warm_until then
      Pb_span.record ~parent ~track:idx ~op:!count "serve.call" t0 t1;
    incr count;
    incr in_session;
    log := { req; reply; t0; t1 } :: !log;
    reply
  in
  (* the server's BDD behind a result handle is needed by the oracle:
     fetch it, as loadgen does *)
  let fetch id = ignore (call (P.Fetch { handle = id })) in
  let lit () =
    let var = Random.State.int rng nvars and phase = Random.State.bool rng in
    match call (P.Lit { var; phase }) with
    | P.Handle { id; size; _ } -> Live.add !live id size
    | _ -> ()
  in
  let vars () =
    List.init (1 + Random.State.int rng 3) (fun _ -> Random.State.int rng nvars)
  in
  let with_handle f =
    match Live.pick !live rng with None -> lit () | Some h -> f h
  in
  let apply () =
    match (Live.pick !live rng, Live.pick !live rng, Live.pick !live rng) with
    | Some (_, a, _), Some (_, b, _), Some (_, c, _) -> (
        let op =
          match Random.State.int rng 7 with
          | 0 -> P.Not a
          | 1 -> P.And (a, b)
          | 2 -> P.Or (a, b)
          | 3 -> P.Xor (a, b)
          | 4 -> P.Ite (a, b, c)
          | 5 -> P.Exists (vars (), a)
          | _ -> P.Forall (vars (), a)
        in
        match call (P.Apply op) with
        | P.Handle { id; size; cert = P.Exact } -> Live.add !live id size
        | P.Handle { id; size; cert = P.Degraded _ } ->
            fetch id;
            Live.add !live id size
        | _ -> ())
    | _ -> lit ()
  in
  let approx () =
    with_handle (fun (_, id, _) ->
        let meth =
          match Random.State.int rng 4 with
          | 0 -> Approx.HB
          | 1 -> Approx.SP
          | 2 -> Approx.UA
          | _ -> Approx.RUA
        in
        let threshold =
          if Random.State.bool rng then 0 else 4 + Random.State.int rng 60
        in
        match call (P.Approx { meth; threshold; handle = id }) with
        | P.Handle { id = aid; size; _ } ->
            fetch aid;
            Live.add !live aid size
        | _ -> ())
  in
  let decomp () =
    match Live.pick !live rng with
    | Some (_, id, size) when size > 0 -> (
        let disjunctive = Random.State.bool rng in
        match call (P.Decomp { handle = id; disjunctive }) with
        | P.Pair { g; g_size; h; h_size; _ } ->
            fetch g;
            fetch h;
            Live.add !live g g_size;
            Live.add !live h h_size
        | _ -> ())
    | _ -> lit ()
  in
  let free () =
    with_handle (fun (i, id, _) ->
        match call (P.Free { handles = [ id ] }) with
        | P.Freed _ -> Live.remove_at !live i
        | _ -> ())
  in
  (* loadgen's weighted mix: mostly structure building and reading, a
     trickle of approximation, decomposition and compile/reach *)
  let on_handle req = with_handle (fun (_, id, _) -> ignore (call (req id))) in
  let one_request () =
    if !in_session >= session_requests then new_session ();
    match Random.State.int rng 64 with
    | n when n < 14 -> lit ()
    | n when n < 32 -> apply ()
    | n when n < 40 -> on_handle (fun handle -> P.Count { handle; nvars })
    | n when n < 46 -> on_handle (fun handle -> P.Fetch { handle })
    | n when n < 50 -> on_handle (fun handle -> P.Sat { handle })
    | n when n < 54 -> free ()
    | n when n < 56 -> ignore (call P.Ping)
    | n when n < 58 -> ignore (call P.Stats)
    | n when n < 61 -> approx ()
    | n when n < 63 -> decomp ()
    | 63 when not !compiled ->
        compiled := true;
        ignore
          (call (P.Compile { name = "bench"; blif = Lazy.force bench_blif }))
    | _ -> ignore (call (P.Reach { model = "bench"; max_iter = 0 }))
  in
  let broken =
    try
      while now () < until do
        one_request ()
      done;
      None
    with Broken m -> Some m
  in
  Serve.Client.close !cl;
  { logs = List.rev (!log :: !logs); broken }

(* --- the oracle ----------------------------------------------------------- *)

(* Replay one connection's log against mirror BDDs in a local manager.
   Every reply must agree with the mirror; an Error or Overloaded reply
   is a failure too.  A result the mirror cannot predict (approximation,
   decomposition, degraded apply) is checked against its contract when
   the Fetch that followed it arrives, and then adopted.  Returns the
   kernel counters and seconds of the replay: the BDD work of one
   session's requests, as the server's session manager does it. *)
let check_log checks log =
  let man = Bdd.create () in
  for v = 0 to nvars - 1 do
    ignore (Bdd.ithvar man v)
  done;
  let k0 = kernel man and t0 = now () in
  let mirror : (int, Bdd.t) Hashtbl.t = Hashtbl.create 4096 in
  let pending = Hashtbl.create 16 in
  let got_factor = Hashtbl.create 16 in
  let find id = Hashtbl.find_opt mirror id in
  let ok b what = check checks b what in
  let fine () = ok true (fun () -> "") in
  let wrong fmt = Printf.ksprintf (fun m -> ok false (fun () -> m)) fmt in
  let unary f a = Option.map f (find a) in
  let binary f a b =
    Option.bind (find a) (fun fa -> Option.map (f fa) (find b))
  in
  let exact_of = function
    | P.Not a -> unary (Bdd.bnot man) a
    | P.And (a, b) -> binary (Bdd.band man) a b
    | P.Or (a, b) -> binary (Bdd.bor man) a b
    | P.Xor (a, b) -> binary (Bdd.bxor man) a b
    | P.Ite (a, b, c) ->
        Option.bind (find a) (fun fa -> binary (Bdd.ite man fa) b c)
    | P.Exists (vs, a) -> unary (Bdd.exists man ~vars:(Bdd.cube man vs)) a
    | P.Forall (vs, a) -> unary (Bdd.forall man ~vars:(Bdd.cube man vs)) a
  in
  let with_f handle k =
    match find handle with
    | Some f -> k f
    | None -> wrong "handle %d unknown to the oracle" handle
  in
  (* a fetched result the mirror could not predict: check it against its
     contract, then adopt it *)
  let resolve handle got =
    match Hashtbl.find_opt pending handle with
    | Some (`Below bound) ->
        Hashtbl.remove pending handle;
        ok (Bdd.leq man got bound) (fun () ->
            Printf.sprintf "handle %d is not below its exact answer" handle);
        Hashtbl.replace mirror handle got
    | Some (`Factor (f, disj, other)) -> (
        Hashtbl.remove pending handle;
        Hashtbl.replace mirror handle got;
        match Hashtbl.find_opt got_factor other with
        | None -> Hashtbl.replace got_factor handle got
        | Some fo ->
            Hashtbl.remove got_factor other;
            let back = (if disj then Bdd.bor else Bdd.band) man got fo in
            ok (Bdd.equal back f) (fun () ->
                Printf.sprintf "factors %d and %d do not recompose" other
                  handle))
    | None ->
        with_f handle (fun f ->
            ok (Bdd.equal got f) (fun () ->
                Printf.sprintf "fetch %d differs from the oracle" handle))
  in
  List.iter
    (fun x ->
      match (x.req, x.reply) with
      | _, P.Error m -> wrong "Error reply: %s" m
      | _, P.Overloaded -> wrong "Overloaded reply"
      | P.Lit { var; phase }, P.Handle { id; cert = P.Exact; _ } ->
          fine ();
          Hashtbl.replace mirror id
            (if phase then Bdd.ithvar man var else Bdd.nithvar man var)
      | P.Apply op, P.Handle { id; cert; _ } -> (
          match (exact_of op, cert) with
          | None, _ -> wrong "apply over an unknown handle"
          | Some exact, P.Exact ->
              fine ();
              Hashtbl.replace mirror id exact
          | Some exact, P.Degraded _ -> Hashtbl.replace pending id (`Below exact))
      | P.Approx { handle; _ }, P.Handle { id; _ } ->
          with_f handle (fun f -> Hashtbl.replace pending id (`Below f))
      | P.Decomp { handle; disjunctive }, P.Pair { g; h; _ } ->
          with_f handle (fun f ->
              Hashtbl.replace pending g (`Factor (f, disjunctive, h));
              Hashtbl.replace pending h (`Factor (f, disjunctive, g)))
      | P.Fetch { handle }, P.Bdd_payload { bdd } -> (
          match Bdd.import man (Bdd.serialized_of_string bdd) with
          | got -> resolve handle got
          | exception Bdd.Corrupt m ->
              wrong "fetch %d: corrupt payload: %s" handle m)
      | P.Count { handle; nvars }, P.Count_is n ->
          with_f handle (fun f ->
              let want = Bdd.count_minterms man f ~nvars in
              ok
                (Float.abs (n -. want) <= 1e-6 *. Float.max 1.0 want)
                (fun () ->
                  Printf.sprintf "count %d: %.0f, oracle %.0f" handle n want))
      | P.Sat { handle }, P.Sat_is asg ->
          with_f handle (fun f ->
              match asg with
              | Some asg ->
                  ok (Bdd.leq man (Bdd.cube_of_literals man asg) f) (fun () ->
                      Printf.sprintf "sat %d: assignment does not satisfy"
                        handle)
              | None ->
                  ok (Bdd.is_false f) (fun () ->
                      Printf.sprintf "sat %d: wrongly UNSAT" handle))
      | P.Free { handles }, P.Freed n ->
          ok (n = List.length handles) (fun () ->
              Printf.sprintf "freed %d handles" n);
          List.iter (Hashtbl.remove mirror) handles
      | P.Ping, P.Pong -> fine ()
      | P.Stats, P.Stats_are kvs ->
          ok (List.mem_assoc "serve.session.handles" kvs) (fun () ->
              "stats: no serve.session.handles")
      | P.Compile _, P.Handles hs ->
          ok (hs <> []) (fun () -> "compile: no handles")
      | P.Reach _, P.Reach_done { states; cert; _ } ->
          ok (cert <> P.Exact || states = 16.0) (fun () ->
              Printf.sprintf "reach: 4-bit counter reached %.0f states" states)
      | req, r ->
          wrong "%s: unexpected reply %s"
            (Format.asprintf "%a" P.pp_request req)
            (Format.asprintf "%a" P.pp_reply r))
    (List.rev log);
  Hashtbl.iter (fun id _ -> wrong "result %d was never fetched" id) pending;
  (kernel_delta k0 (kernel man), now () -. t0)

(* --- a session: server, load in rounds, drain ---------------------------- *)

(* The load runs in rounds of about this many seconds.  After each round
   the connections close, their logs are checked and dropped, and new
   connections open: a log grows by tens of megabytes a second. *)
let round_seconds = 5.0

(* What a session keeps of its timed windows. *)
type session = {
  srv_setups : float list;  (* spawn to first accepted connection *)
  first_replies : float list;  (* spawn to first reply *)
  requests : int;  (* started in a timed window *)
  busy : float;  (* per round, window start to the last of its replies *)
  call_ms : float list;  (* their round trips *)
  sample : exchange list;  (* the first 2000, for the per-layer codec times *)
  bytes : int;  (* request + reply frame bytes of all of them (traced) *)
  replays : (kernel * float) list;  (* the checker's, one per session *)
  server_rss_mb : float;
  gc : gc;  (* this process, over the timed windows *)
  metrics_file : string option;
}

let frame_bytes x =
  String.length (P.encode_request x.req) + String.length (P.encode_reply x.reply)

(* Start the server [server_starts] times: the one that serves the load,
   and the others on a socket of their own after each round, since starts
   taken together would all fall in one of the host's phases.  The load
   is a warm-up, then [seconds] of closed-loop load in rounds.  Each
   round's replies are checked after it, outside the timed window. *)
let session env ~seed ~seconds ~tag ~traced checks =
  let file suffix =
    Filename.concat env.run_dir
      (Printf.sprintf "serve-%d-%s%s" (Unix.getpid ()) tag suffix)
  in
  let sock = file ".sock" in
  let metrics_file = if traced then Some (file ".metrics.json") else None in
  on_exit (fun () -> Option.iter rm_rf metrics_file);
  let ((srv, _, _) as serving) =
    start_server env ~sock ~metrics:metrics_file
  in
  let others = ref [] in
  let start_stop () =
    let ((s, _, _) as start) =
      start_server env ~sock:(file "-start.sock") ~metrics:None
    in
    check checks (stop_server s) (fun () -> "serve_main did not drain cleanly");
    others := start :: !others
  in
  let rounds = max 1 (int_of_float (Float.ceil (seconds /. round_seconds))) in
  let len = seconds /. float_of_int rounds in
  let requests = ref 0 and busy = ref 0.0 and call_ms = ref [] in
  let sample = ref [] and bytes = ref 0 and replays = ref [] in
  let gc_total = ref { major_collections = 0; major_words = 0.0 } in
  for round = 0 to rounds - 1 do
    (* the first round starts with the warm-up *)
    let warm_until = now () +. if round = 0 then warmup else 0.0 in
    let until = warm_until +. len in
    let parent = if !Pb_span.on then Pb_span.fresh_id () else 0 in
    let results = Array.make connections None in
    let threads =
      List.init connections (fun i ->
          let idx = 1 + i + (connections * round) in
          Thread.create
            (fun () ->
              results.(i) <-
                Some
                  (try
                     connection ~seed ~idx ~sock ~until ~warm_until ~parent
                   with e ->
                     { logs = []; broken = Some (Printexc.to_string e) }))
            ())
    in
    Thread.delay (Float.max 0.0 (warm_until -. now ()));
    let g0 = gc_mark () in
    List.iter Thread.join threads;
    let g = gc_since g0 in
    Pb_span.record ~id:parent ~parent:0 ~track:0 ~op:round "serve.window"
      warm_until (now ());
    gc_total :=
      {
        major_collections = !gc_total.major_collections + g.major_collections;
        major_words = !gc_total.major_words +. g.major_words;
      };
    let conns = Array.to_list (Array.map Option.get results) in
    let timed =
      List.concat_map
        (fun c ->
          List.filter
            (fun x -> x.t0 >= warm_until && x.t0 < until)
            (List.concat c.logs))
        conns
    in
    let last =
      List.fold_left (fun acc x -> Float.max acc x.t1) warm_until timed
    in
    requests := !requests + List.length timed;
    busy := !busy +. (last -. warm_until);
    call_ms :=
      List.rev_append (List.map (fun x -> (x.t1 -. x.t0) *. 1e3) timed) !call_ms;
    if round = 0 then sample := List.filteri (fun i _ -> i < 2000) timed;
    if traced then
      bytes := List.fold_left (fun acc x -> acc + frame_bytes x) !bytes timed;
    List.iter
      (fun c ->
        check checks (c.broken = None) (fun () ->
            "connection broke: " ^ Option.value ~default:"" c.broken);
        List.iter
          (fun log -> replays := check_log checks log :: !replays)
          c.logs)
      conns;
    let due k = (server_starts - 1) * k / rounds in
    for _ = due round + 1 to due (round + 1) do
      start_stop ()
    done
  done;
  let server_rss_mb = peak_rss_mb ~pid:(string_of_int srv.pid) () in
  check checks (stop_server srv) (fun () ->
      "serve_main did not drain cleanly");
  let setups = serving :: !others in
  {
    srv_setups = List.map (fun (_, l, _) -> l) setups;
    first_replies = List.map (fun (_, _, r) -> r) setups;
    requests = !requests;
    busy = !busy;
    call_ms = !call_ms;
    sample = !sample;
    bytes = !bytes;
    replays = !replays;
    server_rss_mb;
    gc = !gc_total;
    metrics_file;
  }

(* Requests started in the timed windows, per second of window (each
   round's window runs from its start to the last of its replies). *)
let rps s = float_of_int s.requests /. s.busy

let end_to_end s =
  let ms = s.call_ms in
  [
    lower "setup_s" "s"
      (Printf.sprintf
         "median of %d server starts spread over the run; spawn to first \
          accepted connection"
         (List.length s.srv_setups))
      (median s.srv_setups);
    lower "wall_s" "s" "seconds per 1000 requests: 1000 / rps"
      (1000.0 /. rps s);
    higher "rps" "1/s"
      (Printf.sprintf "%d requests over %d connections in %.1f s of windows"
         s.requests connections s.busy)
      (rps s);
    lower "call_p50_ms" "ms" (pct_basis 0.5 ms "requests")
      (percentile ~what:"call_ms" 0.5 ms);
    lower "call_p90_ms" "ms" (pct_basis 0.9 ms "requests")
      (percentile ~what:"call_ms" 0.9 ms);
    lower "peak_rss_mb" "MB" "VmHWM of the server process" s.server_rss_mb;
  ]

(* --- per-layer numbers ------------------------------------------------ *)

(* Microseconds per call of [f x], averaged over [reps] back-to-back calls
   so the clock's resolution does not dominate. *)
let us_per_call reps f x =
  let t0 = now () in
  for _ = 1 to reps do
    ignore (Sys.opaque_identity (f x))
  done;
  (now () -. t0) *. 1e6 /. float_of_int reps

(* A quantile of a log2-binned [obs-metrics/v1] histogram, interpolated
   linearly inside the bin that holds it; [None] when fewer than
   [min_beyond] observations lie beyond it. *)
let histogram_quantile json name p =
  let open Obs.Json in
  let hists = match member "histograms" json with Some (Arr l) -> l | _ -> [] in
  let num k j = Option.bind (member k j) to_float |> Option.value ~default:0.0 in
  match List.find_opt (fun h -> member "name" h = Some (Str name)) hists with
  | None -> None
  | Some h ->
      let count = num "count" h in
      let bins = match member "bins" h with Some (Arr l) -> l | _ -> [] in
      let target = p *. count in
      if count -. Float.ceil target < float_of_int min_beyond then None
      else
        let rec go cum = function
          | [] -> None
          | b :: rest ->
              let le = num "le" b and n = num "count" b in
              if cum +. n >= target then
                let lo = if le <= 0.0 then 0.0 else (le +. 1.0) /. 2.0 in
                Some (count, lo +. ((le -. lo) *. (target -. cum) /. n))
              else go (cum +. n) rest
        in
        go 0.0 bins

let per_layer s =
  let enc =
    List.map
      (fun x -> us_per_call 100 (fun r -> P.encode_request r) x.req)
      s.sample
  in
  let dec =
    List.map
      (fun x -> us_per_call 100 P.decode_reply (P.encode_reply x.reply))
      s.sample
  in
  let call_us = List.map (fun ms -> ms *. 1e3) s.call_ms in
  let json = Obs.Json.read_file (Option.get s.metrics_file) in
  let handler p =
    match histogram_quantile json "serve.request_us" p with
    | Some v -> v
    | None ->
        raise
          (Too_few
             (Printf.sprintf "serve.handler_us: too few samples for p%.0f"
                (p *. 100.0)))
  in
  let hcount, h50 = handler 0.5 and _, h90 = handler 0.9 in
  let counter name =
    match Obs.Json.member "counters" json with
    | Some (Obs.Json.Arr l) ->
        List.find_map
          (fun c ->
            if Obs.Json.member "name" c = Some (Obs.Json.Str name) then
              Option.bind (Obs.Json.member "value" c) Obs.Json.to_float
            else None)
          l
        |> Option.value ~default:0.0
    | _ -> 0.0
  in
  let call50 = percentile ~what:"call_us" 0.5 call_us in
  let hbasis =
    Printf.sprintf "server serve.request_us histogram, %.0f requests" hcount
  in
  (* the server's kernel counters are not exported: the bdd.* figures
     come from the checker's replay of each session *)
  List.map
    (fun m -> { m with basis = m.basis ^ " (reps: sessions replayed)" })
    (kernel_metrics s.replays)
  @ [
      lower "gc.major_collections" "count" "this process over the windows"
        (float_of_int s.gc.major_collections);
      lower "gc.major_words" "words" "this process over the windows"
        s.gc.major_words;
    ]
  @ op_metrics "requests" s.call_ms
  @ [
    lower "serve.encode_us.p50" "us"
      (pct_basis 0.5 enc "requests, each Proto.encode_request x100")
      (percentile ~what:"encode_us" 0.5 enc);
    lower "serve.decode_us.p50" "us"
      (pct_basis 0.5 dec "replies, each Proto.decode_reply x100")
      (percentile ~what:"decode_us" 0.5 dec);
    lower "serve.handler_us.p50" "us" hbasis h50;
    lower "serve.handler_us.p90" "us" hbasis h90;
    lower "serve.outside_handler_us.p50" "us"
      (pct_basis 0.5 call_us "requests; call p50 minus handler p50")
      (call50 -. h50);
    lower "serve.bytes_per_request" "bytes"
      (Printf.sprintf "request + reply frame bytes over %d requests"
         s.requests)
      (float_of_int s.bytes /. float_of_int (max 1 s.requests));
    lower "mt.service.rejected" "count" "server mt.service.rejected counter"
      (counter "mt.service.rejected");
    lower "serve.first_reply_ms" "ms"
      (Printf.sprintf
         "median of %d server starts; spawn to the reply of a Ping sent as \
          soon as a connection is accepted"
         (List.length s.first_replies))
      (median s.first_replies *. 1e3);
  ]


let run ~seed ~seconds ~trace env =
  let checks = checks () in
  if not trace then begin
    let s = session env ~seed ~seconds ~tag:"plain" ~traced:false checks in
    { metrics = end_to_end s; checks; lines = [] }
  end
  else begin
    let half = seconds /. 2.0 in
    let plain =
      session env ~seed ~seconds:half ~tag:"plain" ~traced:false checks
    in
    Pb_span.on := true;
    let traced =
      Fun.protect
        ~finally:(fun () -> Pb_span.on := false)
        (fun () ->
          session env ~seed ~seconds:half ~tag:"traced" ~traced:true checks)
    in
    let r0 = rps plain and r1 = rps traced in
    {
      metrics = per_layer traced;
      checks;
      lines =
        [
          Printf.sprintf
            "tracing overhead serve: rps %.1f traced vs %.1f untraced \
             (%+.2f%%)"
            r1 r0
            ((r1 -. r0) /. r0 *. 100.0);
        ];
    }
  end
