(* Shared plumbing of the benchmark: metrics, correctness checks, order
   statistics, and the counters the measured layers already expose
   ([Bdd.stats], [Gc.quick_stat], /proc VmHWM). *)

(* Seconds on the monotonic clock, with nanosecond resolution: serve
   round trips take tens of microseconds. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* --- metrics ------------------------------------------------------------ *)

type better = Lower | Higher

type metric = {
  name : string;
  value : float;
  unit_ : string;
  better : better;
  basis : string;  (* how it was measured: sample count, ratio base *)
}

let lower name unit_ basis value = { name; value; unit_; better = Lower; basis }
let higher name unit_ basis value = { name; value; unit_; better = Higher; basis }
let better_name = function Lower -> "lower" | Higher -> "higher"

(* --- correctness gates --------------------------------------------------- *)

type checks = {
  mutable attempted : int;
  mutable failed : int;
  mutable notes : string list;  (* the first few failures, newest first *)
}

let checks () = { attempted = 0; failed = 0; notes = [] }

let check c ok msg =
  c.attempted <- c.attempted + 1;
  if not ok then begin
    c.failed <- c.failed + 1;
    if List.length c.notes < 8 then c.notes <- msg () :: c.notes
  end

(* --- order statistics ---------------------------------------------------- *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Pb.median: no samples"
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* The host slows down in phases of a few seconds; a mean over the whole
   window averages them where a median of a few repetitions picks one. *)
let mean xs =
  if xs = [] then invalid_arg "Pb.mean: no samples";
  List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

(* The fixed work of a repetition as the list of its calls' times, the
   same calls in the same order every repetition: the sum over calls of
   each call's fastest time among [reps].  The host slows memory-bound
   work by up to a half in phases of tens of seconds; the fastest of a
   call's runs is the one the phases disturbed least. *)
let best_sum reps =
  match reps with
  | [] -> invalid_arg "Pb.best_sum: no samples"
  | r :: rest ->
      List.fold_left ( +. ) 0.0 (List.fold_left (List.map2 Float.min) r rest)

let geomean xs =
  if xs = [] then invalid_arg "Pb.geomean: no samples";
  exp
    (List.fold_left (fun acc x -> acc +. log x) 0.0 xs
    /. float_of_int (List.length xs))

exception Too_few of string

(* A percentile is reported only when at least this many samples lie
   beyond it; with fewer, the tail is a handful of events and the run
   fails rather than print it. *)
let min_beyond = 10

(* Nearest-rank percentile, [p] in (0, 1). *)
let percentile ~what p xs =
  let a = sorted xs in
  let n = Array.length a in
  let rank = max 1 (int_of_float (Float.ceil (p *. float_of_int n))) in
  if n - rank < min_beyond then
    raise
      (Too_few
         (Printf.sprintf
            "%s: p%.0f of %d samples has %d beyond it (need %d)" what
            (p *. 100.0) n (n - rank) min_beyond));
  a.(rank - 1)

let pct_basis p xs what =
  Printf.sprintf "p%.0f of %d %s" (p *. 100.0) (List.length xs) what

(* op.p50_ms and op.p90_ms: the latency of the workload's unit operation
   in the traced run ([what] names it: an image step, a method call, a
   store call, a request), from [ms] samples. *)
let op_metrics what ms =
  [
    lower "op.p50_ms" "ms" (pct_basis 0.5 ms what)
      (percentile ~what:"op_ms" 0.5 ms);
    lower "op.p90_ms" "ms" (pct_basis 0.9 ms what)
      (percentile ~what:"op_ms" 0.9 ms);
  ]

(* --- layer counters ------------------------------------------------------ *)

(* The [Bdd.stats] counters the per-layer metrics use, as a delta around a
   timed call ([peak_unique] is the manager's high-water mark, not a
   delta). *)
type kernel = {
  nodes_made : int;
  lookups : int;
  hits : int;
  peak_unique : int;
  gc_runs : int;
  ut_grows : int;
}

let kernel_zero =
  {
    nodes_made = 0;
    lookups = 0;
    hits = 0;
    peak_unique = 0;
    gc_runs = 0;
    ut_grows = 0;
  }

let kernel man =
  let s = Bdd.stats man in
  let g k = try List.assoc k s with Not_found -> 0 in
  {
    nodes_made = g "nodes_made";
    lookups = g "cache_hits" + g "cache_misses";
    hits = g "cache_hits";
    peak_unique = g "peak_unique";
    gc_runs = g "gc_runs";
    ut_grows = g "ut_grows";
  }

let kernel_delta a b =
  {
    nodes_made = b.nodes_made - a.nodes_made;
    lookups = b.lookups - a.lookups;
    hits = b.hits - a.hits;
    peak_unique = b.peak_unique;
    gc_runs = b.gc_runs - a.gc_runs;
    ut_grows = b.ut_grows - a.ut_grows;
  }

let kernel_add a b =
  {
    nodes_made = a.nodes_made + b.nodes_made;
    lookups = a.lookups + b.lookups;
    hits = a.hits + b.hits;
    peak_unique = max a.peak_unique b.peak_unique;
    gc_runs = a.gc_runs + b.gc_runs;
    ut_grows = a.ut_grows + b.ut_grows;
  }

(* [f man] timed, with the kernel counter delta of [man] around it. *)
let timed_kernel man f =
  let k0 = kernel man in
  let r, dt = time f in
  (r, dt, kernel_delta k0 (kernel man))

(* The bdd.* per-layer metrics of one workload: [per_rep] holds, for each
   traced repetition, the summed counter delta and the summed seconds of
   its timed calls. *)
let kernel_metrics per_rep =
  let n = List.length per_rep in
  let basis = Printf.sprintf "median of %d traced reps" n in
  let med f = median (List.map f per_rep) in
  let fi x = float_of_int x in
  [
    lower "bdd.nodes_made" "nodes" basis (med (fun (k, _) -> fi k.nodes_made));
    lower "bdd.cache_lookups" "count" basis (med (fun (k, _) -> fi k.lookups));
    higher "bdd.cache_hit_ratio" "ratio" (basis ^ "; hits / lookups")
      (med (fun (k, _) -> fi k.hits /. fi (max 1 k.lookups)));
    lower "bdd.ns_per_node" "ns" (basis ^ "; call time / nodes made")
      (med (fun (k, s) -> s *. 1e9 /. fi (max 1 k.nodes_made)));
    lower "bdd.peak_unique" "nodes" basis (med (fun (k, _) -> fi k.peak_unique));
    lower "bdd.gc_runs" "count" basis (med (fun (k, _) -> fi k.gc_runs));
    lower "bdd.ut_grows" "count" basis (med (fun (k, _) -> fi k.ut_grows));
  ]

(* OCaml GC work over a region. *)
type gc = { major_collections : int; major_words : float }

let gc_mark () = Gc.quick_stat ()

let gc_since (g0 : Gc.stat) =
  let g1 = Gc.quick_stat () in
  {
    major_collections = g1.Gc.major_collections - g0.Gc.major_collections;
    major_words = g1.Gc.major_words -. g0.Gc.major_words;
  }

let gc_metrics per_rep =
  let basis = Printf.sprintf "median of %d traced reps" (List.length per_rep) in
  [
    lower "gc.major_collections" "count" basis
      (median (List.map (fun g -> float_of_int g.major_collections) per_rep));
    lower "gc.major_words" "words" basis
      (median (List.map (fun g -> g.major_words) per_rep));
  ]

(* Peak resident set size in MB (10^6 bytes) of a process, from VmHWM. *)
let peak_rss_mb ?(pid = "self") () =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match open_in path with
  | exception Sys_error _ -> nan
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let rec scan () =
            match input_line ic with
            | exception End_of_file -> nan
            | line -> (
                match Scanf.sscanf line "VmHWM: %d kB" (fun v -> v) with
                | kb -> float_of_int kb *. 1024.0 /. 1e6
                | exception (Scanf.Scan_failure _ | Failure _ | End_of_file)
                  ->
                    scan ())
          in
          scan ())

(* [f ()] in a forked child, its result marshalled back through a pipe.
   The child's allocations never raise this process's VmHWM.  Only for a
   process that has started no other domain. *)
let in_child f =
  let rd, wr = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
      Unix.close rd;
      let oc = Unix.out_channel_of_descr wr in
      let r = try Ok (f ()) with e -> Error (Printexc.to_string e) in
      Marshal.to_channel oc r [];
      close_out oc;
      Unix._exit 0
  | pid -> (
      Unix.close wr;
      let ic = Unix.in_channel_of_descr rd in
      let r =
        try Marshal.from_channel ic
        with End_of_file | Failure _ -> Error "the child died"
      in
      close_in ic;
      ignore (Unix.waitpid [] pid);
      match r with Ok v -> v | Error m -> failwith ("in_child: " ^ m))

(* --- repetition ----------------------------------------------------------- *)

(* Run [rep 0], [rep 1], ... until [seconds] have passed and at least
   [min_reps] finished after [rep 0]; their results in order.  With
   [~warmup:true], [rep 0] is a warm-up whose result is dropped: in a
   fresh process the first repetition also pays for touching its memory
   for the first time, and reads 5-30% slower than the ones after it. *)
let repeat ?(warmup = true) ~seconds ~min_reps rep =
  let t0 = now () in
  let first = rep 0 in
  let rec go k acc =
    if k > min_reps && now () -. t0 >= seconds then List.rev acc
    else go (k + 1) (rep k :: acc)
  in
  go 1 (if warmup then [] else [ first ])

(* --- what a workload hands back -------------------------------------------- *)

type outcome = {
  metrics : metric list;
  checks : checks;
  lines : string list;  (* extra report lines: tracing overhead, ... *)
}

(* Scratch space inside the checkout (ooc store, serve socket, traces),
   and the server binary the serve workload starts. *)
type env = { run_dir : string; serve_exe : string }

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter
        (fun e -> rm_rf (Filename.concat path e))
        (try Sys.readdir path with Sys_error _ -> [||]);
      (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> ( try Unix.unlink path with Unix.Unix_error _ -> ())

(* Cleanup actions for every exit path (normal, failure, SIGINT/SIGTERM):
   registered by the workloads, run once by [Bench]. *)
let cleanups : (unit -> unit) list ref = ref []
let on_exit f = cleanups := f :: !cleanups

let run_cleanups () =
  let fs = !cleanups in
  cleanups := [];
  List.iter (fun f -> try f () with _ -> ()) fs
