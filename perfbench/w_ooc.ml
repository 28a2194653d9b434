(* The ooc part of the paper workload: the reach part's microsequencer
   explored by BFS under a hot-node budget well below its in-RAM peak.
   Same circuit and image steps as the reach part, but the tiered store
   does the extra work: spilling the reached set, level files, streaming
   apply.  The input is fixed. *)

open Pb

let circuit () = Generate.microsequencer ~addr_bits:4 ~stack_depth:2

(* A quarter of the headroom between the relation (2,640 nodes) and the
   in-RAM BFS peak (163,268 nodes), as bench/ooc.ml derives it; fixed
   here so a kernel change cannot move the workload's input. *)
let hot_budget = 42_797

type rep = {
  setup : float;
  wall : float;
  result : Ooc.result;
  kernel : kernel;
  gc : gc;
}

let build () = Trans.build (Compile.compile (circuit ()))

let one_rep store_root k =
  Pb_span.with_span ~op:k "ooc.rep" @@ fun () ->
  let trans, setup =
    Pb_span.with_span ~op:k "circuit.compile" (fun () -> time build)
  in
  let dir = Filename.concat store_root (Printf.sprintf "rep%d" k) in
  Unix.mkdir dir 0o755;
  Gc.full_major ();
  let g0 = gc_mark () in
  let result, wall, kernel =
    Pb_span.with_span ~op:k "ooc.run" (fun () ->
        timed_kernel (Trans.man trans) (fun () ->
            Ooc.run ~store_dir:dir ~hot_budget trans))
  in
  let gc = gc_since g0 in
  rm_rf dir;
  { setup; wall; result; kernel; gc }

(* The in-RAM oracle, outside every timed window. *)
let oracle () =
  let trans = build () in
  let r, dt = time (fun () -> Bfs.run trans) in
  (Trans.man trans, r, dt)

let check_reps checks (man, (o : Traversal.result), _) reps =
  List.iteri
    (fun k r ->
      let got = Bdd.import man r.result.Ooc.reached in
      check checks
        (r.result.Ooc.exact
        && r.result.Ooc.degrade = Resil.Degrade.Exact
        && Bdd.equal got o.Traversal.reached)
        (fun () ->
          Printf.sprintf "ooc rep %d: exact=%b, %g states vs %g in RAM" k
            r.result.Ooc.exact r.result.Ooc.states o.Traversal.states))
    reps

(* The part's own figures, kept in the record. *)
let part_metrics reps =
  [
    lower "ooc.wall_s" "s"
      (Printf.sprintf "fastest of %d Ooc.run calls" (List.length reps))
      (List.fold_left (fun acc r -> Float.min acc r.wall) infinity reps);
    lower "spilled_mb" "MB" "Ooc.result.spilled_bytes / 10^6"
      (float_of_int (List.hd reps).result.Ooc.spilled_bytes /. 1e6);
  ]

(* The in-RAM BFS trajectory replayed through the store: each image is
   demoted, or-ed into the cold reached set by the streaming apply, and
   the result promoted back.  Times each of the three store operations. *)
let store_replay store_root k =
  let trans = build () in
  let man = Trans.man trans in
  let dir = Filename.concat store_root (Printf.sprintf "replay%d" k) in
  Unix.mkdir dir 0o755;
  let store = Store.Tiered.create ~dir man in
  let demote = ref [] and apply = ref [] and promote = ref [] in
  let timed name acc f =
    let r, dt = Pb_span.with_span ~op:k name (fun () -> time f) in
    acc := (dt *. 1e3) :: !acc;
    r
  in
  Fun.protect
    ~finally:(fun () ->
      Store.Tiered.close store;
      rm_rf dir)
    (fun () ->
      let init = trans.Trans.compiled.Compile.init in
      let reached = ref init and frontier = ref init in
      let cold = ref (Store.Tiered.demote store init) in
      while not (Bdd.is_false !frontier) do
        let img = Image.exact trans !frontier in
        let h =
          timed "store.demote" demote (fun () -> Store.Tiered.demote store img)
        in
        let merged =
          timed "store.apply" apply (fun () ->
              Store.Tiered.apply store Store.Stream.Or !cold h)
        in
        Store.Tiered.drop store h;
        Store.Tiered.drop store !cold;
        cold := merged;
        ignore
          (timed "store.promote" promote (fun () ->
               Store.Tiered.promote store merged));
        let fresh = Bdd.bdiff man img !reached in
        reached := Bdd.bor man !reached fresh;
        frontier := fresh
      done;
      (!demote, !apply, !promote))

(* The part's per-layer figures besides the kernel and GC counters,
   which the paper workload sums over its parts. *)
let part_layer reps oracle_s (demote, apply, promote) =
  let r0 = (List.hd reps).result in
  let wall = median (List.map (fun r -> r.wall) reps) in
  [
    lower "ooc.images" "count" "Ooc.result.images" (float_of_int r0.Ooc.images);
    lower "ooc.ram_bfs_ms" "ms" "median of in-RAM Bfs.run oracle runs"
      (median oracle_s *. 1e3);
    lower "store.migrations" "count" "Ooc.result.migrations"
      (float_of_int r0.Ooc.migrations);
    lower "store.spilled_bytes" "bytes" "Ooc.result.spilled_bytes"
      (float_of_int r0.Ooc.spilled_bytes);
    lower "store.peak_hot_nodes" "nodes" "Ooc.result.peak_hot_nodes"
      (float_of_int r0.Ooc.peak_hot_nodes);
    lower "store.peak_cold_nodes" "nodes" "Ooc.result.peak_cold_nodes"
      (float_of_int r0.Ooc.peak_cold_nodes);
    lower "store.demote_ms.p50" "ms"
      (pct_basis 0.5 demote "replayed Tiered.demote calls")
      (percentile ~what:"store.demote_ms" 0.5 demote);
    lower "store.apply_ms.p50" "ms"
      (pct_basis 0.5 apply "replayed Tiered.apply calls")
      (percentile ~what:"store.apply_ms" 0.5 apply);
    lower "store.promote_ms.p50" "ms"
      (pct_basis 0.5 promote "replayed Tiered.promote calls")
      (percentile ~what:"store.promote_ms" 0.5 promote);
    lower "store.overhead_x" "ratio"
      "base: in-RAM Bfs.run time; median Ooc.run time / median oracle time"
      (wall /. median oracle_s);
  ]

(* The run's store directory, removed on every exit path. *)
let store_root env ~seed =
  let root =
    Filename.concat env.run_dir
      (Printf.sprintf "ooc-%d-seed%d" (Unix.getpid ()) seed)
  in
  rm_rf root;
  Unix.mkdir root 0o755;
  on_exit (fun () -> rm_rf root);
  root

(* Store-call samples for the per-layer p50s, from whole replays: at
   least 20 of each kind. *)
let replay_samples root =
  let rec go k (d, a, p) =
    if List.length d >= 20 then (d, a, p)
    else
      let d', a', p' = store_replay root k in
      go (k + 1) (d' @ d, a' @ a, p' @ p)
  in
  Pb_span.on := true;
  Fun.protect ~finally:(fun () -> Pb_span.on := false) (fun () ->
      go 0 ([], [], []))
