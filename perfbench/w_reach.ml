(* The reach part of the paper workload: the paper's Table 1 in RAM.
   Three circuits, each explored by exact BFS and by high-density RUA
   traversal with Table 1's parameters; both engines must reach the same
   exact set.  Most of the time is the BDD kernel on large unique tables
   (95k-204k live nodes): the image step and and_exists; [core] only
   subsets frontiers. *)

open Pb

type circ = { label : string; circuit : Circuit.t; rua : High_density.params }

(* Table 1's memory ceiling (bench/main.ml), far above these peaks. *)
let node_limit = 1_500_000

(* The seed picks the dense_controller instance.  It stays small (seeds
   1-8 peak under 27k live nodes and run in under 50 ms) so the seed
   barely moves the workload's wall time, while the two fixed circuits
   supply the large tables. *)
let circuits seed =
  let hd = High_density.default in
  [
    {
      label = "useq_a4_s2";
      circuit = Generate.microsequencer ~addr_bits:4 ~stack_depth:2;
      rua = { hd with threshold = 0; quality = 1.0 };
    };
    {
      label = "shifter_w8";
      circuit = Generate.shifter_datapath ~width:8;
      rua = { hd with threshold = 0; quality = 1.0 };
    };
    {
      label = Printf.sprintf "dense_l12_s%d" seed;
      circuit = Generate.dense_controller ~latches:12 ~seed;
      rua = { hd with threshold = 2000; quality = 1.4 };
    };
  ]

type rep = {
  setup : float;  (* compile + Trans.build, both engines, all circuits *)
  bfs : float;
  hd : float;
  calls : float list;  (* per circuit: the Bfs.run time, then High_density's *)
  kernel : kernel;
  gc : gc;
  peak_live : int;
  images : int;
}

let build c = Trans.build (Compile.compile c.circuit)

let one_rep checks circs k =
  Pb_span.with_span ~op:k "reach.rep" @@ fun () ->
  List.fold_left
    (fun acc c ->
      let (t_bfs, t_hd), setup =
        Pb_span.with_span ~op:k "circuit.compile" (fun () ->
            time (fun () -> (build c, build c)))
      in
      Gc.full_major ();
      let g0 = gc_mark () in
      let (bfs, dt_bfs, k_bfs), (hd, dt_hd, k_hd) =
        Pb_span.with_span ~op:k "reach.work" (fun () ->
            let b =
              Pb_span.with_span ~op:k "reach.bfs" (fun () ->
                  timed_kernel (Trans.man t_bfs) (fun () ->
                      Bfs.run ~node_limit t_bfs))
            in
            let h =
              Pb_span.with_span ~op:k "reach.hd" (fun () ->
                  timed_kernel (Trans.man t_hd) (fun () ->
                      High_density.run ~node_limit ~params:c.rua t_hd))
            in
            (b, h))
      in
      let gc = gc_since g0 in
      Pb_span.with_span ~op:k "reach.check" (fun () ->
          let man = Trans.man t_bfs in
          let hd_reached =
            Bdd.import man (Bdd.export (Trans.man t_hd) hd.Traversal.reached)
          in
          check checks
            (bfs.Traversal.exact && hd.Traversal.exact
            && Bdd.equal bfs.Traversal.reached hd_reached)
            (fun () ->
              Printf.sprintf
                "reach %s rep %d: bfs exact=%b, hd exact=%b, %g vs %g states"
                c.label k bfs.Traversal.exact hd.Traversal.exact
                bfs.Traversal.states hd.Traversal.states));
      {
        setup = acc.setup +. setup;
        bfs = acc.bfs +. dt_bfs;
        hd = acc.hd +. dt_hd;
        calls = acc.calls @ [ dt_bfs; dt_hd ];
        kernel = kernel_add acc.kernel (kernel_add k_bfs k_hd);
        gc =
          {
            major_collections =
              acc.gc.major_collections + gc.major_collections;
            major_words = acc.gc.major_words +. gc.major_words;
          };
        peak_live =
          max acc.peak_live
            (max bfs.Traversal.peak_live_nodes hd.Traversal.peak_live_nodes);
        images = acc.images + bfs.Traversal.images + hd.Traversal.images;
      })
    {
      setup = 0.0;
      bfs = 0.0;
      hd = 0.0;
      calls = [];
      kernel = kernel_zero;
      gc = { major_collections = 0; major_words = 0.0 };
      peak_live = 0;
      images = 0;
    }
    circs

let wall r = r.bfs +. r.hd

(* The part's own figures, kept in the record. *)
let part_metrics reps =
  [
    lower "reach.wall_s" "s"
      (Printf.sprintf
         "Bfs.run + High_density.run, 3 circuits; each call's fastest of %d \
          reps"
         (List.length reps))
      (best_sum (List.map (fun r -> r.calls) reps));
    lower "peak_live_nodes" "nodes"
      "max Traversal.result.peak_live_nodes over circuits and engines"
      (float_of_int
         (List.fold_left (fun acc r -> max acc r.peak_live) 0 reps));
  ]

(* The traced BFS frontier loop, replayed step by step through
   Image.image so each image step is timed on its own. *)
let image_replay circs =
  let samples = ref [] in
  List.iter
    (fun c ->
      let trans = ref (build c) in
      let man = Trans.man !trans in
      let maint = Traversal.make_maintenance false in
      let init = !trans.Trans.compiled.Compile.init in
      let reached = ref init and frontier = ref init in
      Gc.full_major ();
      while not (Bdd.is_false !frontier) do
        let (img, _), dt =
          Pb_span.with_span "reach.image" (fun () ->
              time (fun () -> Image.image !trans !frontier))
        in
        samples := (dt *. 1e3) :: !samples;
        let fresh = Bdd.bdiff man img !reached in
        reached := Bdd.bor man !reached fresh;
        frontier := fresh;
        match
          Traversal.maintain maint man
            (!reached :: !frontier :: Trans.roots !trans)
        with
        | r :: f :: rest ->
            reached := r;
            frontier := f;
            trans := Trans.replace_roots !trans rest
        | _ -> assert false
      done)
    circs;
  !samples

(* The part's per-layer figures besides the kernel and GC counters,
   which the paper workload sums over both parts. *)
let part_layer reps images_ms =
  let basis = Printf.sprintf "median of %d traced reps" (List.length reps) in
  let med f = median (List.map f reps) in
  [
    lower "circuit.compile_ms" "ms" basis (med (fun r -> r.setup *. 1e3));
    lower "reach.images" "count" "images per rep, BFS + HD"
      (med (fun r -> float_of_int r.images));
    lower "reach.bfs_ms" "ms" basis (med (fun r -> r.bfs *. 1e3));
    lower "reach.hd_ms" "ms" basis (med (fun r -> r.hd *. 1e3));
    lower "reach.image_ms.p50" "ms"
      (pct_basis 0.5 images_ms "replayed BFS image steps")
      (percentile ~what:"reach.image_ms" 0.5 images_ms);
    lower "reach.image_ms.p90" "ms"
      (pct_basis 0.9 images_ms "replayed BFS image steps")
      (percentile ~what:"reach.image_ms" 0.9 images_ms);
  ]

(* A p90 needs 10 samples beyond it: replay until there are 100. *)
let image_samples circs =
  let rec go acc =
    if List.length acc >= 100 then acc else go (image_replay circs @ acc)
  in
  Pb_span.on := true;
  Fun.protect ~finally:(fun () -> Pb_span.on := false) (fun () -> go [])

(* The spans must account for the untraced work: the summed self time
   under reach.work, per traced rep, may differ from the untraced part's
   wall time by the tracing overhead plus 2%.  Returns the report line. *)
let span_check checks ~plain ~traced =
  let per_rep_self = median (Pb_span.subtree_self "reach.work") in
  let untraced = median (List.map wall plain)
  and traced_wall = median (List.map wall traced) in
  let overhead = traced_wall -. untraced in
  check checks
    (Float.abs (per_rep_self -. untraced)
    <= Float.abs overhead +. (0.02 *. untraced))
    (fun () ->
      Printf.sprintf
        "reach spans: %.4f s self time per rep against untraced wall %.4f s, \
         overhead %+.4f s"
        per_rep_self untraced overhead);
  Printf.sprintf
    "span self time reach: %.4f s per traced rep (median) under reach.work \
     accounts for the untraced reach wall %.4f s within %+.4f s (overhead \
     %+.4f s, checked with 2%% slack)"
    per_rep_self untraced (per_rep_self -. untraced) overhead
