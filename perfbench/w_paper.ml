(* paper: the paper's experiments and the out-of-core engine in one
   process, one repetition running three parts back to back:
   - reach ([W_reach]): Table 1 in RAM, exact BFS against high-density
     RUA on three circuits, large unique tables;
   - approx ([W_approx]): the Tables 2-4 sweep, every approximation and
     decomposition method on the capped function pool, many small
     managers;
   - ooc ([W_ooc]): the reach part's microsequencer under Ooc.run with a
     hot-node budget far below its in-RAM peak, so the tiered store
     spills and streams.
   bdd, circuit, harness, core, reach and store do the work; the service
   does not run. *)

open Pb

type rep = { reach : W_reach.rep; approx : W_approx.rep; ooc : W_ooc.rep }

(* A repetition's calls, the same in the same order every time: the six
   engine calls of the reach part, the method calls, the Ooc.run. *)
let calls r =
  r.reach.W_reach.calls
  @ List.map (fun (c : W_approx.call) -> c.secs) r.approx.W_approx.calls
  @ [ r.ooc.W_ooc.wall ]

let wall r = List.fold_left ( +. ) 0.0 (calls r)

let one_rep checks circs entries store_root k =
  let reach = W_reach.one_rep checks circs k in
  let approx = W_approx.one_rep checks entries k in
  let ooc = W_ooc.one_rep store_root k in
  { reach; approx; ooc }

(* One set-up: build the function pool and compile every circuit.  It
   runs in a forked child, so the pool's memory never counts in this
   process's VmHWM; the child hands back the pool and the seconds its
   build took. *)
let set_up circs () =
  in_child (fun () ->
      let entries, pool_s = time W_approx.build_pool in
      List.iter (fun c -> ignore (W_reach.build c, W_reach.build c)) circs;
      ignore (W_ooc.build ());
      (entries, pool_s))

(* Set-ups per run, half before the repetitions and half after them: a
   set-up takes about two seconds, and the host's phases last tens, so
   set-ups taken together would all fall in one phase. *)
let set_ups = 4

let kernel_and_gc reps =
  kernel_metrics
    (List.map
       (fun r ->
         ( List.fold_left
             (fun acc (c : W_approx.call) -> kernel_add acc c.kernel)
             (kernel_add r.reach.W_reach.kernel r.ooc.W_ooc.kernel)
             r.approx.W_approx.calls,
           wall r ))
       reps)
  @ gc_metrics
      (List.map
         (fun r ->
           let sum =
             List.fold_left
               (fun acc g ->
                 {
                   major_collections =
                     acc.major_collections + g.major_collections;
                   major_words = acc.major_words +. g.major_words;
                 })
               { major_collections = 0; major_words = 0.0 }
           in
           sum [ r.reach.W_reach.gc; r.approx.W_approx.gc; r.ooc.W_ooc.gc ])
         reps)

let run ~seed ~seconds ~trace env =
  let checks = checks () in
  let circs = W_reach.circuits seed in
  let set_ups_timed n =
    List.init n (fun _ ->
        let b, dt = time (set_up circs) in
        (dt, b))
  in
  let before = set_ups_timed (set_ups / 2) in
  let entries = fst (snd (List.hd before)) in
  W_approx.check_imports checks entries;
  let store_root = W_ooc.store_root env ~seed in
  let rep = one_rep checks circs entries store_root in
  let ooc_reps reps = List.map (fun r -> r.ooc) reps in
  let all_set_ups () =
    let after = set_ups_timed (set_ups - (set_ups / 2)) in
    List.split (List.map (fun (dt, (_, pool)) -> (dt, pool)) (before @ after))
  in
  if not trace then begin
    (* no warm-up: a call's first, slower run never is its fastest *)
    let reps = repeat ~warmup:false ~seconds ~min_reps:2 rep in
    let rss = peak_rss_mb () in
    let setups, _ = all_set_ups () in
    W_ooc.check_reps checks (W_ooc.oracle ()) (ooc_reps reps);
    let n = List.length reps in
    {
      metrics =
        [
          lower "setup_s" "s"
            (Printf.sprintf
               "median of %d set-ups, half before the reps and half after, \
                each in a forked child: pool build (compile, sample, budgets) \
                and compile + Trans.build of every circuit"
               set_ups)
            (median setups);
          lower "wall_s" "s"
            (Printf.sprintf
               "reach engine calls + approx method calls + Ooc.run; each \
                call's fastest of %d reps"
               n)
            (best_sum (List.map calls reps));
          lower "peak_rss_mb" "MB"
            "VmHWM of the benchmark process, read after the reps and before \
             the in-RAM oracle; the set-ups ran in forked children"
            rss;
          lower "mean_wall_s" "s"
            (Printf.sprintf "mean of %d reps' summed call times" n)
            (mean (List.map wall reps));
        ]
        @ W_reach.part_metrics (List.map (fun r -> r.reach) reps)
        @ W_approx.part_metrics (List.map (fun r -> r.approx) reps)
        @ W_ooc.part_metrics (ooc_reps reps);
      checks;
      lines = [];
    }
  end
  else begin
    let plain, traced = Pb_span.repeat_alternating ~seconds rep in
    let _, pool_s = all_set_ups () in
    let span_line =
      W_reach.span_check checks
        ~plain:(List.map (fun r -> r.reach) plain)
        ~traced:(List.map (fun r -> r.reach) traced)
    in
    let images_ms = W_reach.image_samples circs in
    let store_ms = W_ooc.replay_samples store_root in
    let oracles = List.init 3 (fun _ -> W_ooc.oracle ()) in
    W_ooc.check_reps checks (List.hd oracles) (ooc_reps (plain @ traced));
    let oracle_s = List.map (fun (_, _, dt) -> dt) oracles in
    let overhead what f =
      let untraced = median (List.map f plain)
      and traced = median (List.map f traced) in
      Printf.sprintf
        "tracing overhead %s: %.4f s traced vs %.4f s untraced (%+.2f%%)" what
        traced untraced
        ((traced -. untraced) /. untraced *. 100.0)
    in
    {
      metrics =
        kernel_and_gc traced
        @ W_approx.part_layer ~pool_s (List.map (fun r -> r.approx) traced)
        @ W_reach.part_layer (List.map (fun r -> r.reach) traced) images_ms
        @ W_ooc.part_layer (ooc_reps traced) oracle_s store_ms;
      checks;
      lines =
        [
          overhead "paper, summed call times" wall;
          overhead "reach part" (fun r -> W_reach.wall r.reach);
          overhead "approx part" (fun r -> W_approx.wall r.approx);
          overhead "ooc part" (fun r -> r.ooc.W_ooc.wall);
          span_line;
        ];
    }
  end
