(* The approx part of the paper workload: the paper's Tables 2-4 on the
   function-pool entries with 500 <= |f| <= 4000, every function through
   HB, SP, UA, RUA, C1, C2 and the Cofactor, Disjoint and Band
   decompositions.  The paper's algorithms in [core] do most of the work,
   across many small private managers; the kernel works at small table
   sizes.  |f| is capped so a repetition lasts seconds (the full Table 2
   pool takes tens of seconds and gigabytes). *)

open Pb

let min_nodes = 500
let max_nodes = 4000

(* Pool circuits whose functions fit under the cap: the structured random
   netlists of [Pool] (plain outputs and the sparse three-output
   products), the 7-bit multiplier and the 8-bit shifter datapath. *)
let candidates () =
  let rand16 s = Generate.random_netlist ~inputs:16 ~gates:90 ~outputs:6 ~seed:s
  and rand20 s =
    Generate.random_netlist ~inputs:20 ~gates:140 ~outputs:6 ~seed:(s + 1000)
  in
  let seeds = [ 1; 2; 3; 4; 5; 6 ] in
  let plain =
    [ Generate.multiplier ~bits:7; Generate.shifter_datapath ~width:8 ]
    @ List.map rand16 seeds @ List.map rand20 seeds
  in
  List.concat_map (Pool.entries_of_circuit ~min_nodes) plain
  @ List.concat_map
      (Pool.product_entries_of_circuit ~min_nodes)
      (List.map rand16 seeds @ List.map rand20 seeds)

type entry = {
  label : string;
  ser : Bdd.serialized;  (* imported into a fresh manager per call *)
  size : int;
  nvars : int;
  budget : int;  (* Table 2's HB/SP budget: |RUA(f)| *)
}

(* Every run takes the whole capped pool in the pool's order: a seeded
   sample of the pool moved density_gm by half its value from seed to
   seed, and a seeded order moved the process's peak RSS by 15%. *)
let build_pool () =
  let pool =
    List.filter
      (fun (e : Pool.entry) -> Bdd.size e.Pool.f <= max_nodes)
      (candidates ())
  in
  List.map
    (fun (e : Pool.entry) ->
      {
        label = e.Pool.label;
        ser = Bdd.export e.Pool.man e.Pool.f;
        size = Bdd.size e.Pool.f;
        nvars = e.Pool.nvars;
        budget = Bdd.size (Remap.approximate e.Pool.man e.Pool.f);
      })
    pool

(* A fresh private manager holding [e]'s function.  Pool managers keep
   their creation order, so the import is node for node; the run checks
   that every size survives it. *)
let fresh e =
  let man = Bdd.create ~nvars:e.ser.Bdd.s_nvars () in
  (man, Bdd.import man e.ser)

type result = Under of Bdd.t | Pair of Decomp.pair

let methods =
  [
    ( "hb",
      fun man f e -> Under (Heavy_branch.approximate man ~threshold:e.budget f) );
    ( "sp",
      fun man f e -> Under (Short_paths.approximate man ~threshold:e.budget f) );
    ("ua", fun man f _ -> Under (Under_approx.approximate man f));
    ("rua", fun man f _ -> Under (Remap.approximate man f));
    ("c1", fun man f _ -> Under (Compound.c1 man f));
    ("c2", fun man f _ -> Under (Compound.c2 man f));
    ("cofactor", fun man f _ -> Pair (Decomp.conj_cofactor man f));
    ("disjoint", fun man f _ -> Pair (Decomp_points.disjoint man f));
    ("band", fun man f _ -> Pair (Decomp_points.band man f));
  ]

type call = {
  meth : string;
  secs : float;
  size : int;  (* |f| *)
  kernel : kernel;
  quality : float;
      (* density(g)/density(f) for an under-approximation,
         max(|g|,|h|)/|f| for a decomposition *)
  empty : bool;  (* an under-approximation that is the constant false *)
}

type rep = { calls : call list; gc : gc }

let one_rep checks entries k =
  Pb_span.with_span ~op:k "approx.rep" @@ fun () ->
  Gc.full_major ();
  let g0 = gc_mark () in
  let calls =
    List.concat_map
      (fun e ->
        List.map
          (fun (meth, run) ->
            let man, f = fresh e in
            let r, secs, kernel =
              Pb_span.with_span ~op:k ("core." ^ meth) (fun () ->
                  timed_kernel man (fun () -> run man f e))
            in
            let quality, empty =
              match r with
              | Under g ->
                  check checks (Bdd.leq man g f) (fun () ->
                      Printf.sprintf "%s(%s) is not below f" meth e.label);
                  (* an empty g counts as one minterm, so returning
                     false lowers the geomean instead of leaving it *)
                  ( Float.max
                      (Bdd.density man g ~nvars:e.nvars)
                      (Float.ldexp 1.0 (-e.nvars))
                    /. Bdd.density man f ~nvars:e.nvars,
                    Bdd.is_false g )
              | Pair p ->
                  check checks (Decomp.verify_conj man f p) (fun () ->
                      Printf.sprintf "%s(%s): g and h do not conjoin to f"
                        meth e.label);
                  (float_of_int (Decomp.max_size p) /. float_of_int e.size, false)
            in
            { meth; secs; size = e.size; kernel; quality; empty })
          methods)
      entries
  in
  { calls; gc = gc_since g0 }

let is_under m = not (List.mem m [ "cofactor"; "disjoint"; "band" ])
let wall r = List.fold_left (fun acc c -> acc +. c.secs) 0.0 r.calls

(* The part's own figures, kept in the record. *)
let part_metrics reps =
  let n = List.length reps in
  let calls = List.concat_map (fun r -> r.calls) reps in
  let ms = List.map (fun c -> c.secs *. 1e3) calls in
  let first = (List.hd reps).calls in
  let unders = List.filter (fun c -> is_under c.meth) first in
  let empty = List.filter (fun c -> c.empty) unders in
  let pairs = List.filter (fun c -> not (is_under c.meth)) first in
  [
    lower "approx.wall_s" "s"
      (Printf.sprintf "summed method-call time; each call's fastest of %d reps"
         n)
      (best_sum (List.map (fun r -> List.map (fun c -> c.secs) r.calls) reps));
    lower "call_p50_ms" "ms" (pct_basis 0.5 ms "method calls")
      (percentile ~what:"call_ms" 0.5 ms);
    lower "call_p90_ms" "ms" (pct_basis 0.9 ms "method calls")
      (percentile ~what:"call_ms" 0.9 ms);
    higher "density_gm" "ratio"
      (Printf.sprintf
         "geomean over %d under-approximations, %d of them empty and counted \
          as one minterm; base: density(f)"
         (List.length unders) (List.length empty))
      (geomean (List.map (fun c -> c.quality) unders));
    lower "decomp_ratio_gm" "ratio"
      (Printf.sprintf "geomean over %d decompositions; base: |f|"
         (List.length pairs))
      (geomean (List.map (fun c -> c.quality) pairs));
  ]

(* The part's per-layer figures besides the kernel and GC counters,
   which the paper workload sums over both parts.  The method calls are
   the workload's op. *)
let part_layer ~pool_s reps =
  let basis = Printf.sprintf "median of %d traced reps" (List.length reps) in
  let calls = List.concat_map (fun r -> r.calls) reps in
  op_metrics "traced method calls" (List.map (fun c -> c.secs *. 1e3) calls)
  @ [
      lower "harness.pool_ms" "ms"
        (Printf.sprintf "median of %d pool builds" (List.length pool_s))
        (median pool_s *. 1e3);
    ]
  @ List.concat_map
      (fun (m, _) ->
        let mine = List.filter (fun c -> c.meth = m) calls in
        let per_rep =
          List.map
            (fun r ->
              List.fold_left
                (fun acc c ->
                  if c.meth = m then acc + c.kernel.nodes_made else acc)
                0 r.calls)
            reps
        in
        [
          lower
            (Printf.sprintf "core.%s.us_per_node" m)
            "us"
            (Printf.sprintf "median of %d calls; call time / |f|"
               (List.length mine))
            (median
               (List.map (fun c -> c.secs *. 1e6 /. float_of_int c.size) mine));
          lower
            (Printf.sprintf "core.%s.nodes_made" m)
            "nodes" (basis ^ "; summed over the sample")
            (median (List.map float_of_int per_rep));
        ])
      methods

(* Every pool function must keep its size when imported. *)
let check_imports checks entries =
  List.iter
    (fun e ->
      let _, f = fresh e in
      check checks (Bdd.size f = e.size) (fun () ->
          Printf.sprintf "%s changed size on import" e.label))
    entries
