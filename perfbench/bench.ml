(* The benchmark's measuring process.  Normally started by run.py, which
   builds it first:

     bench.exe --workload paper|serve --seed N --seconds S
               --trace 0|1 --run-dir DIR --serve-exe PATH [--rev REV]

   --trace 0 prints the workload's end-to-end metrics, --trace 1 its
   per-layer metrics (from a run with span recording on, which also
   prints the tracing overhead against an untraced pass and writes the
   spans to DIR/trace-<workload>-seed<N>.json).  Every output is checked
   outside the timed windows; any failed check, or a percentile without
   ten samples beyond it, exits 1 without a result.

   Standard output: one line per metric (name, value, unit, better
   direction, basis), then the full record as one JSON line.  run.py
   derives the result line from the record. *)

open Pb

let workloads =
  [
    ("paper", W_paper.run);
    ("serve", W_serve.run);
  ]

let usage () =
  prerr_endline
    "usage: bench.exe --workload paper|serve --seed N --seconds S\n\
    \                 --trace 0|1 --run-dir DIR --serve-exe PATH [--rev REV]";
  exit 2

(* --- one-line JSON ---------------------------------------------------------- *)

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let json_float x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else Printf.sprintf "%.17g" x

let json_obj kvs =
  let field (k, v) = json_string k ^ ": " ^ v in
  "{" ^ String.concat ", " (List.map field kvs) ^ "}"

let metric_obj m =
  json_obj
    [
      ("value", json_float m.value);
      ("unit", json_string m.unit_);
      ("better", json_string (better_name m.better));
      ("basis", json_string m.basis);
    ]

(* --- main ------------------------------------------------------------------- *)

let () =
  let workload = ref None and seed = ref None and seconds = ref None
  and trace = ref None and run_dir = ref None and serve_exe = ref None
  and rev = ref "unknown" in
  let rec parse = function
    | [] -> ()
    | "--workload" :: w :: rest ->
        if not (List.mem_assoc w workloads) then usage ();
        workload := Some w;
        parse rest
    | "--seed" :: n :: rest ->
        seed :=
          Some (match int_of_string_opt n with Some n -> n | None -> usage ());
        parse rest
    | "--seconds" :: s :: rest ->
        (seconds :=
           match float_of_string_opt s with
           | Some s when s > 0.0 -> Some s
           | _ -> usage ());
        parse rest
    | "--trace" :: t :: rest ->
        (trace :=
           match t with "0" -> Some false | "1" -> Some true | _ -> usage ());
        parse rest
    | "--run-dir" :: d :: rest ->
        run_dir := Some d;
        parse rest
    | "--serve-exe" :: p :: rest ->
        serve_exe := Some p;
        parse rest
    | "--rev" :: r :: rest ->
        rev := r;
        parse rest
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let get r = match !r with Some v -> v | None -> usage () in
  let name = get workload and seed = get seed and seconds = get seconds
  and trace = get trace in
  let env = { run_dir = get run_dir; serve_exe = get serve_exe } in
  (* SIGINT/SIGTERM: stop the server child and remove the scratch files
     before going down *)
  let on_signal s =
    run_cleanups ();
    exit (128 + if s = Sys.sigint then 2 else 15)
  in
  Sys.set_signal Sys.sigint (Sys.Signal_handle on_signal);
  Sys.set_signal Sys.sigterm (Sys.Signal_handle on_signal);
  at_exit run_cleanups;
  let trace_file =
    Filename.concat env.run_dir (Printf.sprintf "trace-%s-seed%d.json" name seed)
  in
  let outcome =
    try (List.assoc name workloads) ~seed ~seconds ~trace env with
    | Too_few m ->
        Printf.eprintf "perfbench: %s\n" m;
        exit 1
  in
  if trace then Pb_span.write trace_file;
  let c = outcome.checks in
  List.iter
    (fun m ->
      Printf.printf "%-32s %14.6g %-6s %-6s  %s\n" m.name m.value m.unit_
        (better_name m.better) m.basis)
    outcome.metrics;
  List.iter print_endline outcome.lines;
  if trace then
    List.iter
      (fun (span, n, self) ->
        Printf.printf "self time %-20s %10.4f s over %d spans\n" span self n)
      (Pb_span.self_by_name ());
  let bad =
    List.filter (fun m -> not (Float.is_finite m.value)) outcome.metrics
  in
  List.iter
    (fun m -> Printf.eprintf "perfbench: %s is not a number\n" m.name)
    bad;
  if c.failed > 0 || c.attempted = 0 || bad <> [] then begin
    Printf.eprintf "perfbench: %s: %d of %d checks failed\n" name c.failed
      c.attempted;
    List.iter (fun n -> Printf.eprintf "  %s\n" n) (List.rev c.notes);
    exit 1
  end;
  let metrics =
    json_obj (List.map (fun m -> (m.name, metric_obj m)) outcome.metrics)
  in
  print_endline
    (json_obj
       [
         ("record", "1");
         ("workload", json_string name);
         ("seed", string_of_int seed);
         ("seconds", json_float seconds);
         ("trace", if trace then "1" else "0");
         ("host_cpus", string_of_int (Domain.recommended_domain_count ()));
         ("git_rev", json_string !rev);
         ("ocaml", json_string Sys.ocaml_version);
         ("attempted", string_of_int c.attempted);
         ("failed", string_of_int c.failed);
         ( "error_rate",
           json_float (float_of_int c.failed /. float_of_int c.attempted) );
         ( "notes",
           "[" ^ String.concat ", " (List.map json_string outcome.lines) ^ "]" );
         ("metrics", metrics);
       ])
