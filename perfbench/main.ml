(* One benchmark iteration in a fresh process:

     main.exe --workload NAME --seed N [--trace] [--spans FILE]

   prints one JSON object (end-to-end metrics, simulated counts, and with
   --trace the per-layer metrics) and exits 0 when the run is
   oracle-clean, 1 when it is not (after naming each oracle problem on
   standard error), 2 on bad arguments.  --spans writes
   the traced run's spans as tab-separated lines. *)

module Json = Pim_util.Json

let usage () =
  prerr_endline
    ("usage: main.exe --workload NAME --seed N [--trace] [--spans FILE]\nworkloads: "
    ^ String.concat ", " (List.map (fun w -> w.Pimbench.Replay.name) Pimbench.Replay.workloads));
  exit 2

let () =
  let workload = ref None and seed = ref None and trace = ref false and spans = ref None in
  let rec parse = function
    | "--workload" :: v :: rest ->
      workload := Some v;
      parse rest
    | "--seed" :: v :: rest ->
      seed := int_of_string_opt v;
      if !seed = None then usage ();
      parse rest
    | "--trace" :: rest ->
      trace := true;
      parse rest
    | "--spans" :: v :: rest ->
      spans := Some v;
      parse rest
    | [] -> ()
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let w =
    match Option.bind !workload Pimbench.Replay.find with Some w -> w | None -> usage ()
  in
  let seed = match !seed with Some s -> s | None -> usage () in
  let tracer = if !trace then Some (Pimbench.Span.create ()) else None in
  let r =
    Pimbench.Replay.run ?tracer (Pimbench.Replay.spec_of w ~seed)
  in
  let layers =
    match tracer with
    | None -> []
    | Some tr ->
      Option.iter (Pimbench.Span.write tr) !spans;
      [ ("layers", Json.Obj (Pimbench.Report.per_layer tr r)) ]
  in
  let out =
    Json.Obj
      ([
         ("workload", Json.Str w.Pimbench.Replay.name);
         ("seed", Json.Int seed);
         ("traced", Json.Bool !trace);
         ("e2e", Json.Obj (Pimbench.Report.end_to_end r));
         ( "sim",
           Json.Obj
             (List.map (fun (k, v) -> (k, Json.Int v)) (Pimbench.Report.sim_counts r)) );
       ]
      @ layers)
  in
  print_endline (Json.to_string out);
  List.iter (fun p -> prerr_endline ("oracle " ^ p)) r.Pimbench.Replay.oracle_report;
  if r.Pimbench.Replay.oracle_problems > 0 then exit 1
