(* The benchmark's own checks: its replay is the program's replay, and
   tracing does not perturb the simulation.  test_run.py checks how
   run.py combines iterations. *)

module W = Pim_exp.Workload
module Replay = Pimbench.Replay
module Report = Pimbench.Report

let small model =
  {
    (W.default_spec model) with
    W.nodes = 80;
    groups = 8;
    scale = 200;
    duration = 20.;
    window = 5.;
    seed = 7;
  }

(* Same control, data, node-join, SPT-switch, end-state and oracle
   totals as [Workload.run] on the same spec. *)
let composition model () =
  let spec = small model in
  let rep = W.run spec in
  let r = Replay.run spec in
  let c = r.Replay.counts in
  let check name want got = Alcotest.(check int) name want got in
  check "control msgs" rep.W.total_control c.Replay.ctrl_at_horizon;
  check "data msgs" rep.W.total_data c.Replay.data_at_horizon;
  check "node joins" rep.W.total_node_joins c.Replay.joins;
  check "joins served" rep.W.join_latency.Pim_util.Stats.n c.Replay.joins_ok;
  check "spt switches" rep.W.total_spt_switches r.Replay.spt_switches;
  check "entries at end" rep.W.entries_end r.Replay.entries_end;
  check "oracle problems" (List.fold_left (fun a (_, n) -> a + n) 0 rep.W.oracle)
    r.Replay.oracle_problems

let untraced_equals_traced model () =
  let spec = small model in
  let plain = Replay.run spec in
  let tracer = Pimbench.Span.create () in
  let traced = Replay.run ~tracer spec in
  Alcotest.(check (list (pair string int)))
    "simulated counts" (Report.sim_counts plain) (Report.sim_counts traced);
  let layers = Report.per_layer tracer traced in
  let num k =
    match List.assoc k layers with
    | Pim_util.Json.Int n -> float_of_int n
    | Pim_util.Json.Float f -> f
    | _ -> Alcotest.fail k
  in
  (* The spans are timed apart from the replay's own per-slice clock;
     they may miss only the span bookkeeping around each slice. *)
  let frac = num "trace.accounted_frac" in
  Alcotest.(check bool)
    (Printf.sprintf "spans account for run_s (%.6f)" frac)
    true
    (frac > 0.99 && frac <= 1.)

let () =
  Alcotest.run "pimbench"
    [
      ( "replay",
        [
          Alcotest.test_case "zap composes with Workload.run" `Quick (composition W.Zap);
          Alcotest.test_case "zipf composes with Workload.run" `Quick (composition W.Zipfian);
          Alcotest.test_case "tracing leaves zap unperturbed" `Quick
            (untraced_equals_traced W.Zap);
          Alcotest.test_case "tracing leaves zipf unperturbed" `Quick
            (untraced_equals_traced W.Zipfian);
        ] );
    ]
