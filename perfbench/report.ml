(* Metrics of one iteration, as one JSON object per process.

   [run.py] combines these across the fresh-process iterations of a
   benchmark run; the names here are the names in BENCHMARK.json. *)

module Json = Pim_util.Json
module Router = Pim_core.Router

let num f = Json.Float f

(** The simulated counts: identical for one seed whatever the host, the
    tracing or the iteration.  [run.py] compares them across processes. *)
let sim_counts (r : Replay.result) =
  let c = r.Replay.counts and s = r.Replay.stats in
  [
    ("deliveries", c.Replay.deliveries);
    ("ctrl_msgs", c.Replay.ctrl);
    ("data_msgs", c.Replay.data);
    ("offered", r.Replay.offered);
    ("dropped", r.Replay.dropped);
    ("sched_events", r.Replay.sched_events);
    ("joins_attempted", c.Replay.joins);
    ("joins_ok", c.Replay.joins_ok);
    ("joins_abandoned", c.Replay.joins_abandoned);
    ("joins_failed", c.Replay.joins_failed);
    ("jp_msgs", s.Router.jp_msgs_sent);
    ("registers", s.Router.registers_sent);
    ("spt_switches", s.Router.spt_switches);
    ("data_forwarded", s.Router.data_forwarded);
    ("delivered_local", s.Router.data_delivered_local);
    ("drop_iif", s.Router.data_dropped_iif);
    ("drop_no_state", s.Router.data_dropped_no_state);
    ("entries_end", r.Replay.entries_end);
    ("oracle_problems", r.Replay.oracle_problems);
  ]

let join_ok_frac (c : Replay.counts) =
  let served = c.Replay.joins - c.Replay.joins_abandoned in
  if served = 0 then 0. else float_of_int c.Replay.joins_ok /. float_of_int served

(* The raw end-to-end figures of one iteration.  [run.py] combines the
   iterations of a run: it keeps each slice's fastest time, so the
   percentiles are taken there. *)
let end_to_end (r : Replay.result) =
  [
    ("setup_s", num r.Replay.setup_s);
    ("run_s", num r.Replay.run_s);
    ("oracle_s", num r.Replay.oracle_s);
    ("slice_ms", Json.Arr (Array.to_list (Array.map num r.Replay.slice_ms)));
    ("peak_heap_mb", num r.Replay.peak_heap_mb);
    ( "alloc_mb",
      num (r.Replay.setup_alloc_mb +. r.Replay.run_alloc_mb +. r.Replay.oracle_alloc_mb) );
    ("join_ok_frac", num (join_ok_frac r.Replay.counts));
  ]

(* Per-layer metrics of a traced iteration, read off its spans. *)
let per_layer tr (r : Replay.result) =
  let summary = Span.summary tr in
  let find nm =
    match List.find_opt (fun (s, _, _, _) -> String.equal s nm) summary with
    | Some (_, calls, total, self) -> (calls, total, self)
    | None -> (0, 0, 0)
  in
  let calls nm =
    let n, _, _ = find nm in
    n
  and total_s nm =
    let _, t, _ = find nm in
    Replay.seconds t
  and self_s nm =
    let _, _, s = find nm in
    Replay.seconds s
  in
  let id nm = Span.name tr nm in
  (* Accounting of the traced run time: engine self time, plus the
     benchmark's own scheduled callbacks (self), plus what those
     callbacks and the engine's packet handlers called directly.  These
     sum to the engine.run spans by construction; [accounted_frac]
     compares them with the traced [run_s], which the replay times with
     its own clock reads around each slice. *)
  let engine = id "engine.run" and event = id "bench.event" in
  let direct parent child = Replay.seconds (Span.under tr ~parent ~child:(id child)) in
  let children_of_engine = direct engine "bench.event" +. direct engine "rib.lookup" in
  let engine_self = total_s "engine.run" -. children_of_engine in
  let under_events =
    List.fold_left
      (fun acc nm -> acc +. direct event nm)
      0.
      [ "proto.join"; "proto.leave"; "proto.send" ]
  in
  let accounted =
    engine_self +. self_s "bench.event" +. under_events +. direct engine "rib.lookup"
  in
  let s = r.Replay.stats in
  let forwarded = s.Router.data_forwarded in
  let drops = s.Router.data_dropped_iif + s.Router.data_dropped_no_state in
  let c = r.Replay.counts in
  let int k v = (k, Json.Int v) and flt k v = (k, num v) in
  [
    flt "graph.gen_s" (total_s "graph.gen");
    flt "sched.gen_s" (total_s "sched.gen");
    int "sched.events" r.Replay.sched_events;
    flt "rib.build_s" (total_s "rib.build");
    flt "rib.build_alloc_mb" r.Replay.rib_build_alloc_mb;
    flt "deploy.create_s" (total_s "deploy.create");
    int "rib.lookups" (calls "rib.lookup");
    flt "rib.lookup_s" (total_s "rib.lookup");
    int "proto.join_calls" (calls "proto.join");
    flt "proto.join_s" (total_s "proto.join");
    int "proto.leave_calls" (calls "proto.leave");
    flt "proto.leave_s" (total_s "proto.leave");
    int "proto.send_calls" (calls "proto.send");
    flt "proto.send_s" (total_s "proto.send");
    int "pim.jp_msgs" s.Router.jp_msgs_sent;
    int "pim.registers" s.Router.registers_sent;
    int "pim.spt_switches" s.Router.spt_switches;
    int "pim.data_forwarded" forwarded;
    int "pim.delivered_local" s.Router.data_delivered_local;
    int "pim.drop_iif" s.Router.data_dropped_iif;
    int "pim.drop_no_state" s.Router.data_dropped_no_state;
    flt "pim.waste_frac"
      (if forwarded = 0 then 0. else float_of_int drops /. float_of_int forwarded);
    flt "engine.run_s" (total_s "engine.run");
    flt "engine.self_s" engine_self;
    flt "bench.event_self_s" (self_s "bench.event");
    flt "trace.accounted_frac" (accounted /. r.Replay.run_s);
    int "engine.pending_peak" r.Replay.pending_peak;
    int "net.deliveries" c.Replay.deliveries;
    int "net.ctrl_msgs" c.Replay.ctrl;
    int "net.data_msgs" c.Replay.data;
    int "net.offered" r.Replay.offered;
    int "net.dropped" r.Replay.dropped;
    int "fwd.entries_peak" r.Replay.entries_peak;
    int "fwd.entries_end" r.Replay.entries_end;
    flt "oracle.check_s" (total_s "oracle.check");
    int "oracle.problems" r.Replay.oracle_problems;
    flt "gc.setup_alloc_mb" r.Replay.setup_alloc_mb;
    flt "gc.run_alloc_mb" r.Replay.run_alloc_mb;
    flt "gc.run_promoted_mb" r.Replay.run_promoted_mb;
    int "gc.major_collections" r.Replay.major_collections;
    int "trace.spans" (Span.count tr);
  ]
