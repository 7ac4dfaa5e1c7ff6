(* One benchmark iteration: build a PIM-SM deployment for a workload
   schedule, replay the schedule in virtual-time slices, and run the
   end-of-run oracle, timing each phase on the host clock.

   The replay mirrors [Pim_exp.Workload.run] step for step (same topology
   stream, same event scheduling order, same steady sources), but drives
   the public entry points itself so that set-up, run and oracle can be
   timed apart.  [test_pimbench] checks that both give the same simulated
   totals. *)

module W = Pim_exp.Workload
module Stack = Pim_exp.Stack
module Engine = Pim_sim.Engine
module Net = Pim_sim.Net
module Topology = Pim_graph.Topology
module Transit_stub = Pim_graph.Transit_stub
module Static = Pim_routing.Static
module Rib = Pim_routing.Rib
module Deployment = Pim_core.Deployment
module Router = Pim_core.Router
module Group = Pim_net.Group
module Addr = Pim_net.Addr
module Prng = Pim_util.Prng

(* {1 Workloads}

   Both run PIM-SM with four static sharded RPs ([sharded:4]) on
   200-router transit-stub topologies.  Horizons are sized so that one
   iteration (a fresh process) takes 1 to 5 host seconds on a 2-core x86
   VM, so a 55 s run holds well over five of them.  Each layer named
   below is one library of the repository.

   - churn-ts200: stationary Zipf on/off churn, 64 groups, 4000
     receivers.  Steady load: the engine and Net (pim_sim), the protocol
     handlers (pim_core) and the FIB (pim_mcast) do the work, spread
     evenly over the slices.  Engine and FIB gains should move [run_s],
     [vsec_ms_p50] and [msgs_per_s] most here.
   - zap-ts200: IPTV zapping, 32 channels, 1000 receivers, with
     correlated storms where half the audience switches at once.
     Membership changes come in bursts and members leave more often per
     join than on churn, so per-(S,G) state set-up and teardown in
     pim_core is a larger share of each slice's work; a change there
     should move [vsec_ms_p95] and [run_s] here at least as much as on
     churn.

   On 200 routers the RIB (pim_routing) is built in about 0.02 s, over
   half of [setup_s], and its lookups are under 1 % of [run_s].  A RIB
   change should move [setup_s] on both workloads and nothing else end
   to end.

   The library's stale-oif defect (see README.md) makes the end-of-run
   oracle fail on some seeds of every spec tried, these two included
   (2 of 163 seeds tried on churn-ts200, 6 of 132 on zap-ts200).  A run
   on such a seed is incorrect and exits nonzero; the oracle stays a hard
   check.  Zapping on 500 and 2000 routers, Zipf churn on 1000 and
   backbone link flaps on 500 fail on far more seeds (up to 8 in 12) and
   take several times longer per iteration, so they are left out.  The
   RIB-heavy scale point and the link-change workload belong here once
   that defect is fixed. *)

type workload = {
  name : string;
  model : W.model;
  groups : int;
  scale : int;  (** receivers *)
}

let workloads =
  [
    { name = "churn-ts200"; model = W.Zipfian; groups = 64; scale = 4000 };
    { name = "zap-ts200"; model = W.Zap; groups = 32; scale = 1000 };
  ]

let nodes = 200

(** Virtual seconds of schedule; the settle tail follows. *)
let duration = 30.

(** Virtual seconds per timed [Engine.run] slice. *)
let slice = 0.25

let find name = List.find_opt (fun w -> String.equal w.name name) workloads

let spec_of w ~seed =
  {
    (W.default_spec w.model) with
    W.protocol = Stack.Pim_sm;
    rp_strategy = W.Sharded 4;
    nodes;
    groups = w.groups;
    scale = w.scale;
    duration;
    window = duration;
    domains = 1;
    seed;
  }

(* {1 Results} *)

type counts = {
  mutable deliveries : int;
  mutable ctrl : int;
  mutable data : int;
  mutable ctrl_at_horizon : int;  (** as of the schedule's end, before the settle tail *)
  mutable data_at_horizon : int;
  mutable joins : int;  (** node-level joins: 0->1 membership edges *)
  mutable joins_ok : int;  (** first data packet arrived *)
  mutable joins_abandoned : int;  (** member left before the group's next packet was sent *)
  mutable joins_failed : int;
}

type result = {
  setup_s : float;
  run_s : float;
  oracle_s : float;
  slice_ms : float array;  (** host ms per virtual-time slice *)
  counts : counts;
  stats : Router.stats;
  offered : int;
  dropped : int;
  entries_end : int;
  oracle_problems : int;
  oracle_report : string list;  (** one line per problem, named by its check *)
  sched_events : int;
  spt_switches : int;
  peak_heap_mb : float;
  setup_alloc_mb : float;
  rib_build_alloc_mb : float;
  run_alloc_mb : float;
  oracle_alloc_mb : float;
  run_promoted_mb : float;
  major_collections : int;
  entries_peak : int;  (** traced runs only *)
  pending_peak : int;  (** traced runs only *)
}

let mb_of_words w = w *. float_of_int (Sys.word_size / 8) /. 1e6

let seconds ns = float_of_int ns /. 1e9

(* Transit-stub sizing and topology stream of [Workload.run] (one transit
   router per ~40, three stubs each; the first split of the seed's
   master stream), which the library does not export. *)
let gen_topo (spec : W.spec) =
  let transit = Int.max 2 (spec.W.nodes / 40) in
  let stubs_per_transit = 3 in
  let stub_size = Int.max 1 (((spec.W.nodes / transit) - 1) / stubs_per_transit) in
  Transit_stub.generate ~transit ~stubs_per_transit ~stub_size ~backbone_delay:0.5
    ~access_delay:0.5
    ~prng:(Prng.split (Prng.create spec.W.seed))
    ()

(* How the replay calls into the layers.  Untraced, these are the plain
   entry points; traced, each call is wrapped in a span. *)
type ops = {
  join : Router.t -> Group.t -> unit;
  leave : Router.t -> Group.t -> unit;
  send : Router.t -> Group.t -> unit;
  event : (unit -> unit) -> unit -> unit;  (** a callback the replay schedules *)
  ribs : (Topology.node -> Rib.t) -> Topology.node -> Rib.t;
}

let plain_ops =
  {
    join = Router.join_local;
    leave = Router.leave_local;
    send = (fun r group -> Router.send_local_data r ~group ());
    event = Fun.id;
    ribs = Fun.id;
  }

let traced_ops tr =
  let n_join = Span.name tr "proto.join"
  and n_leave = Span.name tr "proto.leave"
  and n_send = Span.name tr "proto.send"
  and n_event = Span.name tr "bench.event"
  and n_lookup = Span.name tr "rib.lookup" in
  let lookup f a =
    let id = Span.enter tr n_lookup in
    let v = f a in
    Span.leave tr id;
    v
  in
  {
    join = (fun r g -> Span.within tr n_join (fun () -> Router.join_local r g));
    leave = (fun r g -> Span.within tr n_leave (fun () -> Router.leave_local r g));
    send = (fun r group -> Span.within tr n_send (fun () -> Router.send_local_data r ~group ()));
    event = (fun f () -> Span.within tr n_event f);
    ribs =
      (fun base u ->
        let r = base u in
        { r with Rib.next_hop = lookup r.Rib.next_hop; distance = lookup r.Rib.distance });
  }

let phase tr nm f = match tr with None -> f () | Some tr -> Span.within tr (Span.name tr nm) f

let run ?tracer (spec : W.spec) =
  let ops = match tracer with None -> plain_ops | Some tr -> traced_ops tr in
  Gc.full_major ();
  let gc0 = Gc.quick_stat () and a0 = Gc.allocated_bytes () in
  let t0 = Span.now_ns () in
  (* Set-up: topology, schedule, network, RIB, deployment, wiring. *)
  let ts = phase tracer "graph.gen" (fun () -> gen_topo spec) in
  let sched = phase tracer "sched.gen" (fun () -> W.generate spec) in
  let topo = ts.Transit_stub.topo in
  let n_nodes = Topology.n_nodes topo in
  let eng = Engine.create () in
  let net = Net.create eng topo in
  let ar = Gc.allocated_bytes () in
  let static = phase tracer "rib.build" (fun () -> Static.create net) in
  let rib_build_alloc_mb = (Gc.allocated_bytes () -. ar) /. 1e6 in
  let base_ribs = Static.rib static in
  let rp_set =
    Pim_core.Rp_set.of_list
      (List.map
         (fun (gi, rps) -> (Group.of_index gi, List.map Addr.router rps))
         sched.W.rp_placement)
  in
  let d =
    phase tracer "deploy.create" (fun () ->
        Deployment.create ~config:Pim_core.Config.fast ~net ~ribs:(ops.ribs base_ribs) ~rp_set ())
  in
  let router u = Deployment.router d u in
  let groups = Array.init spec.W.groups Group.of_index in
  let c =
    {
      deliveries = 0;
      ctrl = 0;
      data = 0;
      ctrl_at_horizon = 0;
      data_at_horizon = 0;
      joins = 0;
      joins_ok = 0;
      joins_abandoned = 0;
      joins_failed = 0;
    }
  in
  Net.on_deliver net (fun _ pkt ->
      c.deliveries <- c.deliveries + 1;
      if Pim_exp.Metrics.is_data pkt then c.data <- c.data + 1 else c.ctrl <- c.ctrl + 1);
  (* Join outcomes per (group, node), with the receiver-count aggregation
     of [Workload.run]: the protocol sees only 0->1 and 1->0 edges. *)
  let idx gi u = (gi * n_nodes) + u in
  let members = Array.make (spec.W.groups * n_nodes) 0 in
  let waiting = Array.make (spec.W.groups * n_nodes) false in
  let sent_at_join = Array.make (spec.W.groups * n_nodes) 0 in
  let sent = Array.make spec.W.groups 0 in
  let settle_join i gi =
    if waiting.(i) then begin
      waiting.(i) <- false;
      if sent.(gi) = sent_at_join.(i) then c.joins_abandoned <- c.joins_abandoned + 1
      else c.joins_failed <- c.joins_failed + 1
    end
  in
  for u = 0 to n_nodes - 1 do
    Router.on_local_data (router u) (fun pkt ->
        match Option.bind (Pim_mcast.Mdata.group pkt) Group.index with
        | Some gi when gi < spec.W.groups && waiting.(idx gi u) ->
          waiting.(idx gi u) <- false;
          c.joins_ok <- c.joins_ok + 1
        | Some _ | None -> ())
  done;
  let apply (ev : W.sevent) =
    let gi = ev.W.group and u = ev.W.node in
    let i = idx gi u in
    match ev.W.action with
    | W.Join ->
      members.(i) <- members.(i) + 1;
      if members.(i) = 1 then begin
        c.joins <- c.joins + 1;
        waiting.(i) <- true;
        sent_at_join.(i) <- sent.(gi);
        ops.join (router u) groups.(gi)
      end
    | W.Leave ->
      if members.(i) > 0 then begin
        members.(i) <- members.(i) - 1;
        if members.(i) = 0 then begin
          settle_join i gi;
          ops.leave (router u) groups.(gi)
        end
      end
  in
  (* Scheduling order matters for same-instant ties: schedule events,
     then sources, then the horizon mark, as [Workload.run] does (its
     window rolls sit where the mark sits). *)
  Array.iter
    (fun ev -> ignore (Engine.schedule_at eng ev.W.t (ops.event (fun () -> apply ev))))
    sched.W.events;
  Array.iter
    (fun (gi, src) ->
      ignore
        (Engine.every eng
           ~start:(1.0 +. (0.01 *. float_of_int gi))
           ~interval:1.0
           (ops.event (fun () ->
                sent.(gi) <- sent.(gi) + 1;
                ops.send (router src) groups.(gi)))))
    sched.W.sources;
  ignore
    (Engine.schedule_at eng spec.W.duration (fun () ->
         c.ctrl_at_horizon <- c.ctrl;
         c.data_at_horizon <- c.data));
  let t1 = Span.now_ns () in
  let a1 = Gc.allocated_bytes () in
  let gc1 = Gc.quick_stat () in
  (* Run: the whole virtual horizon, settle tail included, in slices.
     Sources keep sending through the tail because (S,G) keepalive is
     data-driven; see [Workload.run]. *)
  let horizon = spec.W.duration +. Stack.settle_hint Stack.Pim_sm in
  let n_slices = int_of_float (ceil ((horizon /. slice) -. 1e-9)) in
  let slice_ms = Array.make n_slices 0. in
  let entries_peak = ref 0 and pending_peak = ref 0 in
  let run_ns = ref 0 in
  let run_slice =
    match tracer with
    | None -> fun until -> Engine.run ~until eng
    | Some tr ->
      let nm = Span.name tr "engine.run" in
      fun until -> Span.within tr nm (fun () -> Engine.run ~until eng)
  in
  for k = 1 to n_slices do
    let until = Float.min horizon (float_of_int k *. slice) in
    let s0 = Span.now_ns () in
    run_slice until;
    let dt = Span.now_ns () - s0 in
    run_ns := !run_ns + dt;
    slice_ms.(k - 1) <- float_of_int dt /. 1e6;
    if Option.is_some tracer then begin
      entries_peak := Int.max !entries_peak (Deployment.total_entries d);
      pending_peak := Int.max !pending_peak (Engine.pending eng)
    end
  done;
  let a2 = Gc.allocated_bytes () in
  let gc2 = Gc.quick_stat () in
  (* Oracle: the PIM structural invariants over the final state. *)
  let t2 = Span.now_ns () in
  let checks =
    Stack.pim_state_checks ~net ~rib:base_ribs ~fib:(fun u -> Router.fib (router u))
  in
  let oracle_report =
    phase tracer "oracle.check" (fun () ->
        List.concat_map
          (fun (name, check) -> List.map (fun p -> name ^ ": " ^ p) (check ()))
          checks)
  in
  let t3 = Span.now_ns () in
  let a3 = Gc.allocated_bytes () in
  (* Joins still waiting when the horizon ends. *)
  Array.iteri (fun i w -> if w then settle_join i (i / n_nodes)) waiting;
  let stats = Deployment.total_stats d in
  let gc3 = Gc.quick_stat () in
  {
    setup_s = seconds (t1 - t0);
    run_s = seconds !run_ns;
    oracle_s = seconds (t3 - t2);
    slice_ms;
    counts = c;
    stats;
    offered = Net.offered net;
    dropped = Net.dropped net;
    entries_end = Deployment.total_entries d;
    oracle_problems = List.length oracle_report;
    oracle_report;
    sched_events = Array.length sched.W.events;
    spt_switches = stats.Router.spt_switches;
    peak_heap_mb = mb_of_words (float_of_int gc3.Gc.top_heap_words);
    setup_alloc_mb = (a1 -. a0) /. 1e6;
    rib_build_alloc_mb;
    run_alloc_mb = (a2 -. a1) /. 1e6;
    oracle_alloc_mb = (a3 -. a2) /. 1e6;
    run_promoted_mb = mb_of_words (gc2.Gc.promoted_words -. gc1.Gc.promoted_words);
    major_collections = gc3.Gc.major_collections - gc0.Gc.major_collections;
    entries_peak = !entries_peak;
    pending_peak = !pending_peak;
  }
