(* The controlled fleet a workload drives: one controller, or n sharded
   nodes over the DFS. One round of either is replayed and timed by
   layer when the run is traced; the program's counters are summed
   over every controller. *)

module N = Netsim

(* Periodic stats polls off: the workloads measure flow programming. *)
let tuning =
  { Driver.Driver_intf.default_tuning with
    Driver.Driver_intf.stats_interval = 0. }

type t = Single of Yanc.Controller.t | Sharded of Yanc.Cluster.t

(* A single controller with every switch of [net] attached. *)
let single net =
  let ctl = Yanc.Controller.create ~tuning ~net () in
  Yanc.Controller.attach_switches ctl;
  Yanc.Controller.run_for ctl 0.6;
  ctl

(* [nodes] sharded controllers, booted until every shard is owned and
   every switch attached. *)
let sharded ~nodes net =
  let c = Yanc.Cluster.create ~tuning ~n:nodes ~net () in
  if not (Yanc.Cluster.run_until ~tick:0.01 c (fun () -> Yanc.Cluster.converged c))
  then Util.fail "cluster did not converge at boot";
  c

let controllers = function
  | Single c -> [ c ]
  | Sharded c -> List.init (Yanc.Cluster.size c) (Yanc.Cluster.controller c)

(* The FS of the cluster node that owns switch [dpid]. *)
let owner_yfs c dpid =
  match Yanc.Cluster.owner_index c dpid with
  | Some i -> Yanc.Controller.yfs (Yanc.Cluster.controller c i)
  | None -> Util.fail "switch %Ld has no owner" dpid

let wrap tr name (app : Apps.App_intf.t) =
  if not tr.Trace.on then app
  else { app with run = (fun ~now -> Trace.time tr name (fun () -> app.run ~now)) }

(* --- one round ------------------------------------------------------------------ *)

(* Controller.step, replayed from its public parts so each layer can be
   timed; the fidelity self-test proves it does the same work. *)
let traced_step tr ctl =
  let net = Yanc.Controller.net ctl in
  let now = N.Network.now net in
  Vfs.Fs.set_time (Yanc.Controller.fs ctl) now;
  let tracer = Telemetry.tracer (Yanc.Controller.telemetry ctl) in
  Telemetry.Tracer.set_now tracer now;
  Telemetry.Tracer.bump_round tracer;
  let mgr = Yanc.Controller.manager ctl in
  Trace.time tr "driver.step_s" (fun () -> Driver.Manager.step mgr ~now);
  Trace.time tr "yanc.sched_s" (fun () ->
      ignore (Yanc.Controller.scheduler ctl |> Yanc.Scheduler.tick ~now));
  Trace.time tr "driver.step_s" (fun () -> Driver.Manager.step mgr ~now)

let drain_net net tick =
  N.Network.run net;
  if N.Network.pending_events net = 0 then N.Network.advance_idle net tick

(* One round of a single controller, replayed and timed when traced. *)
let single_round tr ctl net tick =
  if tr.Trace.on then begin
    traced_step tr ctl;
    Trace.time tr "netsim.run_s" (fun () -> drain_net net tick)
  end
  else begin
    Yanc.Controller.step ctl;
    drain_net net tick
  end

(* The cluster round is opaque. Its node loops (lease renewal,
   reconcile, controller round) and op-log replay come from the
   program's own busy accounting, which counts process CPU seconds, so
   the round is timed in CPU seconds too; what is left of it (data-plane
   drain, DFS clock) is the network's. *)
let cluster_round tr c tick =
  if not tr.Trace.on then Yanc.Cluster.step ~tick c
  else begin
    let idx = List.init (Yanc.Cluster.size c) Fun.id in
    let sum f = List.fold_left (fun s i -> s +. f i) 0. idx in
    let loops () = sum (Yanc.Cluster.step_busy_s c) in
    let replay () = sum (Dfs.Cluster.replay_busy_s (Yanc.Cluster.dfs c)) in
    let l0 = loops () and r0 = replay () in
    Trace.time ~cpu:true tr "netsim.run_s" (fun () ->
        Yanc.Cluster.step ~tick c;
        Trace.attribute tr "driver.step_s" (loops () -. l0);
        Trace.attribute tr "dfs.replay_s" (replay () -. r0))
  end

let round tr fleet net tick =
  (match fleet with
  | Single ctl -> single_round tr ctl net tick
  | Sharded c -> cluster_round tr c tick);
  Trace.poll_gc tr

(* CPU seconds each cluster node has consumed (its loop plus its
   replica's replay), as the program accounts them. *)
let busy c = List.init (Yanc.Cluster.size c) (Yanc.Cluster.busy_s c)

(* --- counters ------------------------------------------------------------------- *)

let registry_sum ctls name =
  List.fold_left
    (fun s ctl ->
      let reg = Telemetry.registry (Yanc.Controller.telemetry ctl) in
      s + Telemetry.Registry.value (Telemetry.Registry.counter reg name))
    0 ctls

(* The program's own counters, summed over the fleet's controllers. *)
let counters ?(paths = 0) fleet net =
  let ctls = controllers fleet in
  let cost f = List.fold_left (fun s c -> s + f (Yanc.Controller.cost c)) 0 ctls in
  let reg = registry_sum ctls in
  { Layers.crossings = cost Vfs.Cost.crossings;
    components = cost Vfs.Cost.components;
    dcache_hits = cost Vfs.Cost.dentry_hits;
    dcache_misses = cost Vfs.Cost.dentry_misses;
    invalidations = cost Vfs.Cost.invalidations;
    events = cost Vfs.Cost.events_dispatched;
    watches = cost Vfs.Cost.watches_visited;
    overflows = cost Vfs.Cost.overflows;
    adds = reg "driver.commit.adds";
    deletes = reg "driver.commit.deletes";
    keys = reg "driver.commit.keys";
    batches = reg "driver.commit.batches";
    pktin_dropped = reg "driver.pktin.dropped";
    frames = fst (N.Network.stats net);
    paths;
    coalesced =
      (match fleet with
      | Single _ -> 0
      | Sharded c -> (Dfs.Cluster.metrics (Yanc.Cluster.dfs c)).Dfs.Cluster.ops_coalesced) }
