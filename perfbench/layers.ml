(* What one run measured, and how it becomes the printed metrics: the
   end-to-end figures of an untraced run, or the per-layer split of a
   traced one. Both lists are the same for every workload; a layer a
   workload never enters reads 0. *)

type counters = {
  crossings : int;
  components : int;
  dcache_hits : int;
  dcache_misses : int;
  invalidations : int;
  events : int;         (* fsnotify events dispatched *)
  watches : int;        (* fsnotify watches visited *)
  overflows : int;
  adds : int;           (* driver.commit.adds: rules installed *)
  deletes : int;
  keys : int;
  batches : int;
  pktin_dropped : int;
  frames : int;
  paths : int;          (* ECMP paths installed *)
  coalesced : int;      (* DFS op-log ops coalesced *)
}

type result = {
  setup_s : float;          (* median over the run's set-ups *)
  wall_s : float;           (* timed phase *)
  ops : int;                (* attempted in the timed phase *)
  failed : int;
  completed : int;
  lat_ms : float array;     (* sorted per-op latencies *)
  errors : string list;     (* correctness violations *)
  before : counters;
  after : counters;
  words : float * float;    (* minor, major words allocated *)
  extra : (string * float) list;  (* workload-specific layer figures *)
}

let end_to_end r =
  [ ("setup_s", "s", r.setup_s);
    ("ops_per_s", "1/s", float_of_int r.completed /. r.wall_s);
    ("op_ms_p50", "ms", Util.pct r.lat_ms 0.5);
    ("op_ms_p95", "ms", Util.pct r.lat_ms 0.95);
    ("heap_peak_mb", "MB", Util.heap_peak_mb ()) ]

(* Name and unit of every per-layer metric, in print order. *)
let layer_units =
  [ ("yancfs.write_s", "s"); ("yancfs.read_s", "s");
    ("fsnotify.events_per_op", "count"); ("fsnotify.watches_visited_per_op", "count");
    ("fsnotify.overflows", "count");
    ("vfs.crossings_per_op", "count"); ("vfs.components_per_op", "count");
    ("vfs.dcache_hit_ratio", "ratio"); ("vfs.invalidations_per_op", "count");
    ("driver.step_s", "s"); ("driver.flow_mods_per_op", "count");
    ("driver.keys_per_batch", "count"); ("driver.installs_per_op", "count");
    ("apps.ecmpd_s", "s"); ("apps.paths_per_op", "count");
    ("yancfs.pktin_dropped", "count");
    ("apps.policyd_s", "s"); ("policy.parse_s", "s"); ("policy.compile_s", "s");
    ("policy.rules", "count"); ("policy.flow_mods_per_edit", "count");
    ("netsim.run_s", "s"); ("netsim.inject_s", "s"); ("netsim.frames_per_op", "count");
    ("dfs.replay_s", "s"); ("dfs.ops_coalesced_per_op", "count");
    ("yanc.node_busy_max_s", "s");
    ("yanc.sched_s", "s"); ("harness.poll_s", "s");
    ("gc.minor_words_per_op", "count"); ("gc.major_words_per_op", "count");
    ("gc.minor_s", "s"); ("gc.major_s", "s");
    ("trace.wall_s", "s"); ("trace.self_share", "ratio");
    ("trace.ops_per_s", "1/s") ]

(* Layers whose self times partition the traced run's wall time (GC
   pauses happen inside them and are reported on their own). *)
let self_layers =
  [ "yancfs.write_s"; "yancfs.read_s"; "driver.step_s"; "apps.ecmpd_s";
    "apps.policyd_s"; "netsim.run_s"; "netsim.inject_s"; "dfs.replay_s";
    "yanc.sched_s"; "harness.poll_s" ]

let self_share r tr =
  List.fold_left (fun s n -> s +. Trace.self_s tr n) 0. self_layers /. r.wall_s

let per_layer r tr =
  let d f = float_of_int (f r.after - f r.before) in
  let ops = float_of_int (max 1 r.ops) in
  let per f = d f /. ops in
  let hits = d (fun c -> c.dcache_hits) and misses = d (fun c -> c.dcache_misses) in
  let minor_s, major_s = Trace.gc_s tr in
  let measured =
    List.map (fun n -> (n, Trace.self_s tr n)) self_layers
    @ [ ("fsnotify.events_per_op", per (fun c -> c.events));
        ("fsnotify.watches_visited_per_op", per (fun c -> c.watches));
        ("fsnotify.overflows", d (fun c -> c.overflows));
        ("vfs.crossings_per_op", per (fun c -> c.crossings));
        ("vfs.components_per_op", per (fun c -> c.components));
        ("vfs.dcache_hit_ratio",
         if hits +. misses > 0. then hits /. (hits +. misses) else 0.);
        ("vfs.invalidations_per_op", per (fun c -> c.invalidations));
        ("driver.flow_mods_per_op", per (fun c -> c.adds + c.deletes));
        ("driver.keys_per_batch",
         d (fun c -> c.keys) /. Float.max 1. (d (fun c -> c.batches)));
        ("driver.installs_per_op", per (fun c -> c.adds));
        ("apps.paths_per_op", per (fun c -> c.paths));
        ("yancfs.pktin_dropped", d (fun c -> c.pktin_dropped));
        ("netsim.frames_per_op", per (fun c -> c.frames));
        ("dfs.ops_coalesced_per_op", per (fun c -> c.coalesced));
        ("gc.minor_words_per_op", fst r.words /. ops);
        ("gc.major_words_per_op", snd r.words /. ops);
        ("gc.minor_s", minor_s); ("gc.major_s", major_s);
        ("trace.wall_s", r.wall_s);
        ("trace.self_share", self_share r tr);
        ("trace.ops_per_s", float_of_int r.completed /. r.wall_s) ]
    @ r.extra
  in
  List.map
    (fun (n, u) -> (n, u, Option.value ~default:0. (List.assoc_opt n measured)))
    layer_units
