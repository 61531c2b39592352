(* The [storm] workload: a seeded reactive connection storm on a
   fat-tree under one controller.

   Every arrival of [Netsim.Workload] is a TCP connection: its SYN is
   injected at the source host, the destination listens on the port,
   and the connection is done when the initiator records the handshake
   (which needs ECMP rules on a forward and a reverse path). The sim
   clock advances one tick only when the data plane is idle, so the
   offered rate fixes the burst per round and the generator never
   outruns the controller. *)

module N = Netsim
module Y = Yancfs

type config = {
  k : int;            (* fat-tree arity *)
  rate : float;       (* arrivals per simulated second *)
  tick : float;       (* simulated seconds per idle round *)
  warm : int;         (* warm-up arrivals inside set-up *)
  drain_limit : float;(* simulated seconds a connection may take *)
}

let storm = { k = 8; rate = 2000.; tick = 0.005; warm = 150; drain_limit = 2.0 }

type conn = {
  a : N.Workload.arrival;
  t_in : float;
  mutable t_done : float;  (* nan until established *)
}

type rig = {
  cfg : config;
  ctl : Yanc.Controller.t;
  net : N.Network.t;
  topo : Checks.topo;
  hosts : N.Sim_host.t array;     (* index = host number *)
  seen : int array;               (* handshake records already read *)
  wl : N.Workload.t;
  mutable next : N.Workload.arrival;
  pending : (int, conn list) Hashtbl.t;  (* by source host *)
  mutable conns : conn list;      (* every connection, newest first *)
  mutable injected : int;         (* = List.length conns *)
  router : Apps.Ecmp_router.t;
  tr : Trace.t;
}

(* The fabric inventory, written straight into the FS: peer symlinks
   for every inter-switch link and /net/hosts entries with attachment
   points, as a datacenter's inventory system would provide them. *)
let provision yfs (built : N.Topo_gen.built) =
  let cred = Vfs.Cred.root and sw = Y.Yanc_fs.switch_name_of_dpid in
  let ok what = function
    | Ok () -> ()
    | Error e -> Util.fail "provision %s: %s" what (Vfs.Errno.message e)
  in
  List.iter
    (function
      | N.Network.Sw (d1, p1), N.Network.Sw (d2, p2) ->
        ok "peer"
          (Y.Yanc_fs.set_peer yfs ~cred ~switch:(sw d1) ~port:p1
             ~peer:(Some (sw d2, p2)));
        ok "peer"
          (Y.Yanc_fs.set_peer yfs ~cred ~switch:(sw d2) ~port:p2
             ~peer:(Some (sw d1, p1)))
      | N.Network.Sw (d, p), N.Network.Hst h
      | N.Network.Hst h, N.Network.Sw (d, p) ->
        let i = int_of_string (String.sub h 1 (String.length h - 1)) in
        ok "host"
          (Y.Yanc_fs.upsert_host yfs ~cred ~name:h ~mac:(N.Topo_gen.host_mac i)
             ~ip:(Some (N.Topo_gen.host_ip i)) ~attached_to:(sw d, p) ())
      | N.Network.Hst _, N.Network.Hst _ -> ())
    (N.Network.link_endpoints built.N.Topo_gen.net)

(* --- one round ------------------------------------------------------------------ *)

let inject r ~upto =
  while r.next.N.Workload.at <= upto do
    let a = r.next in
    N.Sim_host.listen r.hosts.(a.dst) a.dst_port;
    N.Network.send_from_host r.net (Checks.host_name a.src)
      [ N.Workload.first_frame a ];
    let c = { a; t_in = Util.now (); t_done = Float.nan } in
    r.conns <- c :: r.conns;
    r.injected <- r.injected + 1;
    Hashtbl.replace r.pending a.src
      (c :: Option.value ~default:[] (Hashtbl.find_opt r.pending a.src));
    r.next <- N.Workload.next r.wl
  done

(* Mark connections whose initiator has recorded the handshake since
   the last poll. *)
let poll r =
  let t = Util.now () in
  let updates = ref [] in
  Hashtbl.iter
    (fun h cs ->
      let est = N.Sim_host.tcp_established r.hosts.(h) in
      let n = List.length est in
      if n > r.seen.(h) then begin
        let fresh = List.filteri (fun i _ -> i >= r.seen.(h)) est in
        r.seen.(h) <- n;
        let rest =
          List.fold_left
            (fun cs (local, remote) ->
              let rec take = function
                | [] -> []
                | c :: more
                  when c.a.N.Workload.src_port = local
                       && c.a.N.Workload.dst_port = remote ->
                  c.t_done <- t;
                  more
                | c :: more -> c :: take more
              in
              take cs)
            (List.rev cs) fresh
        in
        updates := (h, List.rev rest) :: !updates
      end)
    r.pending;
  List.iter
    (fun (h, cs) ->
      if cs = [] then Hashtbl.remove r.pending h
      else Hashtbl.replace r.pending h cs)
    !updates

let round r ~inject_now =
  let tr = r.tr in
  if inject_now then
    Trace.time tr "netsim.inject_s" (fun () -> inject r ~upto:(N.Network.now r.net));
  Fleet.round tr (Fleet.Single r.ctl) r.net r.cfg.tick;
  Trace.time tr "harness.poll_s" (fun () -> poll r)

(* Rounds until none of [cs] is still waiting or [limit] simulated
   seconds pass, injecting new arrivals meanwhile when [inject_now]. *)
let settle_conns r ~inject_now cs =
  let limit = N.Network.now r.net +. r.cfg.drain_limit in
  let waiting () = List.exists (fun c -> Float.is_nan c.t_done) cs in
  while waiting () && N.Network.now r.net < limit do
    round r ~inject_now
  done

(* Inject until [stop ()] holds, then run rounds without injecting until
   every connection is established or the drain limit passes. *)
let drive r ~stop =
  while not (stop ()) do
    round r ~inject_now:true
  done;
  settle_conns r ~inject_now:false r.conns

(* --- set-up ----------------------------------------------------------------------- *)

let setup cfg ~seed ~tr =
  let built = N.Topo_gen.fat_tree ~k:cfg.k () in
  let net = built.N.Topo_gen.net in
  let ctl = Fleet.single net in
  provision (Yanc.Controller.yfs ctl) built;
  let router = Apps.Ecmp_router.create (Yanc.Controller.yfs ctl) in
  Yanc.Controller.add_app ctl
    (Fleet.wrap tr "apps.ecmpd_s" (Apps.Ecmp_router.app router));
  let n_hosts = List.length built.N.Topo_gen.host_names in
  let hosts =
    Array.init (n_hosts + 1) (fun i ->
        let name = Checks.host_name (max 1 i) in
        match N.Network.host net name with
        | Some h -> h
        | None -> Util.fail "no host %s" name)
  in
  let profile = { N.Workload.default_profile with N.Workload.rate = cfg.rate } in
  let wl =
    N.Workload.create ~profile ~start:(N.Network.now net) ~seed ~hosts:n_hosts ()
  in
  { cfg; ctl; net; topo = Checks.topo_of net; hosts;
    seen = Array.make (n_hosts + 1) 0; wl; next = N.Workload.next wl;
    pending = Hashtbl.create 64; conns = []; injected = 0; router; tr }

(* --- counters ------------------------------------------------------------------- *)

let counters r =
  Fleet.counters (Fleet.Single r.ctl) r.net
    ~paths:(Apps.Ecmp_router.paths_installed r.router)

(* --- checks --------------------------------------------------------------------- *)

let check r =
  Yanc.Controller.run_for ~tick:r.cfg.tick r.ctl (r.cfg.tick *. 4.);
  let arrivals = List.rev_map (fun c -> c.a) r.conns in
  let conns =
    List.map
      (fun (a : N.Workload.arrival) ->
        { Checks.src = a.src; dst = a.dst; sport = a.src_port; dport = a.dst_port })
      arrivals
  in
  let hs =
    Checks.handshakes conns ~established:(fun h ->
        N.Sim_host.tcp_established r.hosts.(h))
  in
  let paths = Checks.forward_paths r.net r.topo arrivals in
  let tables =
    List.concat_map
      (fun sw ->
        let dpid = N.Sim_switch.dpid sw in
        let name = Y.Yanc_fs.switch_name_of_dpid dpid in
        let fs, bad = Checks.fs_rules (Yanc.Controller.yfs r.ctl) name in
        bad
        @ Checks.table_vs ~what:"flows/" ~switch:name ~expected:fs
            ~actual:(Checks.hw_rules r.net dpid))
      (N.Network.switches r.net)
  in
  hs @ paths @ tables

(* --- the run ---------------------------------------------------------------------- *)

type budget = Seconds of float | Arrivals of int

(* Set-up is the fleet boot (repeated, median) plus one warm-up slice
   that leaves the connection pipeline full, so the timed window opens
   in steady state. The window injects for its whole length; afterwards
   the offered load stays on until every connection injected in the
   window is established, then everything in flight drains before the
   checks run. *)
let run cfg ~seed ~budget ~setups ~tr =
  let boot_s, r = Util.set_up setups (fun () -> setup cfg ~seed ~tr) in
  let tw = Util.now () in
  while r.injected < cfg.warm do round r ~inject_now:true done;
  let setup_s = boot_s +. (Util.now () -. tw) in
  let first = r.injected in
  Trace.reset tr;
  let k0 = counters r and w0 = Util.gc_words () in
  Util.kernel_mark ();
  let t0 = Util.now () in
  let stop =
    match budget with
    | Seconds s -> fun () -> Util.now () -. t0 >= s
    | Arrivals n -> fun () -> r.injected - first >= n
  in
  while not (stop ()) do round r ~inject_now:true done;
  let t1 = Util.now () in
  let k1 = counters r and w1 = Util.gc_words () in
  Trace.stop tr;
  Util.kernel_mark ();
  let window = List.filteri (fun i _ -> i < r.injected - first) r.conns in
  settle_conns r ~inject_now:true window;
  settle_conns r ~inject_now:false r.conns;
  let ok = List.filter (fun c -> not (Float.is_nan c.t_done)) window in
  let in_window c = c.t_done >= t0 && c.t_done <= t1 in
  let lat = Util.sorted (List.map (fun c -> (c.t_done -. c.t_in) *. 1000.) ok) in
  let errors = check r in
  { Layers.setup_s;
    wall_s = t1 -. t0;
    ops = List.length window;
    failed = List.length window - List.length ok;
    completed = List.length (List.filter in_window r.conns);
    lat_ms = lat;
    errors;
    before = k0;
    after = k1;
    words = (fst w1 -. fst w0, snd w1 -. snd w0);
    extra = [] }
