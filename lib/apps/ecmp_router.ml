module Y = Yancfs
module P = Packet
module OF = Openflow

let app_name = "ecmpd"

type delivery = Ring | Eventdir

type location = { switch : string; port : int }

(* A host as last recorded under hosts/: the entry it is filed under,
   where it attaches, and its address (arpd's proxy answers from it). *)
type host = { name : string; loc : location; ip : P.Ipv4_addr.t option }

(* One next-hop option: out port here, peer switch, peer's in port. *)
type hop = { out_port : int; peer : string; peer_in : int }

type t = {
  yfs : Y.Yanc_fs.t;
  cred : Vfs.Cred.t;
  delivery : delivery;
  tag : string;   (* flow-name namespace: routers on different cluster
                     nodes install into shared path switches, so names
                     must not collide across instances *)
  idle_timeout : int;
  priority : int;
  batch : int;
  hosts : (P.Mac.t, host) Hashtbl.t;
  subscribed : (string, unit) Hashtbl.t;       (* Eventdir mode *)
  mutable ring : Y.Pktin.consumer option;      (* Ring mode, lazy *)
  (* Topology caches, built lazily from the peer symlinks and rebuilt
     once when a route comes up empty or crosses a link that is gone. *)
  mutable adj : (string, hop) Hashtbl.t option;
  nexthops : (string, (string, hop array) Hashtbl.t) Hashtbl.t;
  salts : (string, int) Hashtbl.t;
  mutable hosts_loaded : bool;
  mutable paths : int;
  mutable flow_seq : int;
  c_events : Telemetry.Registry.counter;
  c_installs : Telemetry.Registry.counter;
  c_unknown : Telemetry.Registry.counter;
  c_no_route : Telemetry.Registry.counter;
  c_transit : Telemetry.Registry.counter;
}

let create ?(cred = Vfs.Cred.root) ?(delivery = Ring) ?(tag = "")
    ?(idle_timeout = 30) ?(priority = 300) ?(batch = 512) yfs =
  let reg = Telemetry.registry (Y.Yanc_fs.telemetry yfs) in
  { yfs; cred; delivery; tag; idle_timeout; priority; batch;
    hosts = Hashtbl.create 256; subscribed = Hashtbl.create 16; ring = None;
    adj = None; nexthops = Hashtbl.create 64; salts = Hashtbl.create 64;
    hosts_loaded = false; paths = 0; flow_seq = 0;
    c_events = Telemetry.Registry.counter reg "app.ecmpd.events";
    c_installs = Telemetry.Registry.counter reg "app.ecmpd.installs";
    c_unknown = Telemetry.Registry.counter reg "app.ecmpd.unknown_dst";
    c_no_route = Telemetry.Registry.counter reg "app.ecmpd.no_route";
    c_transit = Telemetry.Registry.counter reg "app.ecmpd.transit_miss" }

let fs t = Y.Yanc_fs.fs t.yfs

let root t = Y.Yanc_fs.root t.yfs

(* --- topology ---------------------------------------------------------------- *)

let adjacency t =
  match t.adj with
  | Some adj -> adj
  | None ->
    let adj = Hashtbl.create 64 in
    List.iter
      (fun switch ->
        List.iter
          (fun port ->
            match Y.Yanc_fs.peer_of t.yfs ~cred:t.cred ~switch ~port with
            | Some (peer, peer_in) ->
              Hashtbl.add adj switch { out_port = port; peer; peer_in }
            | None -> ())
          (Y.Yanc_fs.port_numbers t.yfs ~cred:t.cred switch))
      (Y.Yanc_fs.switch_names t.yfs);
    t.adj <- Some adj;
    adj

let refresh_topology t =
  t.adj <- None;
  Hashtbl.reset t.nexthops

(* All equal-cost next hops toward [dst_sw], for every switch: one
   reverse BFS from the destination, then each switch keeps the ports
   whose peer is strictly one step closer. Cached per destination
   switch — a fat-tree storm reuses it for every flow to that edge. *)
let nexthop_table t ~dst_sw =
  match Hashtbl.find_opt t.nexthops dst_sw with
  | Some table -> table
  | None ->
    let adj = adjacency t in
    let dist = Hashtbl.create 64 in
    Hashtbl.replace dist dst_sw 0;
    let q = Queue.create () in
    Queue.push dst_sw q;
    while not (Queue.is_empty q) do
      let sw = Queue.pop q in
      let d = Hashtbl.find dist sw in
      List.iter
        (fun h ->
          if not (Hashtbl.mem dist h.peer) then begin
            Hashtbl.replace dist h.peer (d + 1);
            Queue.push h.peer q
          end)
        (Hashtbl.find_all adj sw)
    done;
    let table = Hashtbl.create 64 in
    Hashtbl.iter
      (fun sw d ->
        if d > 0 then begin
          let hops =
            List.filter
              (fun h ->
                match Hashtbl.find_opt dist h.peer with
                | Some pd -> pd = d - 1
                | None -> false)
              (Hashtbl.find_all adj sw)
            (* [find_all] order is insertion-dependent; sort so the hash
               always indexes the same candidate list. *)
            |> List.sort (fun a b -> compare a.out_port b.out_port)
            |> Array.of_list
          in
          Hashtbl.replace table sw hops
        end)
      dist;
    Hashtbl.replace t.nexthops dst_sw table;
    table

let salt t sw =
  match Hashtbl.find_opt t.salts sw with
  | Some s -> s
  | None ->
    let s = Hashtbl.hash sw in
    Hashtbl.replace t.salts sw s;
    s

(* Packed.hash is a plain polynomial fold, so fields packed at high bit
   offsets (the transport ports sit at bit 32 of their words) only move
   the hash by multiples of 2^32 — invisible mod a small power-of-two
   hop count. Avalanche the bits before taking the modulus so every
   tuple field influences the low bits. *)
let avalanche h =
  let h = h lxor (h lsr 33) in
  let h = h * 0x2545F4914F6CDD1D in
  let h = h lxor (h lsr 29) in
  h land max_int

(* The ECMP walk: at each switch, index the equal-cost candidates by the
   packed 12-tuple hash mixed with a per-switch salt (without the salt
   every stage of a multi-tier Clos would make the same choice and the
   fabric polarizes onto one path). The hash covers the full tuple, so
   the two directions of a TCP flow may take different paths, but each
   direction is stable. Distance to the destination strictly decreases,
   so the walk terminates. *)
let walk t ~hash ~from_sw ~dst_sw =
  let table = nexthop_table t ~dst_sw in
  let rec go sw acc =
    if sw = dst_sw then Some (List.rev acc)
    else
      match Hashtbl.find_opt table sw with
      | None | Some [||] -> None
      | Some hops ->
        let i = avalanche (hash lxor salt t sw) mod Array.length hops in
        let h = hops.(i) in
        go h.peer (h :: acc)
  in
  go from_sw []

(* Every hop's peer link must still be on file: the topology daemon
   unlinks a dead link's peer symlinks, which the cached tables cannot
   see. *)
let links_up t ~from_sw hops =
  let rec go sw = function
    | [] -> true
    | h :: rest ->
      Y.Yanc_fs.peer_of t.yfs ~cred:t.cred ~switch:sw ~port:h.out_port
      = Some (h.peer, h.peer_in)
      && go h.peer rest
  in
  go from_sw hops

(* A walk that finds no path (a link appeared) or crosses a link that
   is gone rebuilds the tables once and retries. *)
let route t ~hash ~from_sw ~dst_sw =
  let attempt () =
    match walk t ~hash ~from_sw ~dst_sw with
    | Some hops when links_up t ~from_sw hops -> Some hops
    | Some _ | None -> None
  in
  match attempt () with
  | Some hops -> Some hops
  | None ->
    refresh_topology t;
    attempt ()

(* --- hosts ------------------------------------------------------------------- *)

(* Bootstrap from /net/hosts — the inventory a provisioning system (or
   the scale bench) has already written — then keep learning from
   traffic like any L2 daemon. *)
let load_hosts t =
  t.hosts_loaded <- true;
  List.iter
    (fun name ->
      match Y.Yanc_fs.read_host t.yfs ~cred:t.cred name with
      | Ok (mac, ip, Some (switch, port)) ->
        Hashtbl.replace t.hosts mac { name; loc = { switch; port }; ip }
      | Ok _ | Error _ -> ())
    (Y.Yanc_fs.host_names t.yfs ~cred:t.cred)

let source_ip frame =
  match frame.P.Eth.payload with
  | P.Eth.Arp arp -> Some arp.P.Arp.spa
  | P.Eth.Ipv4 ip when not (P.Ipv4_addr.equal ip.P.Ipv4.src P.Ipv4_addr.any) ->
    Some ip.P.Ipv4.src
  | _ -> None

(* Record where a source address attaches and which IP it speaks from.
   The FS is written only when either changes, so a host that keeps
   talking from the same port costs no mutation (and no fsnotify
   dispatch). Only edge ports host endpoints. *)
let learn t ~switch ~in_port frame =
  let mac = frame.P.Eth.src in
  if not (P.Mac.is_multicast mac) then begin
    let loc = { switch; port = in_port } in
    let known = Hashtbl.find_opt t.hosts mac in
    let old_ip = Option.bind known (fun h -> h.ip) in
    let ip = match source_ip frame with Some _ as ip -> ip | None -> old_ip in
    let readdressed = not (Option.equal P.Ipv4_addr.equal ip old_ip) in
    let moved = match known with Some h -> h.loc <> loc | None -> true in
    if (moved || readdressed)
       && Y.Yanc_fs.peer_of t.yfs ~cred:t.cred ~switch ~port:in_port = None
    then begin
      let name =
        match known with
        | Some h -> h.name
        | None -> Printf.sprintf "host-%012x" (P.Mac.to_int mac)
      in
      Hashtbl.replace t.hosts mac { name; loc; ip };
      ignore
        (Y.Yanc_fs.upsert_host t.yfs ~cred:t.cred ~name ~mac
           ~ip:(if readdressed then ip else None)
           ?attached_to:(if moved then Some (switch, in_port) else None) ())
    end
  end

(* --- forwarding -------------------------------------------------------------- *)

(* Release a packet out of [ports]: from the switch's buffer when it
   holds one, else from the bytes the packet-in carried. *)
let packet_out t ~switch ?in_port ~buffer_id ~data ports =
  ignore
    (Y.Outdir.submit (fs t) ~cred:t.cred ~root:(root t) ~switch ?buffer_id
       ?in_port
       ~actions:(List.map (fun p -> OF.Action.Output (OF.Action.Physical p)) ports)
       ~data:(if buffer_id = None then data else "")
       ())

(* Up ports without a peer link, read from the FS on each flood: floods
   are rare (ARP, DHCP) and must see links the topology daemon has only
   just found. *)
let edge_ports t switch =
  List.filter
    (fun port ->
      Y.Yanc_fs.peer_of t.yfs ~cred:t.cred ~switch ~port = None
      &&
      match Y.Yanc_fs.read_port t.yfs ~cred:t.cred ~switch port with
      | Ok info -> not (info.admin_down || info.link_down)
      | Error _ -> false)
    (Y.Yanc_fs.port_numbers t.yfs ~cred:t.cred switch)

(* Broadcast and multicast go to every up edge port in the network
   except the ingress. No copy crosses an inter-switch link, so this is
   loop-free on any topology. *)
let flood t ~ingress ~buffer_id ~data =
  List.iter
    (fun switch ->
      match
        List.filter
          (fun port -> port <> ingress.port || switch <> ingress.switch)
          (edge_ports t switch)
      with
      | [] -> ()
      | ports ->
        let buffer_id = if switch = ingress.switch then buffer_id else None in
        packet_out t ~switch ~buffer_id ~data ports)
    (Y.Yanc_fs.switch_names t.yfs)

let install t ~headers ~ingress ~dst_loc ~buffer_id ~data ~hops =
  t.paths <- t.paths + 1;
  Telemetry.Registry.incr t.c_installs;
  let exact = OF.Of_match.exact_of_headers headers in
  (* (switch, in_port, out_port) per hop, final delivery last. *)
  let flows =
    let rec build sw in_port = function
      | [] -> [ sw, in_port, dst_loc.port ]
      | h :: rest -> (sw, in_port, h.out_port) :: build h.peer h.peer_in rest
    in
    build ingress.switch ingress.port hops
  in
  (* Last hop first, ingress last, so no packet races an absent rule. *)
  List.iter
    (fun (sw, in_port, out_port) ->
      t.flow_seq <- t.flow_seq + 1;
      let is_ingress_hop = sw = ingress.switch && in_port = ingress.port in
      let flow =
        { Y.Flowdir.default with
          Y.Flowdir.of_match = { exact with OF.Of_match.in_port = Some in_port };
          actions = [ OF.Action.Output (OF.Action.Physical out_port) ];
          priority = t.priority;
          idle_timeout = t.idle_timeout;
          buffer_id = (if is_ingress_hop then buffer_id else None) }
      in
      let name = Printf.sprintf "ecmp%s-%d" t.tag t.flow_seq in
      ignore (Y.Yanc_fs.create_flow t.yfs ~cred:t.cred ~switch:sw ~name flow);
      (* Unbuffered ingress: push the original packet along too. *)
      if is_ingress_hop && buffer_id = None then
        packet_out t ~switch:sw ~in_port ~buffer_id ~data [ out_port ])
    (List.rev flows)

(* A miss on an inter-switch port is a packet that left its ingress
   before the rest of its path was programmed: the rules are still in
   the commit queue or, on a sharded cluster, in the DFS op log on
   their way to the node that owns this switch. Installing here would
   set the whole path up a second time from mid-fabric (once per node
   the path crosses); dropping would lose a connection's first SYN. So
   this one packet is released straight out of the destination's host
   port at its edge switch, whose rules may be pending too, and
   nothing is installed. *)
let forward_transit t ~switch ~buffer_id ~data frame =
  Telemetry.Registry.incr t.c_transit;
  match Hashtbl.find_opt t.hosts frame.P.Eth.dst with
  | None -> ()
  | Some dst ->
    packet_out t ~switch:dst.loc.switch
      ~buffer_id:(if dst.loc.switch = switch then buffer_id else None)
      ~data [ dst.loc.port ]

let process t ~switch ~in_port ~buffer_id ~data frame =
  match frame.P.Eth.payload with
  | P.Eth.Lldp _ -> ()
  | _ ->
    Telemetry.Registry.incr t.c_events;
    if not t.hosts_loaded then load_hosts t;
    if List.exists
         (fun (h : hop) -> h.out_port = in_port)
         (Hashtbl.find_all (adjacency t) switch)
    then forward_transit t ~switch ~buffer_id ~data frame
    else begin
      learn t ~switch ~in_port frame;
      let ingress = { switch; port = in_port } in
      let dst = frame.P.Eth.dst in
      if P.Mac.is_multicast dst then flood t ~ingress ~buffer_id ~data
      else
        match Hashtbl.find_opt t.hosts dst with
        | None ->
          (* Unknown unicast is dropped, not flooded: flooding a
             datacenter-scale storm would melt the control plane. *)
          Telemetry.Registry.incr t.c_unknown
        | Some { loc = dst_loc; _ } ->
          let headers = P.Headers.of_eth ~in_port frame in
          if dst_loc.switch = switch then
            install t ~headers ~ingress ~dst_loc ~buffer_id ~data ~hops:[]
          else begin
            let hash = OF.Of_match.Packed.(hash (of_headers headers)) in
            match route t ~hash ~from_sw:switch ~dst_sw:dst_loc.switch with
            | Some hops ->
              install t ~headers ~ingress ~dst_loc ~buffer_id ~data ~hops
            | None -> Telemetry.Registry.incr t.c_no_route
          end
    end

(* --- delivery ---------------------------------------------------------------- *)

let ring_consumer t =
  match t.ring with
  | Some c -> c
  | None ->
    let c = Y.Pktin.subscribe (Y.Yanc_fs.pktin t.yfs) ~name:app_name in
    t.ring <- Some c;
    c

let run_ring t =
  let pk = Y.Yanc_fs.pktin t.yfs in
  let c = ring_consumer t in
  let tracer = Telemetry.tracer (Y.Yanc_fs.telemetry t.yfs) in
  ignore
    (Y.Pktin.drain pk c ~max:t.batch (fun r ->
         ignore (Telemetry.Tracer.resume tracer (Y.Pktin.trace_key r.Y.Pktin.seq));
         Telemetry.Tracer.span tracer ~stage:"app.ecmpd" (fun () ->
             match P.Eth.of_wire r.Y.Pktin.data with
             | None -> ()
             | Some frame ->
               process t ~switch:r.Y.Pktin.switch ~in_port:r.Y.Pktin.in_port
                 ~buffer_id:r.Y.Pktin.buffer_id ~data:r.Y.Pktin.data frame)))

let handle_eventdir t ~switch (ev : Y.Eventdir.event) =
  let tracer = Telemetry.tracer (Y.Yanc_fs.telemetry t.yfs) in
  ignore (Telemetry.Tracer.resume tracer (Y.Layout.trace_key_event ev.seq));
  Telemetry.Tracer.span tracer ~stage:"app.ecmpd" (fun () ->
      match Y.Eventdir.frame_of ev with
      | None -> ()
      | Some frame ->
        process t ~switch ~in_port:ev.in_port ~buffer_id:ev.buffer_id
          ~data:ev.data frame)

let run_eventdir t =
  List.iter
    (fun switch ->
      if not (Hashtbl.mem t.subscribed switch) then begin
        match
          Y.Eventdir.subscribe (fs t) ~cred:t.cred ~root:(root t) ~switch
            ~app:app_name
        with
        | Ok () -> Hashtbl.replace t.subscribed switch ()
        | Error _ -> ()
      end;
      List.iter (handle_eventdir t ~switch)
        (Y.Eventdir.consume (fs t) ~cred:t.cred ~root:(root t) ~switch
           ~app:app_name))
    (Y.Yanc_fs.switch_names t.yfs)

let run t ~now:_ =
  match t.delivery with Ring -> run_ring t | Eventdir -> run_eventdir t

let app t =
  match t.delivery with
  | Ring ->
    (* Parked until the ring holds events — except before the first run,
       which must subscribe. *)
    let pending () =
      match t.ring with
      | None -> true
      | Some c -> Y.Pktin.pending (Y.Yanc_fs.pktin t.yfs) c > 0
    in
    App_intf.daemon ~pending ~name:app_name (fun ~now -> run t ~now)
  | Eventdir -> App_intf.daemon ~name:app_name (fun ~now -> run t ~now)

let paths_installed t = t.paths

let hosts_tracked t = Hashtbl.length t.hosts
