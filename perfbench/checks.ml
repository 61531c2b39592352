(* Correctness checks computed apart from the program: from the
   harness's own topology walk, its own model of what it wrote, and its
   own clause list. Each returns the list of violations found (empty =
   pass), so a run can print them and the self-tests can assert that a
   corrupted input produces some. *)

module N = Netsim
module OF = Openflow
module P = Packet

type rule = { m : OF.Of_match.t; prio : int; acts : OF.Action.t list }

let hw_rules net dpid =
  match N.Network.switch net dpid with
  | None -> []
  | Some sw -> (
    match N.Sim_switch.table sw 0 with
    | None -> []
    | Some tbl ->
      List.map
        (fun (e : N.Flow_table.entry) ->
          { m = e.of_match; prio = e.priority; acts = e.actions })
        (N.Flow_table.live_entries tbl ~now:(N.Network.now net)))

(* Every flow directory under one switch, parsed. *)
let fs_rules yfs switch =
  let cred = Vfs.Cred.root in
  List.fold_left
    (fun (ok, bad) name ->
      match Yancfs.Yanc_fs.read_flow yfs ~cred ~switch name with
      | Ok (f : Yancfs.Flowdir.t) ->
        ({ m = f.of_match; prio = f.priority; acts = f.actions } :: ok, bad)
      | Error e -> (ok, (name ^ ": " ^ e) :: bad))
    ([], [])
    (Yancfs.Yanc_fs.flow_names yfs ~cred switch)

(* Two rule sets are equal as sets: an OpenFlow add with an identical
   (match, priority) replaces, so duplicate flow files collapse to one
   hardware entry. *)
let same_rules a b = List.sort_uniq compare a = List.sort_uniq compare b

let table_vs ~what ~switch ~expected ~actual =
  if same_rules expected actual then []
  else
    [ Printf.sprintf "%s: switch %s holds %d rules, %s has %d" what switch
        (List.length (List.sort_uniq compare actual))
        what
        (List.length (List.sort_uniq compare expected)) ]

(* --- topology, from the generator's links ------------------------------------ *)

type topo = {
  adj : (int64, int64 list) Hashtbl.t;
  attach : (string, int64 * int) Hashtbl.t;  (* host -> edge switch, port *)
}

let topo_of net =
  let adj = Hashtbl.create 64 and attach = Hashtbl.create 64 in
  let link a b =
    Hashtbl.replace adj a
      (b :: Option.value ~default:[] (Hashtbl.find_opt adj a))
  in
  List.iter
    (function
      | N.Network.Sw (a, _), N.Network.Sw (b, _) -> link a b; link b a
      | N.Network.Sw (d, p), N.Network.Hst h
      | N.Network.Hst h, N.Network.Sw (d, p) -> Hashtbl.replace attach h (d, p)
      | N.Network.Hst _, N.Network.Hst _ -> ())
    (N.Network.link_endpoints net);
  { adj; attach }

let bfs topo src =
  let dist = Hashtbl.create 64 in
  Hashtbl.replace dist src 0;
  let q = Queue.create () in
  Queue.push src q;
  while not (Queue.is_empty q) do
    let s = Queue.pop q in
    let d = Hashtbl.find dist s in
    List.iter
      (fun n ->
        if not (Hashtbl.mem dist n) then begin
          Hashtbl.replace dist n (d + 1);
          Queue.push n q
        end)
      (Option.value ~default:[] (Hashtbl.find_opt topo.adj s))
  done;
  dist

(* The switches holding a connection's forward rule must be exactly one
   shortest path from the source's edge switch to the destination's:
   d+1 switches whose distances from the source are 0..d, each adjacent
   to the next. *)
let shortest_path topo ~dist_from ~src ~dst switches =
  let from_src = dist_from src in
  match Hashtbl.find_opt from_src dst with
  | None -> [ "no path in the topology" ]
  | Some d ->
    let ranked =
      List.map
        (fun s -> (Option.value ~default:(-1) (Hashtbl.find_opt from_src s), s))
        (List.sort_uniq compare switches)
      |> List.sort compare
    in
    let rec walk i = function
      | [] -> i = d + 1
      | (r, s) :: rest ->
        r = i
        && (rest = []
           || List.mem (snd (List.hd rest))
                (Option.value ~default:[] (Hashtbl.find_opt topo.adj s)))
        && walk (i + 1) rest
    in
    let ends_ok =
      match (ranked, List.rev ranked) with
      | (_, first) :: _, (_, last) :: _ -> first = src && last = dst
      | _ -> false
    in
    if ends_ok && walk 0 ranked then []
    else
      [ Printf.sprintf "forward rule on %d switches, shortest path has %d"
          (List.length ranked) (d + 1) ]

(* --- connections --------------------------------------------------------------- *)

type conn = { src : int; dst : int; sport : int; dport : int }

let host_name i = Printf.sprintf "h%d" i

(* Both ends must record every handshake: the initiator as
   (sport, dport), the responder as (dport, sport). Counted as
   multisets, since a seed may repeat a 4-tuple. *)
let handshakes ~established conns =
  let tbl = Hashtbl.create 256 in
  let host h =
    match Hashtbl.find_opt tbl h with
    | Some c -> c
    | None ->
      let c = Hashtbl.create 16 in
      List.iter
        (fun k ->
          Hashtbl.replace c k (1 + Option.value ~default:0 (Hashtbl.find_opt c k)))
        (established h);
      Hashtbl.replace tbl h c;
      c
  in
  let take h k =
    let c = host h in
    match Hashtbl.find_opt c k with
    | Some n when n > 0 -> Hashtbl.replace c k (n - 1); true
    | _ -> false
  in
  List.concat_map
    (fun c ->
      let a = take c.src (c.sport, c.dport) in
      let b = take c.dst (c.dport, c.sport) in
      if a && b then []
      else
        [ Printf.sprintf "h%d:%d -> h%d:%d not recorded by %s" c.src c.sport
            c.dst c.dport
            (if a then "responder" else if b then "initiator" else "either end") ])
    conns

(* The exact match of a connection's SYN, minus the ingress port (which
   differs per hop). *)
let forward_key (a : N.Workload.arrival) =
  let h = P.Headers.of_eth ~in_port:0 (N.Workload.first_frame a) in
  { (OF.Of_match.exact_of_headers h) with OF.Of_match.in_port = None }

(* For every connection, the switches holding its exact forward rule
   form a shortest path between its hosts' edge switches. *)
let forward_paths net topo (arrivals : N.Workload.arrival list) =
  let holders = Hashtbl.create 1024 in
  List.iter
    (fun sw ->
      let dpid = N.Sim_switch.dpid sw in
      List.iter
        (fun r ->
          let k = { r.m with OF.Of_match.in_port = None } in
          Hashtbl.add holders k dpid)
        (hw_rules net dpid))
    (N.Network.switches net);
  let dists = Hashtbl.create 64 in
  let dist_from s =
    match Hashtbl.find_opt dists s with
    | Some d -> d
    | None ->
      let d = bfs topo s in
      Hashtbl.replace dists s d;
      d
  in
  List.concat_map
    (fun (a : N.Workload.arrival) ->
      let edge h = fst (Hashtbl.find topo.attach (host_name h)) in
      let switches = Hashtbl.find_all holders (forward_key a) in
      List.map
        (fun e -> Printf.sprintf "h%d:%d -> h%d:%d: %s" a.src a.src_port a.dst
                    a.dst_port e)
        (shortest_path topo ~dist_from ~src:(edge a.src) ~dst:(edge a.dst)
           switches))
    arrivals

(* --- policy probes ------------------------------------------------------------- *)

let probe_headers ~nw_dst =
  { P.Headers.in_port = 1;
    dl_src = P.Mac.of_int 0x0200000000fe;
    dl_dst = P.Mac.of_int 0x0200000000ff;
    dl_vlan = None; dl_vlan_pcp = None; dl_type = 0x0800;
    nw_src = P.Ipv4_addr.of_string "192.168.0.1";
    nw_dst = Some nw_dst; nw_proto = Some 6; nw_tos = Some 0;
    tp_src = Some 40000; tp_dst = Some 80 }

(* What one switch's table does with a probe: [Some ports] for the
   output ports of the matching rule ([Some []] = dropped), [None] on a
   table miss. *)
let probe net dpid ~nw_dst =
  match N.Network.switch net dpid with
  | None -> None
  | Some sw -> (
    match N.Sim_switch.table sw 0 with
    | None -> None
    | Some tbl -> (
      match
        N.Flow_table.lookup tbl ~now:(N.Network.now net) (probe_headers ~nw_dst)
      with
      | None -> None
      | Some e ->
        Some
          (List.filter_map
             (function
               | OF.Action.Output (OF.Action.Physical p) -> Some p | _ -> None)
             e.N.Flow_table.actions)))

let clause_probe net dpid ~nw_dst ~port =
  match probe net dpid ~nw_dst with
  | Some [ p ] when p = port -> []
  | got ->
    [ Printf.sprintf "switch %Ld: probe to %s yields %s, clause says port %d"
        dpid (P.Ipv4_addr.to_string nw_dst)
        (match got with
        | None -> "a table miss"
        | Some ps -> "ports [" ^ String.concat ";" (List.map string_of_int ps) ^ "]")
        port ]

let drop_probe net dpid ~nw_dst =
  match probe net dpid ~nw_dst with
  | Some [] -> []
  | _ ->
    [ Printf.sprintf "switch %Ld: unmatched probe to %s is not dropped" dpid
        (P.Ipv4_addr.to_string nw_dst) ]
