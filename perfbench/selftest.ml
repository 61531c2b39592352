(* Tests of the benchmark itself, at sizes that finish in seconds:

   - each correctness check passes on a clean run and fails once the
     program's output is corrupted (a missing rule, a wrong output port,
     a path one hop too long, an unanswered SYN, an undropped packet);
   - the traced run does exactly the untraced run's work (connections,
     ops, installs, VFS crossings, fsnotify events, DFS ops coalesced),
     and its layer self times cover the traced wall time to within
     10 %.

   Run with [main.exe selftest]; exit status 1 on any failure. *)

module N = Netsim
module OF = Openflow

let failures = ref 0

let expect name ok =
  Printf.printf "%s %s\n%!" (if ok then "ok  " else "FAIL") name;
  if not ok then incr failures

let quiet = Trace.create ~on:false

let table net dpid =
  match N.Network.switch net dpid with
  | Some sw -> (sw, Option.get (N.Sim_switch.table sw 0))
  | None -> Util.fail "no switch %Ld" dpid

let entries net dpid =
  N.Flow_table.entries (snd (table net dpid))

let readd net dpid (e : N.Flow_table.entry) =
  ignore
    (N.Sim_switch.flow_add (fst (table net dpid)) ~now:(N.Network.now net)
       ~of_match:e.of_match ~priority:e.priority ~actions:e.actions ())

let remove net dpid (e : N.Flow_table.entry) =
  ignore
    (N.Sim_switch.flow_delete (fst (table net dpid)) ~strict:true
       ~priority:e.priority ~of_match:e.of_match ())

let set_port net dpid (e : N.Flow_table.entry) actions =
  ignore
    (N.Sim_switch.flow_modify (fst (table net dpid)) ~now:(N.Network.now net)
       ~of_match:e.of_match ~actions ())

let out p = [ OF.Action.Output (OF.Action.Physical p) ]

(* Run [corrupt], expect [check] to report something, then [restore]
   and expect a clean bill again. *)
let corrupted name ~check ~corrupt ~restore =
  corrupt ();
  expect (name ^ " is caught") (check () <> []);
  restore ();
  expect (name ^ ": restored state passes again") (check () = [])

(* --- storm --------------------------------------------------------------- *)

let storm_checks () =
  let cfg = { Storm.storm with Storm.k = 4; warm = 10 } in
  let r = Storm.setup cfg ~seed:7 ~tr:quiet in
  Storm.drive r ~stop:(fun () -> r.Storm.injected >= 50);
  let net = r.Storm.net in
  let check () = Storm.check r in
  expect "storm: clean run passes every check" (check () = []);
  let a = (List.hd r.Storm.conns).Storm.a in
  let key = Checks.forward_key a in
  let holding =
    List.concat_map
      (fun sw ->
        let dpid = N.Sim_switch.dpid sw in
        List.filter_map
          (fun (e : N.Flow_table.entry) ->
            if { e.of_match with OF.Of_match.in_port = None } = key then Some (dpid, e)
            else None)
          (entries net dpid))
      (N.Network.switches net)
  in
  let dpid, e = List.hd holding in
  corrupted "storm: a missing forward rule" ~check
    ~corrupt:(fun () -> remove net dpid e)
    ~restore:(fun () -> readd net dpid e);
  corrupted "storm: a wrong output port" ~check
    ~corrupt:(fun () -> set_port net dpid e (out 99))
    ~restore:(fun () -> set_port net dpid e e.actions);
  let on_path = List.map fst holding in
  let extra =
    List.find
      (fun sw -> not (List.mem (N.Sim_switch.dpid sw) on_path))
      (N.Network.switches net)
    |> N.Sim_switch.dpid
  in
  let forward_only () =
    Checks.forward_paths net r.Storm.topo [ a ]
  in
  corrupted "storm: a path one hop too long" ~check:forward_only
    ~corrupt:(fun () -> readd net extra e)
    ~restore:(fun () -> remove net extra e);
  (* A SYN to a port its destination does not listen on is never
     answered. *)
  let silent = { a with N.Workload.dst_port = 9; src_port = 40001 } in
  N.Network.send_from_host net (Checks.host_name silent.src)
    [ N.Workload.first_frame silent ];
  for _ = 1 to 20 do Storm.round r ~inject_now:false done;
  let conn (a : N.Workload.arrival) =
    { Checks.src = a.src; dst = a.dst; sport = a.src_port; dport = a.dst_port }
  in
  expect "storm: an unanswered SYN is caught"
    (Checks.handshakes [ conn silent ] ~established:(fun h ->
         N.Sim_host.tcp_established r.Storm.hosts.(h))
     <> [])

(* --- cluster ------------------------------------------------------------- *)

let cluster_checks cfg =
  let r = Churn.setup cfg ~seed:7 ~tr:quiet in
  for _ = 1 to 3 do ignore (Churn.batch r) done;
  let check () = Churn.check r in
  expect "cluster: clean run passes every check" (check () = []);
  let _, dpid = r.Churn.switches.(0) in
  let e = List.hd (entries r.Churn.net dpid) in
  corrupted "cluster: a missing rule" ~check
    ~corrupt:(fun () -> remove r.Churn.net dpid e)
    ~restore:(fun () -> readd r.Churn.net dpid e);
  corrupted "cluster: a wrong output port" ~check
    ~corrupt:(fun () -> set_port r.Churn.net dpid e (out 99))
    ~restore:(fun () -> set_port r.Churn.net dpid e e.actions)

(* --- policy -------------------------------------------------------------- *)

let policy_checks () =
  let cfg = { Edits.policy with Edits.clauses = 20; warm = 1 } in
  let r = Edits.setup cfg ~seed:7 ~tr:quiet in
  for _ = 1 to 3 do ignore (Edits.edit r) done;
  let check () = Edits.check r in
  expect "policy: clean run passes every check" (check () = []);
  let net = r.Edits.net and dpid = List.hd r.Edits.dpids in
  let probe_entry ip =
    Option.get
      (N.Flow_table.lookup (snd (table net dpid)) ~now:(N.Network.now net)
         (Checks.probe_headers ~nw_dst:ip))
  in
  let e = probe_entry r.Edits.dst.(0) in
  corrupted "policy: a wrong output port" ~check
    ~corrupt:(fun () -> set_port net dpid e (out (1 + (r.Edits.port.(0) mod Edits.ports))))
    ~restore:(fun () -> set_port net dpid e e.actions);
  corrupted "policy: a missing rule" ~check
    ~corrupt:(fun () -> remove net dpid e)
    ~restore:(fun () -> readd net dpid e);
  let catch = probe_entry r.Edits.unmatched in
  let leak =
    { catch with
      N.Flow_table.of_match =
        { OF.Of_match.any with
          OF.Of_match.dl_type = Some 0x0800;
          nw_dst = Some (Packet.Ipv4_addr.Prefix.make r.Edits.unmatched 32) };
      priority = 60_000; actions = out 1 }
  in
  corrupted "policy: an unmatched packet that is forwarded" ~check
    ~corrupt:(fun () -> readd net dpid leak)
    ~restore:(fun () -> remove net dpid leak)

(* --- fidelity ------------------------------------------------------------ *)

let fidelity name run =
  let u = run quiet in
  let tr = Trace.create ~on:true in
  let t = run tr in
  let work (x : Layers.result) f = f x.after - f x.before in
  let same f = work u f = work t f in
  expect (name ^ ": untraced and traced runs pass their checks")
    (u.errors = [] && t.errors = []);
  expect
    (Printf.sprintf
       "%s: traced run does the same work (%d ops, %d installs, %d crossings, %d events, %d ops coalesced)"
       name u.ops (work u (fun c -> c.adds)) (work u (fun c -> c.crossings))
       (work u (fun c -> c.events)) (work u (fun c -> c.coalesced)))
    (u.ops = t.ops && u.completed = t.completed
     && same (fun c -> c.adds)
     && same (fun c -> c.deletes)
     && same (fun c -> c.crossings)
     && same (fun c -> c.events)
     && same (fun c -> c.coalesced));
  let share = Layers.self_share t tr in
  expect (Printf.sprintf "%s: layer self times cover %.1f%% of traced wall" name
            (100. *. share))
    (Float.abs (share -. 1.) <= 0.1)

let small_cluster = { Churn.cluster with Churn.k = 4; nodes = 2; warm = 1 }

let run () =
  storm_checks ();
  cluster_checks small_cluster;
  policy_checks ();
  let small = { Storm.storm with Storm.k = 4; warm = 10 } in
  fidelity "storm" (fun tr ->
      Storm.run small ~seed:11 ~budget:(Storm.Arrivals 60) ~setups:1 ~tr);
  (* Enough batches that the op log replays to the backup replicas. *)
  fidelity "cluster" (fun tr ->
      Churn.run small_cluster ~seed:11 ~budget:(Churn.Batches 16) ~setups:1 ~tr);
  fidelity "policy" (fun tr ->
      Edits.run { Edits.policy with Edits.clauses = 20; warm = 1 } ~seed:11
        ~budget:(Edits.Edits 4) ~setups:1 ~tr);
  Printf.printf "%s\n" (if !failures = 0 then "selftest: all passed"
                        else Printf.sprintf "selftest: %d FAILED" !failures);
  if !failures = 0 then 0 else 1
