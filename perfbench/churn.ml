(* The [cluster] workload: proactive flow programming through the file
   system, no apps, under n sharded controllers over the DFS. Each
   batch spreads seeded creates, modifies and deletes over the whole
   fleet, each written into the FS of the switch's owner, reads a
   sample back, and is driven to hardware before the next batch
   starts. The harness keeps its own model of every switch's flows and
   checks tables and read-backs against it. *)

module N = Netsim
module Y = Yancfs
module OF = Openflow

type config = {
  k : int;
  nodes : int;         (* sharded controllers *)
  prefill : int;       (* flows per switch written during set-up *)
  batch : int;         (* FS flow ops per batch *)
  reads : int;         (* flow read-backs per batch *)
  listings : int;      (* flows/ directory listings per batch *)
  tick : float;
  warm : int;          (* warm-up batches inside set-up *)
  limit : float;       (* simulated seconds a batch may take *)
}

let cluster = { k = 8; nodes = 4; prefill = 4; batch = 64; reads = 16; listings = 4;
                tick = 0.005; warm = 4; limit = 2.0 }

let cred = Vfs.Cred.root

type rig = {
  cfg : config;
  cluster : Yanc.Cluster.t;
  net : N.Network.t;
  switches : (string * int64) array;
  owner : (string, Y.Yanc_fs.t) Hashtbl.t;  (* switch -> its owner's FS *)
  model : (string, (string, Y.Flowdir.t) Hashtbl.t) Hashtbl.t;
  rng : N.Prng.t;
  mutable next_id : int;
  mutable fs_errors : int;
  mutable errors : string list;    (* correctness violations *)
  tr : Trace.t;
}

let yfs r sw = Hashtbl.find r.owner sw

let model r sw =
  match Hashtbl.find_opt r.model sw with
  | Some t -> t
  | None ->
    let t = Hashtbl.create 16 in
    Hashtbl.replace r.model sw t;
    t

let port r = OF.Action.[ Output (Physical (1 + N.Prng.below r.rng r.cfg.k)) ]

let fresh_flow r =
  let id = r.next_id in
  r.next_id <- id + 1;
  let ip =
    Packet.Ipv4_addr.of_int32
      (Int32.of_int ((172 lsl 24) lor (16 lsl 16) lor (id land 0xfffff)))
  in
  ( Printf.sprintf "c%d" id,
    { Y.Flowdir.default with
      Y.Flowdir.of_match =
        { OF.Of_match.any with
          OF.Of_match.dl_type = Some 0x0800;
          nw_dst = Some (Packet.Ipv4_addr.Prefix.make ip 32) };
      actions = port r;
      priority = 1000 + (id mod 97) } )

let rules_of tbl =
  Hashtbl.fold
    (fun _ (f : Y.Flowdir.t) acc ->
      { Checks.m = f.of_match; prio = f.priority; acts = f.actions } :: acc)
    tbl []

let write r f =
  match Trace.time r.tr "yancfs.write_s" f with
  | Ok v -> Some v
  | Error _ -> r.fs_errors <- r.fs_errors + 1; None

(* Each op returns whether the FS accepted it and, for a write that
   leaves a flow behind, the flow's name (to read back). *)
let create r sw =
  let name, flow = fresh_flow r in
  match write r (fun () -> Y.Yanc_fs.create_flow (yfs r sw) ~cred ~switch:sw ~name flow) with
  | Some () -> Hashtbl.replace (model r sw) name flow; (true, Some name)
  | None -> (false, None)

(* The flow names of a switch's model, in a seed-stable order. *)
let names r sw =
  List.sort compare (Hashtbl.fold (fun n _ acc -> n :: acc) (model r sw) [])

let pick r sw =
  let ns = names r sw in
  List.nth ns (N.Prng.below r.rng (List.length ns))

let modify r sw =
  let name = pick r sw in
  let actions = port r in
  let yfs = yfs r sw in
  let path = Y.Layout.flow ~root:(Y.Yanc_fs.root yfs) ~switch:sw name in
  let upd () =
    Y.Flowdir.update (Y.Yanc_fs.fs yfs) ~cred path (fun f -> { f with actions })
  in
  match write r upd with
  | Some f -> Hashtbl.replace (model r sw) name f; (true, Some name)
  | None -> (false, None)

let delete r sw =
  let name = pick r sw in
  match write r (fun () -> Y.Yanc_fs.delete_flow (yfs r sw) ~cred ~switch:sw name) with
  | Some () -> Hashtbl.remove (model r sw) name; (true, None)
  | None -> (false, None)

(* Run rounds until every switch in [touched] holds exactly its model,
   or the batch's simulated-time limit passes. Returns the wall time at
   which each switch was first seen to hold its model; switches that
   never did are absent. *)
let converge r touched =
  let limit = N.Network.now r.net +. r.cfg.limit in
  let left = ref (List.sort_uniq compare touched) in
  let at = Hashtbl.create 64 in
  let settled () =
    Trace.time r.tr "harness.poll_s" (fun () ->
        let t = Util.now () in
        left :=
          List.filter
            (fun (sw, dpid) ->
              let held =
                Checks.same_rules (rules_of (model r sw)) (Checks.hw_rules r.net dpid)
              in
              if held then Hashtbl.replace at sw t;
              not held)
            !left;
        !left = [])
  in
  while (not (settled ())) && N.Network.now r.net < limit do
    Fleet.round r.tr (Fleet.Sharded r.cluster) r.net r.cfg.tick
  done;
  at

(* One batch: seeded ops spread over the fleet, read-backs, then drive
   to hardware. Returns (ops, failed ops, per-op latencies in ms): an
   op's latency runs from the start of its FS write until its switch's
   table holds the model; an op fails when the FS refuses it or its
   switch never converges. *)
let batch r =
  let n_sw = Array.length r.switches in
  let ops =
    List.init r.cfg.batch (fun _ ->
        let sw, dpid = r.switches.(N.Prng.below r.rng n_sw) in
        let t = Util.now () in
        let result =
          if Hashtbl.length (model r sw) = 0 then create r sw
          else
            match N.Prng.below r.rng 3 with
            | 0 -> create r sw
            | 1 -> modify r sw
            | _ -> delete r sw
        in
        ((sw, dpid), t, result))
  in
  (* Read back a sample of what this batch wrote: every value must be
     the last one written. *)
  let written =
    List.filter_map (fun ((sw, _), _, (_, name)) -> Option.map (fun n -> (sw, n)) name) ops
  in
  let stride = max 1 (List.length written / max 1 r.cfg.reads) in
  List.iteri
    (fun i (sw, name) ->
      if i mod stride = 0 then
        match Hashtbl.find_opt (model r sw) name with
        | None -> ()
        | Some want -> (
          match
            Trace.time r.tr "yancfs.read_s" (fun () ->
                Y.Yanc_fs.read_flow (yfs r sw) ~cred ~switch:sw name)
          with
          | Ok got when Y.Flowdir.equal_config { got with Y.Flowdir.version = 0 }
                          { want with Y.Flowdir.version = 0 } -> ()
          | Ok _ -> r.errors <- (sw ^ "/" ^ name ^ ": read-back differs") :: r.errors
          | Error e -> r.errors <- (sw ^ "/" ^ name ^ ": " ^ e) :: r.errors))
    written;
  List.iteri
    (fun i ((sw, _), _, _) ->
      if i < r.cfg.listings then begin
        let listed =
          Trace.time r.tr "yancfs.read_s" (fun () ->
              Y.Yanc_fs.flow_name_set (yfs r sw) ~cred sw)
        in
        if Y.Yanc_fs.Name_set.elements listed <> names r sw then
          r.errors <- (sw ^ ": flows/ listing differs from what was written") :: r.errors
      end)
    ops;
  let at = converge r (List.map (fun (s, _, _) -> s) ops) in
  let lat =
    List.filter_map
      (fun ((sw, _), t, (ok, _)) ->
        match Hashtbl.find_opt at sw with
        | Some done_at when ok -> Some ((done_at -. t) *. 1000.)
        | _ -> None)
      ops
  in
  (List.length ops, List.length ops - List.length lat, lat)

let setup cfg ~seed ~tr =
  let built = N.Topo_gen.fat_tree ~k:cfg.k () in
  let net = built.N.Topo_gen.net in
  let c = Fleet.sharded ~nodes:cfg.nodes net in
  let switches =
    Array.of_list
      (List.map (fun d -> (Y.Yanc_fs.switch_name_of_dpid d, d)) built.N.Topo_gen.dpids)
  in
  let owner = Hashtbl.create 512 in
  Array.iter (fun (sw, d) -> Hashtbl.replace owner sw (Fleet.owner_yfs c d)) switches;
  let r =
    { cfg; cluster = c; net; switches; owner;
      model = Hashtbl.create 512; rng = N.Prng.create ~seed; next_id = 0;
      fs_errors = 0; errors = []; tr }
  in
  Array.iter
    (fun (sw, _) -> for _ = 1 to cfg.prefill do ignore (create r sw) done)
    switches;
  if Hashtbl.length (converge r (Array.to_list switches)) < Array.length switches then
    Util.fail "cluster: prefill did not reach hardware";
  r

let counters r = Fleet.counters (Fleet.Sharded r.cluster) r.net

(* After timing: every switch's table equals the model. *)
let check r =
  let tables =
    Array.to_list r.switches
    |> List.concat_map (fun (sw, dpid) ->
           Checks.table_vs ~what:"the model" ~switch:sw
             ~expected:(rules_of (model r sw)) ~actual:(Checks.hw_rules r.net dpid))
  in
  List.rev r.errors @ tables

type budget = Seconds of float | Batches of int

let run cfg ~seed ~budget ~setups ~tr =
  let boot_s, r = Util.set_up setups (fun () -> setup cfg ~seed ~tr) in
  let tw = Util.now () in
  for _ = 1 to cfg.warm do ignore (batch r) done;
  let setup_s = boot_s +. (Util.now () -. tw) in
  Trace.reset tr;
  let k0 = counters r and w0 = Util.gc_words () and b0 = Fleet.busy r.cluster in
  Util.kernel_mark ();
  let t0 = Util.now () in
  let more =
    match budget with
    | Seconds s -> fun n -> n = 0 || Util.now () -. t0 < s
    | Batches b -> fun n -> n < b
  in
  let rec go n ops failed lat =
    if more n then
      let o, f, l = batch r in
      go (n + 1) (ops + o) (failed + f) (l @ lat)
    else (ops, failed, lat)
  in
  let ops, failed, lat = go 0 0 0 [] in
  let t1 = Util.now () in
  let k1 = counters r and w1 = Util.gc_words () and b1 = Fleet.busy r.cluster in
  Trace.stop tr;
  Util.kernel_mark ();
  { Layers.setup_s;
    wall_s = t1 -. t0;
    ops;
    failed;
    completed = ops - failed;
    lat_ms = Util.sorted lat;
    errors = check r;
    before = k0;
    after = k1;
    words = (fst w1 -. fst w0, snd w1 -. snd w0);
    extra =
      (* Critical-path CPU seconds: the busiest node's own loop plus its
         replica's replay, as the program accounts them. *)
      [ ("yanc.node_busy_max_s",
         List.fold_left2 (fun m a b -> Float.max m (b -. a)) 0. b0 b1) ] }
