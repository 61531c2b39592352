(* The [policy] workload: a policy file of disjoint clauses deployed to
   a small fleet, then a series of seeded one-clause edits, each driven
   until every switch's table forwards the edited clause's traffic to
   its new port. The harness keeps the clause list itself; its probes
   never consult the compiler or the reference interpreter. *)

module N = Netsim
module Y = Yancfs

type config = {
  k : int;
  clauses : int;
  tick : float;
  warm : int;       (* warm-up edits inside set-up *)
  limit : float;    (* simulated seconds an edit may take *)
}

let policy = { k = 4; clauses = 200; tick = 0.005; warm = 2; limit = 5.0 }

let ports = 4  (* every switch of a k=4 fat-tree has ports 1..4 *)

type rig = {
  cfg : config;
  ctl : Yanc.Controller.t;
  net : N.Network.t;
  dpids : int64 list;
  dst : Packet.Ipv4_addr.t array;   (* clause i matches nw_dst = dst.(i) *)
  port : int array;                 (* ... and forwards to port.(i) *)
  unmatched : Packet.Ipv4_addr.t;   (* an address no clause names *)
  rng : N.Prng.t;
  mutable texts : string list;      (* every edit's text, newest first *)
  tr : Trace.t;
}

let ip_of n = Packet.Ipv4_addr.of_int32 (Int32.of_int ((10 lsl 24) lor n))

let text r =
  String.concat "\n| "
    (List.init (Array.length r.dst) (fun i ->
         Printf.sprintf "filter dl_type = 0x0800 && nw_dst = %s ; fwd(%d)"
           (Packet.Ipv4_addr.to_string r.dst.(i)) r.port.(i)))

(* Rounds until [ok ()] or the simulated-time limit; true on success. *)
let until ?limit r ok =
  let limit = N.Network.now r.net +. Option.value limit ~default:r.cfg.limit in
  let poll () = Trace.time r.tr "harness.poll_s" ok in
  while (not (poll ())) && N.Network.now r.net < limit do
    Fleet.round r.tr (Fleet.Single r.ctl) r.net r.cfg.tick
  done;
  poll ()

let clause_holds r i =
  List.for_all
    (fun d -> Checks.clause_probe r.net d ~nw_dst:r.dst.(i) ~port:r.port.(i) = [])
    r.dpids

let write r =
  let t = text r in
  r.texts <- t :: r.texts;
  match
    Trace.time r.tr "yancfs.write_s" (fun () ->
        Vfs.Fs.write_file (Yanc.Controller.fs r.ctl) ~cred:Vfs.Cred.root
          (Y.Layout.policy_file "bench") t)
  with
  | Ok () -> true
  | Error _ -> false

(* One edit: move one clause to another port. Returns (ok, wall s). *)
let edit r =
  let i = N.Prng.below r.rng (Array.length r.dst) in
  r.port.(i) <- 1 + ((r.port.(i) + N.Prng.below r.rng (ports - 1)) mod ports);
  let t0 = Util.now () in
  let ok = write r && until r (fun () -> clause_holds r i) in
  (ok, Util.now () -. t0)

let setup cfg ~seed ~tr =
  let built = N.Topo_gen.fat_tree ~k:cfg.k () in
  let net = built.N.Topo_gen.net in
  let ctl = Fleet.single net in
  let engine =
    Apps.Policy_engine.create ~cred:Vfs.Cred.root (Yanc.Controller.yfs ctl)
  in
  Yanc.Controller.add_app ctl
    (Fleet.wrap tr "apps.policyd_s" (Apps.Policy_engine.app engine));
  (* Distinct /32 destinations inside 10.0.0.0/8, drawn from the seed;
     one more distinct address is left unmatched. *)
  let rng = N.Prng.create ~seed in
  let used = Hashtbl.create 512 in
  let rec fresh () =
    let n = 1 + N.Prng.below rng 0xfffffe in
    if Hashtbl.mem used n then fresh () else (Hashtbl.replace used n (); ip_of n)
  in
  let dst = Array.init cfg.clauses (fun _ -> fresh ()) in
  let r =
    { cfg; ctl; net; dpids = built.N.Topo_gen.dpids; dst;
      port = Array.init cfg.clauses (fun _ -> 1 + N.Prng.below rng ports);
      unmatched = fresh (); rng; texts = []; tr }
  in
  let deployed =
    write r
    && until ~limit:60. r (fun () ->
           let rec all i = i = cfg.clauses || (clause_holds r i && all (i + 1)) in
           all 0)
  in
  if not deployed then Util.fail "policy: initial deploy did not converge";
  r

let counters r = Fleet.counters (Fleet.Single r.ctl) r.net

(* After timing: every clause, probed on every switch, reaches its
   port; an address no clause names is dropped everywhere. *)
let check r =
  List.concat_map
    (fun d ->
      List.concat
        (List.init (Array.length r.dst) (fun i ->
             Checks.clause_probe r.net d ~nw_dst:r.dst.(i) ~port:r.port.(i)))
      @ Checks.drop_probe r.net d ~nw_dst:r.unmatched)
    r.dpids

(* The traced run re-parses and re-compiles each edit's text itself:
   mean seconds per edit for each, and the rule count. *)
let compile_split texts =
  let parse_s = ref 0. and compile_s = ref 0. and rules = ref 0 in
  List.iter
    (fun t ->
      let t0 = Util.now () in
      match Policy.Syntax.parse t with
      | Error e -> Util.fail "policy: parse: %s" e
      | Ok ir ->
        let t1 = Util.now () in
        (match Policy.Compile.to_flows ir with
        | Ok fl -> rules := List.length fl
        | Error e -> Util.fail "policy: compile: %s" e);
        parse_s := !parse_s +. (t1 -. t0);
        compile_s := !compile_s +. (Util.now () -. t1))
    texts;
  let n = float_of_int (max 1 (List.length texts)) in
  [ ("policy.parse_s", !parse_s /. n); ("policy.compile_s", !compile_s /. n);
    ("policy.rules", float_of_int !rules) ]

type budget = Seconds of float | Edits of int

let run cfg ~seed ~budget ~setups ~tr =
  let boot_s, r = Util.set_up setups (fun () -> setup cfg ~seed ~tr) in
  let tw = Util.now () in
  for _ = 1 to cfg.warm do
    if not (fst (edit r)) then Util.fail "policy: warm-up edit did not converge"
  done;
  let setup_s = boot_s +. (Util.now () -. tw) in
  Trace.reset tr;
  r.texts <- [];
  let k0 = counters r and w0 = Util.gc_words () in
  Util.kernel_mark ();
  let t0 = Util.now () in
  let more =
    match budget with
    | Seconds s -> fun n -> n = 0 || Util.now () -. t0 < s
    | Edits e -> fun n -> n < e
  in
  let rec go n failed lat =
    if more n then
      let ok, w = edit r in
      if ok then go (n + 1) failed ((w *. 1000.) :: lat) else go (n + 1) (failed + 1) lat
    else (n, failed, lat)
  in
  let edits, failed, lat = go 0 0 [] in
  let t1 = Util.now () in
  let k1 = counters r and w1 = Util.gc_words () in
  Trace.stop tr;
  Util.kernel_mark ();
  let extra =
    if tr.Trace.on then
      ("policy.flow_mods_per_edit",
       float_of_int (k1.Layers.adds + k1.deletes - k0.Layers.adds - k0.deletes)
       /. float_of_int (max 1 edits))
      :: compile_split (List.rev r.texts)
    else []
  in
  { Layers.setup_s;
    wall_s = t1 -. t0;
    ops = edits;
    failed;
    completed = edits - failed;
    lat_ms = Util.sorted lat;
    errors = check r;
    before = k0;
    after = k1;
    words = (fst w1 -. fst w0, snd w1 -. snd w0);
    extra }
