(** The reactive router daemon (paper §8): it "handles all table misses
    and sets up paths based on exact match through the network".

    For a unicast packet-in to a known host it installs one exact-match
    rule per hop along a shortest path over the topology daemon's
    [peer] links, last hop first, and releases the packet at the
    ingress. Where several shortest paths exist (a Clos fabric), every
    switch picks among its equal-cost next hops (one reverse BFS per
    destination edge switch, cached) by the hash of the packet's packed
    12-tuple ({!Openflow.Of_match.Packed.hash}) mixed with a per-switch
    salt. So flows spread across the fabric, every packet of a flow
    takes one stable path, and successive tiers don't polarize. The app
    is an ordinary file system client: rules go through the flow
    directories.

    Host locations bootstrap from [/net/hosts] (written by provisioning,
    dhcpd or the scale bench) and are learned from packet-in source
    addresses on edge ports (ports without a [peer] link). Learning
    records the host's attachment point and IP address under
    [hosts/], and writes only when either changes.

    It floods broadcast and multicast frames, by packet-out, to every
    up edge port in the network except the ingress: loop-free on any
    topology. It drops unknown unicast destinations
    ([app.ecmpd.unknown_dst]) and destinations it has no path to
    ([app.ecmpd.no_route]). A miss on an inter-switch port is a packet
    that outran its own path's rules (in the commit queue, or in the
    DFS op log on a sharded cluster): that one packet is released by
    packet-out from the destination's host port at its edge switch,
    and nothing is installed ([app.ecmpd.transit_miss]).

    The [peer] links are cached. A link change is picked up when a
    route over the cache finds no path, or crosses a link whose [peer]
    symlink is gone (checked before every install): the cache is then
    rebuilt once from the FS and the route retried.

    Delivery is selectable: [Ring] drains the pooled {!Yancfs.Pktin}
    fast path in bounded batches (parked via its [pending] hook when
    the ring is empty); [Eventdir] consumes per-event file directories
    like every other app — same routing logic, and the baseline the
    scale bench compares against. *)

type t

type delivery = Ring | Eventdir

val create :
  ?cred:Vfs.Cred.t -> ?delivery:delivery -> ?tag:string ->
  ?idle_timeout:int -> ?priority:int -> ?batch:int ->
  Yancfs.Yanc_fs.t -> t
(** [delivery] defaults to [Ring]; [tag] namespaces installed flow
    names ([ecmp<tag>-<seq>]) so router instances on different cluster
    nodes never collide in a shared path switch's flows directory;
    [batch] (default 512) bounds ring events handled per scheduler
    tick; [idle_timeout] (default 30) and [priority] (default 300)
    shape the installed rules. *)

val app : t -> App_intf.t
(** Daemon named ["ecmpd"]. In [Ring] mode it exposes a [pending] hook
    so the scheduler skips it while the ring is empty. *)

val run : t -> now:float -> unit

val paths_installed : t -> int

val hosts_tracked : t -> int
