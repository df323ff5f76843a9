//! Cluster topology: pluggable interconnect models with hop-by-hop routing.
//!
//! The fabric is a set of FCFS **links** plus a [`TopologyModel`] that maps
//! a `(src, dst)` node pair onto a **route** — an ordered sequence of
//! store-and-forward steps, each holding one or more links for the
//! message's serialization time, with propagation latency charged off the
//! wires once per step. Three models ship, selected by [`TopologySpec`]:
//!
//! * [`TopologySpec::SingleSwitch`] — the paper's testbed: every node's
//!   full-duplex NIC hangs off one non-blocking switch. A message holds
//!   the sender's TX wire and the receiver's RX wire together for one
//!   serialization, then experiences propagation latency off the wires.
//!   This is the default and reproduces the pre-topology fabric's virtual
//!   time byte for byte.
//! * [`TopologySpec::FatTree`] — a two-level fat tree: `radix` hosts share
//!   an edge switch, and each edge switch reaches the core over a single
//!   up/down link pair, so cross-edge traffic is oversubscribed `radix:1`.
//! * [`TopologySpec::Dragonfly`] — `groups` host groups with one router
//!   each and one global link per ordered group pair; inter-group traffic
//!   serializes on the shared global link.
//!
//! Every link tracks bytes, messages, and peak queue depth
//! ([`Topology::link_stats`]); with telemetry attached the fabric also
//! feeds aggregate `fabric.link.*` counters and, on demand, a per-link
//! utilization gauge ([`Topology::publish_link_gauges`]). Hop counts are
//! exported ([`Topology::hops`], [`Topology::hop_matrix`]) so placement
//! layers can prefer near accelerators.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::rc::{Rc, Weak};
use std::sync::{Arc, Mutex, OnceLock};

use dacc_sim::channel::oneshot::oneshot;
use dacc_sim::fault::{FaultHook, LinkFault};
use dacc_sim::prelude::*;
use dacc_sim::slab::Slab;
use dacc_telemetry::Telemetry;

use crate::mpi::{Delivery, Notice};

/// Identifies a physical node (compute node or accelerator node).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct NodeId(pub usize);

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "node{}", self.0)
    }
}

/// Interconnect parameters. Defaults are calibrated to the paper's testbed:
/// QDR Infiniband with Open MPI 1.4.3 (≈ 2 µs small-message latency,
/// ≈ 2660 MiB/s peak PingPong bandwidth at 64 MiB).
#[derive(Clone, Copy, Debug)]
pub struct FabricParams {
    /// Propagation + switch latency, charged off the wires once per
    /// store-and-forward step of the route.
    pub latency: SimDuration,
    /// Wire serialization rate (every link in every model).
    pub bandwidth: Bandwidth,
    /// Per-message wire overhead (headers, framing, doorbell).
    pub per_message: SimDuration,
    /// Messages at or below this size use the eager protocol.
    pub eager_threshold: u64,
    /// Sender CPU overhead per message.
    pub o_send: SimDuration,
    /// Receiver CPU overhead per message.
    pub o_recv: SimDuration,
    /// Wire bytes added to every packet (envelope header).
    pub header_bytes: u64,
    /// Aggregate switch capacity for [`TopologySpec::SingleSwitch`].
    /// `None` models a non-blocking switch (the paper's testbed).
    /// `Some(bw)` inserts a shared store-and-forward hop: total traffic
    /// through the fabric saturates at `bw`, which is how §III-A's warning
    /// about the accelerator:compute-node ratio becomes measurable.
    /// Multi-hop models ignore it — their internal links *are* the shared
    /// capacity.
    pub switch_bandwidth: Option<Bandwidth>,
}

impl FabricParams {
    /// The paper's testbed: QDR IB, Open MPI 1.4.3.
    pub fn qdr_infiniband() -> Self {
        FabricParams {
            latency: SimDuration::from_nanos(1_300),
            bandwidth: Bandwidth::from_mib_per_sec(2670.0),
            per_message: SimDuration::from_nanos(200),
            eager_threshold: 12 * 1024,
            o_send: SimDuration::from_nanos(300),
            o_recv: SimDuration::from_nanos(200),
            header_bytes: 64,
            switch_bandwidth: None,
        }
    }

    /// A TCP/IP transport over 10-Gigabit Ethernet — the class of fabric
    /// rCUDA v3.2 and MGP used (§II). Socket-stack overheads dominate:
    /// tens of microseconds of latency and per-message CPU cost, and a
    /// ~1150 MiB/s ceiling.
    pub fn ten_gige_tcp() -> Self {
        FabricParams {
            latency: SimDuration::from_micros(25),
            bandwidth: Bandwidth::from_mib_per_sec(1150.0),
            per_message: SimDuration::from_micros(2),
            eager_threshold: 64 * 1024,
            o_send: SimDuration::from_micros(3),
            o_recv: SimDuration::from_micros(3),
            header_bytes: 96,
            switch_bandwidth: None,
        }
    }

    /// TCP over commodity Gigabit Ethernet (the cheapest deployment).
    pub fn gige_tcp() -> Self {
        FabricParams {
            latency: SimDuration::from_micros(50),
            bandwidth: Bandwidth::from_mib_per_sec(112.0),
            per_message: SimDuration::from_micros(5),
            eager_threshold: 64 * 1024,
            o_send: SimDuration::from_micros(5),
            o_recv: SimDuration::from_micros(5),
            header_bytes: 96,
            switch_bandwidth: None,
        }
    }

    /// An idealized zero-overhead fabric (unit tests of matching logic).
    pub fn ideal() -> Self {
        FabricParams {
            latency: SimDuration::ZERO,
            bandwidth: Bandwidth::from_gib_per_sec(1024.0),
            per_message: SimDuration::ZERO,
            eager_threshold: 12 * 1024,
            o_send: SimDuration::ZERO,
            o_recv: SimDuration::ZERO,
            header_bytes: 0,
            switch_bandwidth: None,
        }
    }
}

impl Default for FabricParams {
    fn default() -> Self {
        Self::qdr_infiniband()
    }
}

// ---------------------------------------------------------------------------
// Topology models
// ---------------------------------------------------------------------------

/// Which interconnect model the fabric instantiates.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum TopologySpec {
    /// Every NIC on one non-blocking switch (the paper's testbed, and the
    /// default — byte-identical virtual time with the pre-topology fabric).
    #[default]
    SingleSwitch,
    /// Two-level fat tree: `radix` hosts per edge switch, one up/down link
    /// pair from each edge switch to the core (oversubscription `radix:1`).
    FatTree {
        /// Hosts per edge switch (≥ 1).
        radix: usize,
    },
    /// Dragonfly: `groups` host groups, one router per group, one global
    /// link per ordered group pair.
    Dragonfly {
        /// Number of host groups (≥ 1).
        groups: usize,
    },
}

impl TopologySpec {
    /// Parse `"switch"`, `"fattree"`, `"fattree:<radix>"`, `"dragonfly"`,
    /// or `"dragonfly:<groups>"` (case-insensitive). Defaults: radix 4,
    /// groups 3.
    pub fn parse(s: &str) -> Option<Self> {
        let s = s.trim().to_ascii_lowercase();
        let (kind, arg) = match s.split_once(':') {
            Some((k, a)) => (k, Some(a)),
            None => (s.as_str(), None),
        };
        match kind {
            "switch" | "singleswitch" | "single-switch" => Some(TopologySpec::SingleSwitch),
            "fattree" | "fat-tree" => {
                let radix = match arg {
                    Some(a) => a.parse().ok().filter(|&r: &usize| r >= 1)?,
                    None => 4,
                };
                Some(TopologySpec::FatTree { radix })
            }
            "dragonfly" => {
                let groups = match arg {
                    Some(a) => a.parse().ok().filter(|&g: &usize| g >= 1)?,
                    None => 3,
                };
                Some(TopologySpec::Dragonfly { groups })
            }
            _ => None,
        }
    }

    /// Short model name (`"switch"`, `"fattree"`, `"dragonfly"`).
    pub fn name(&self) -> &'static str {
        match self {
            TopologySpec::SingleSwitch => "switch",
            TopologySpec::FatTree { .. } => "fattree",
            TopologySpec::Dragonfly { .. } => "dragonfly",
        }
    }

    /// Instantiate the model for a cluster of `nodes` nodes.
    pub fn model(&self, nodes: usize) -> Box<dyn TopologyModel> {
        match *self {
            TopologySpec::SingleSwitch => Box::new(SingleSwitchModel { nodes }),
            TopologySpec::FatTree { radix } => Box::new(FatTreeModel::new(nodes, radix)),
            TopologySpec::Dragonfly { groups } => Box::new(DragonflyModel::new(nodes, groups)),
        }
    }
}

impl std::fmt::Display for TopologySpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TopologySpec::SingleSwitch => write!(f, "switch"),
            TopologySpec::FatTree { radix } => write!(f, "fattree:{radix}"),
            TopologySpec::Dragonfly { groups } => write!(f, "dragonfly:{groups}"),
        }
    }
}

/// What role a link plays in its model.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum LinkClass {
    /// A host NIC's transmit wire (route injection point).
    HostTx,
    /// A host NIC's receive wire (route ejection point).
    HostRx,
    /// Edge-switch uplink toward the core (fat tree).
    Up,
    /// Core downlink toward an edge switch (fat tree).
    Down,
    /// Inter-group global link (dragonfly).
    Global,
}

/// Static description of one link.
#[derive(Clone, Debug)]
pub struct LinkDesc {
    /// Human-readable name, unique within the model.
    pub name: String,
    /// The link's role.
    pub class: LinkClass,
}

/// Link id of node `i`'s TX wire (every model lays host wires out first,
/// interleaved: `2i` TX, `2i + 1` RX).
pub fn host_tx_link(node: usize) -> usize {
    2 * node
}

/// Link id of node `i`'s RX wire.
pub fn host_rx_link(node: usize) -> usize {
    2 * node + 1
}

/// An interconnect model: link enumeration plus route computation.
///
/// A route is a sequence of store-and-forward **steps**; each step is the
/// set of link ids held simultaneously for one serialization. Valid routes
/// start by traversing the source's TX wire, end by traversing the
/// destination's RX wire, and never repeat a link (loop-freedom).
pub trait TopologyModel: Send + Sync {
    /// Model name (matches [`TopologySpec::name`]).
    fn name(&self) -> &'static str;
    /// Number of hosts.
    fn nodes(&self) -> usize;
    /// Total links, host wires included.
    fn link_count(&self) -> usize;
    /// Description of link `link` (`< link_count`).
    fn link_desc(&self, link: usize) -> LinkDesc;
    /// Route from `src` to `dst` (`src != dst`) as store-and-forward steps.
    fn route(&self, src: usize, dst: usize) -> Vec<Vec<usize>>;
    /// Hop count (store-and-forward steps) between two hosts; 0 for
    /// loopback. Placement layers use this as their locality distance.
    fn hops(&self, src: usize, dst: usize) -> usize {
        if src == dst {
            0
        } else {
            self.route(src, dst).len()
        }
    }
}

fn host_link_desc(link: usize) -> LinkDesc {
    let node = link / 2;
    if link.is_multiple_of(2) {
        LinkDesc {
            name: format!("node{node}.tx"),
            class: LinkClass::HostTx,
        }
    } else {
        LinkDesc {
            name: format!("node{node}.rx"),
            class: LinkClass::HostRx,
        }
    }
}

/// The paper's testbed: one non-blocking switch, cut-through. A message is
/// one step holding the sender's TX and receiver's RX wires together.
#[derive(Clone, Copy, Debug)]
pub struct SingleSwitchModel {
    /// Number of hosts.
    pub nodes: usize,
}

impl TopologyModel for SingleSwitchModel {
    fn name(&self) -> &'static str {
        "switch"
    }
    fn nodes(&self) -> usize {
        self.nodes
    }
    fn link_count(&self) -> usize {
        2 * self.nodes
    }
    fn link_desc(&self, link: usize) -> LinkDesc {
        assert!(link < self.link_count());
        host_link_desc(link)
    }
    fn route(&self, src: usize, dst: usize) -> Vec<Vec<usize>> {
        assert!(src != dst && src < self.nodes && dst < self.nodes);
        vec![vec![host_tx_link(src), host_rx_link(dst)]]
    }
}

/// Two-level fat tree: `radix` hosts per edge switch; each edge switch
/// owns one uplink (edge → core) and one downlink (core → edge), so
/// cross-edge traffic is oversubscribed `radix:1`. Store-and-forward at
/// every switch.
#[derive(Clone, Copy, Debug)]
pub struct FatTreeModel {
    /// Number of hosts.
    pub nodes: usize,
    /// Hosts per edge switch.
    pub radix: usize,
}

impl FatTreeModel {
    /// Build the model; `radix` must be ≥ 1.
    pub fn new(nodes: usize, radix: usize) -> Self {
        assert!(radix >= 1, "fat tree radix must be >= 1");
        FatTreeModel { nodes, radix }
    }

    /// Number of edge switches.
    pub fn edges(&self) -> usize {
        self.nodes.div_ceil(self.radix.max(1))
    }

    /// Edge switch of host `h`.
    pub fn edge_of(&self, h: usize) -> usize {
        h / self.radix
    }

    fn up_link(&self, edge: usize) -> usize {
        2 * self.nodes + 2 * edge
    }

    fn down_link(&self, edge: usize) -> usize {
        2 * self.nodes + 2 * edge + 1
    }
}

impl TopologyModel for FatTreeModel {
    fn name(&self) -> &'static str {
        "fattree"
    }
    fn nodes(&self) -> usize {
        self.nodes
    }
    fn link_count(&self) -> usize {
        let e = self.edges();
        if e > 1 {
            2 * self.nodes + 2 * e
        } else {
            2 * self.nodes
        }
    }
    fn link_desc(&self, link: usize) -> LinkDesc {
        assert!(link < self.link_count());
        if link < 2 * self.nodes {
            return host_link_desc(link);
        }
        let rel = link - 2 * self.nodes;
        let edge = rel / 2;
        if rel.is_multiple_of(2) {
            LinkDesc {
                name: format!("edge{edge}.up"),
                class: LinkClass::Up,
            }
        } else {
            LinkDesc {
                name: format!("edge{edge}.down"),
                class: LinkClass::Down,
            }
        }
    }
    fn route(&self, src: usize, dst: usize) -> Vec<Vec<usize>> {
        assert!(src != dst && src < self.nodes && dst < self.nodes);
        let (ea, eb) = (self.edge_of(src), self.edge_of(dst));
        if ea == eb {
            // Store-and-forward at the shared edge switch.
            vec![vec![host_tx_link(src)], vec![host_rx_link(dst)]]
        } else {
            vec![
                vec![host_tx_link(src)],
                vec![self.up_link(ea)],
                vec![self.down_link(eb)],
                vec![host_rx_link(dst)],
            ]
        }
    }
}

/// Dragonfly: hosts split into `groups` contiguous groups, one router per
/// group, one global link per ordered group pair. Intra-group traffic
/// store-and-forwards at the group router; inter-group traffic serializes
/// on the shared global link between the two routers.
#[derive(Clone, Copy, Debug)]
pub struct DragonflyModel {
    /// Number of hosts.
    pub nodes: usize,
    /// Number of host groups.
    pub groups: usize,
}

impl DragonflyModel {
    /// Build the model; `groups` must be ≥ 1.
    pub fn new(nodes: usize, groups: usize) -> Self {
        assert!(groups >= 1, "dragonfly groups must be >= 1");
        DragonflyModel { nodes, groups }
    }

    /// Hosts per group (last group may be smaller).
    pub fn per_group(&self) -> usize {
        self.nodes.div_ceil(self.groups).max(1)
    }

    /// Group of host `h`.
    pub fn group_of(&self, h: usize) -> usize {
        (h / self.per_group()).min(self.groups - 1)
    }

    fn global_link(&self, from: usize, to: usize) -> usize {
        debug_assert!(from != to);
        let slot = if to < from { to } else { to - 1 };
        2 * self.nodes + from * (self.groups - 1) + slot
    }
}

impl TopologyModel for DragonflyModel {
    fn name(&self) -> &'static str {
        "dragonfly"
    }
    fn nodes(&self) -> usize {
        self.nodes
    }
    fn link_count(&self) -> usize {
        2 * self.nodes + self.groups * (self.groups.saturating_sub(1))
    }
    fn link_desc(&self, link: usize) -> LinkDesc {
        assert!(link < self.link_count());
        if link < 2 * self.nodes {
            return host_link_desc(link);
        }
        let rel = link - 2 * self.nodes;
        let from = rel / (self.groups - 1);
        let slot = rel % (self.groups - 1);
        let to = if slot < from { slot } else { slot + 1 };
        LinkDesc {
            name: format!("global.g{from}-g{to}"),
            class: LinkClass::Global,
        }
    }
    fn route(&self, src: usize, dst: usize) -> Vec<Vec<usize>> {
        assert!(src != dst && src < self.nodes && dst < self.nodes);
        let (ga, gb) = (self.group_of(src), self.group_of(dst));
        if ga == gb {
            vec![vec![host_tx_link(src)], vec![host_rx_link(dst)]]
        } else {
            vec![
                vec![host_tx_link(src)],
                vec![self.global_link(ga, gb)],
                vec![host_rx_link(dst)],
            ]
        }
    }
}

// ---------------------------------------------------------------------------
// Runtime topology
// ---------------------------------------------------------------------------

/// Per-node NIC traffic counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NicStats {
    /// Payload+header bytes sent.
    pub tx_bytes: u64,
    /// Payload+header bytes received.
    pub rx_bytes: u64,
    /// Packets sent.
    pub tx_msgs: u64,
    /// Packets received.
    pub rx_msgs: u64,
}

/// One link's runtime state: its FCFS wire plus traffic counters.
struct LinkState {
    res: Resource,
    class: LinkClass,
    bytes: Cell<u64>,
    msgs: Cell<u64>,
    peak_queue: Cell<u64>,
}

/// A point-in-time snapshot of one link ([`Topology::link_stats`]).
#[derive(Clone, Debug)]
pub struct LinkStats {
    /// Link name from the model (`node3.tx`, `edge1.up`, `global.g0-g2`).
    pub name: String,
    /// The link's role.
    pub class: LinkClass,
    /// Payload+header bytes that crossed the link.
    pub bytes: u64,
    /// Frames that crossed the link.
    pub msgs: u64,
    /// Deepest queue observed behind the link (frames waiting at acquire).
    pub peak_queue: u64,
    /// Times the wire was granted to a frame (from the wire's FCFS resource).
    pub acquisitions: u64,
    /// Accumulated time the wire was held.
    pub busy_time: SimDuration,
    /// Busy-time fraction so far.
    pub utilization: f64,
}

/// A cached route: store-and-forward steps of simultaneously-held link ids.
type SharedRoute = Rc<Vec<Vec<usize>>>;

struct TopologyInner {
    params: FabricParams,
    spec: TopologySpec,
    model: Box<dyn TopologyModel>,
    links: Vec<LinkState>,
    switch: Option<Resource>,
    /// Route cache, by `src * nodes + dst`: routes are pure functions of
    /// the model, computed once, and every frame asks for its own.
    routes: RefCell<Vec<Option<SharedRoute>>>,
    /// Optional fault-injection hook consulted once per transmitted message
    /// (plus once per link on the route when installed).
    fault: RefCell<Option<Arc<dyn FaultHook>>>,
    /// Records `fault.drop` / `fault.degrade` / `fault.corrupt` events when
    /// enabled.
    tracer: RefCell<Tracer>,
    /// Disabled when nothing is attached.
    telemetry: RefCell<Telemetry>,
    dropped_msgs: Cell<u64>,
    degraded_msgs: Cell<u64>,
    corrupted_msgs: Cell<u64>,
    handle: SimHandle,
    /// The frames in flight, and their kind of calendar entry.
    frames: RefCell<Slab<Frame>>,
    kind: Kind,
    /// Healthy wire times of recent frame sizes, by size modulo 8
    /// ([`Topology::wire_time`]).
    wire_times: [Cell<(u64, SimDuration)>; 8],
}

/// The physical cluster: a set of nodes and the wires between them.
#[derive(Clone)]
pub struct Topology {
    inner: Rc<TopologyInner>,
}

fn bump(counter: &Cell<u64>) {
    counter.set(counter.get() + 1);
}

/// Intern a metric name so it satisfies telemetry's `&'static str` keys.
/// Leaks once per unique name; bounded by the number of links per process.
fn intern_metric(name: String) -> &'static str {
    static NAMES: OnceLock<Mutex<HashMap<String, &'static str>>> = OnceLock::new();
    let map = NAMES.get_or_init(|| Mutex::new(HashMap::new()));
    let mut map = map
        .lock()
        .expect("intern table poisoned: a thread panicked mid-insert");
    if let Some(&s) = map.get(&name) {
        return s;
    }
    let leaked: &'static str = Box::leak(name.clone().into_boxed_str());
    map.insert(name, leaked);
    leaked
}

impl Topology {
    /// A cluster of `nodes` nodes on a non-blocking switch (the default
    /// [`TopologySpec::SingleSwitch`] model).
    pub fn new(handle: &SimHandle, nodes: usize, params: FabricParams) -> Self {
        Self::with_spec(handle, nodes, params, TopologySpec::SingleSwitch)
    }

    /// A cluster of `nodes` nodes wired by `spec`'s model.
    pub fn with_spec(
        handle: &SimHandle,
        nodes: usize,
        params: FabricParams,
        spec: TopologySpec,
    ) -> Self {
        let model = spec.model(nodes);
        // Host wires first, in per-node TX/RX order (matching the
        // pre-topology fabric's resource creation order), then the model's
        // internal links.
        let links: Vec<LinkState> = (0..model.link_count())
            .map(|l| {
                let desc = model.link_desc(l);
                let res_name = match desc.class {
                    LinkClass::HostTx => "nic.tx",
                    LinkClass::HostRx => "nic.rx",
                    _ => "fabric.link",
                };
                LinkState {
                    res: Resource::new(handle, res_name, 1),
                    class: desc.class,
                    bytes: Cell::new(0),
                    msgs: Cell::new(0),
                    peak_queue: Cell::new(0),
                }
            })
            .collect();
        let switch = match spec {
            TopologySpec::SingleSwitch => params
                .switch_bandwidth
                .map(|_| Resource::new(handle, "switch", 1)),
            _ => None,
        };
        Topology {
            inner: Rc::new_cyclic(|me: &Weak<TopologyInner>| TopologyInner {
                params,
                spec,
                model,
                links,
                switch,
                routes: RefCell::new(vec![None; nodes * nodes]),
                fault: RefCell::new(None),
                tracer: RefCell::new(Tracer::disabled()),
                telemetry: RefCell::new(Telemetry::disabled()),
                dropped_msgs: Cell::new(0),
                degraded_msgs: Cell::new(0),
                corrupted_msgs: Cell::new(0),
                handle: handle.clone(),
                frames: RefCell::new(Slab::default()),
                kind: handle.kind(me.clone()),
                wire_times: std::array::from_fn(|_| Cell::new((u64::MAX, SimDuration::ZERO))),
            }),
        }
    }

    /// Install a fault-injection hook consulted once per message (and once
    /// per route link for per-link faults); `None` restores the healthy
    /// fabric.
    pub fn set_fault_hook(&self, hook: Option<Arc<dyn FaultHook>>) {
        *self.inner.fault.borrow_mut() = hook;
    }

    /// The installed fault hook, if any.
    pub(crate) fn fault_hook(&self) -> Option<Arc<dyn FaultHook>> {
        self.inner.fault.borrow().clone()
    }

    /// Install a tracer for `fault.drop` / `fault.degrade` events.
    pub fn set_tracer(&self, tracer: Tracer) {
        *self.inner.tracer.borrow_mut() = tracer;
    }

    /// The installed tracer, or a disabled one when none is installed.
    pub(crate) fn tracer(&self) -> Tracer {
        self.inner.tracer.borrow().clone()
    }

    /// Attach a telemetry handle: the fabric records aggregate
    /// `fabric.link.*` counters on every traversal. Pass
    /// [`Telemetry::disabled`] to detach.
    pub fn set_telemetry(&self, tele: Telemetry) {
        *self.inner.telemetry.borrow_mut() = tele;
    }

    /// Messages silently dropped by the fault hook so far.
    pub fn dropped_messages(&self) -> u64 {
        self.inner.dropped_msgs.get()
    }

    /// Messages delivered with degraded serialization so far.
    pub fn degraded_messages(&self) -> u64 {
        self.inner.degraded_msgs.get()
    }

    /// Messages delivered with a flipped payload bit so far.
    pub fn corrupted_messages(&self) -> u64 {
        self.inner.corrupted_msgs.get()
    }

    /// The simulation this topology schedules on.
    pub(crate) fn handle(&self) -> &SimHandle {
        &self.inner.handle
    }

    /// Observes whether anything still owns the links and their queues.
    #[cfg(test)]
    pub(crate) fn sentinel(&self) -> Weak<dyn std::any::Any> {
        Rc::downgrade(&self.inner) as Weak<dyn std::any::Any>
    }

    /// Interconnect parameters.
    pub fn params(&self) -> FabricParams {
        self.inner.params
    }

    /// The topology model in force.
    pub fn spec(&self) -> TopologySpec {
        self.inner.spec
    }

    /// The live model (route computation, link enumeration).
    pub fn model(&self) -> &dyn TopologyModel {
        self.inner.model.as_ref()
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.inner.model.nodes()
    }

    /// Number of links (host wires + internal links).
    pub fn link_count(&self) -> usize {
        self.inner.links.len()
    }

    /// Hop count (store-and-forward steps) between two nodes; 0 for
    /// loopback. The ARM uses this as its placement locality distance.
    pub fn hops(&self, src: NodeId, dst: NodeId) -> usize {
        self.inner.model.hops(src.0, dst.0)
    }

    /// The full node×node hop matrix (`matrix[src][dst]`).
    pub fn hop_matrix(&self) -> Vec<Vec<u32>> {
        let n = self.node_count();
        (0..n)
            .map(|s| (0..n).map(|d| self.inner.model.hops(s, d) as u32).collect())
            .collect()
    }

    /// The route the model computes for `src -> dst` (for inspection and
    /// property tests).
    pub fn route_of(&self, src: NodeId, dst: NodeId) -> Vec<Vec<usize>> {
        self.route_for(src.0, dst.0).as_ref().clone()
    }

    fn route_for(&self, src: usize, dst: usize) -> SharedRoute {
        let mut cache = self.inner.routes.borrow_mut();
        let model = &self.inner.model;
        cache[src * model.nodes() + dst]
            .get_or_insert_with(|| Rc::new(model.route(src, dst)))
            .clone()
    }

    /// Traffic counters for one node's NIC (its TX/RX host wires).
    pub fn nic_stats(&self, node: NodeId) -> NicStats {
        let tx = &self.inner.links[host_tx_link(node.0)];
        let rx = &self.inner.links[host_rx_link(node.0)];
        NicStats {
            tx_bytes: tx.bytes.get(),
            rx_bytes: rx.bytes.get(),
            tx_msgs: tx.msgs.get(),
            rx_msgs: rx.msgs.get(),
        }
    }

    /// TX-wire utilization statistics for one node.
    pub fn tx_stats(&self, node: NodeId) -> dacc_sim::resource::ResourceStats {
        self.inner.links[host_tx_link(node.0)].res.stats()
    }

    /// Snapshot of every link's traffic and utilization, in link-id order.
    pub fn link_stats(&self) -> Vec<LinkStats> {
        self.inner
            .links
            .iter()
            .enumerate()
            .map(|(l, link)| {
                let res = link.res.stats();
                LinkStats {
                    name: self.inner.model.link_desc(l).name,
                    class: link.class,
                    bytes: link.bytes.get(),
                    msgs: link.msgs.get(),
                    peak_queue: link.peak_queue.get(),
                    acquisitions: res.acquisitions,
                    busy_time: res.busy_time,
                    utilization: res.utilization,
                }
            })
            .collect()
    }

    /// Export one utilization gauge per link (`fabric.link.util.<name>`)
    /// plus the fleet-wide maximum (`fabric.link.util.max`) into the
    /// attached telemetry. Call at measurement boundaries — gauges are
    /// last-write-wins snapshots, not rates.
    pub fn publish_link_gauges(&self) {
        let tele = self.inner.telemetry.borrow().clone();
        if !tele.is_enabled() {
            return;
        }
        let mut max_util = 0.0f64;
        for (l, link) in self.inner.links.iter().enumerate() {
            let util = link.res.stats().utilization;
            max_util = max_util.max(util);
            let name = self.inner.model.link_desc(l).name;
            tele.gauge(intern_metric(format!("fabric.link.util.{name}")), util);
        }
        tele.gauge("fabric.link.util.max", max_util);
    }

    /// Record one frame crossing link `l`.
    fn account(&self, l: usize, wire_bytes: u64) {
        let link = &self.inner.links[l];
        link.bytes.set(link.bytes.get() + wire_bytes);
        bump(&link.msgs);
        let tele = self.inner.telemetry.borrow();
        tele.count("fabric.link.msgs", 1);
        tele.count("fabric.link.bytes", wire_bytes);
    }

    /// Note the queue depth observed behind link `l` just before acquiring:
    /// waiters already queued, plus the frame in service if the wire is
    /// busy (so "arrived while busy" registers as congestion even when the
    /// wait queue itself is empty).
    fn note_queue(&self, l: usize) {
        let q = self.inner.links[l].res.backlog() as u64;
        if q > 0 {
            let peak = &self.inner.links[l].peak_queue;
            peak.set(peak.get().max(q));
            self.inner.telemetry.borrow().count("fabric.link.queued", q);
        }
    }

    /// Move `payload_bytes` (plus the envelope header) from `src` to `dst`.
    ///
    /// Resolves when the last byte has been **serialized** onto the first
    /// hop's wires (the sender may then reuse its buffer); the returned
    /// [`EventFlag`] is set when the last byte **arrives** at `dst` after
    /// traversing the route and its propagation latency.
    ///
    /// Loopback (`src == dst`) charges no wire time and a small constant
    /// copy cost, mirroring MPI shared-memory self-sends.
    pub async fn transmit(&self, src: NodeId, dst: NodeId, payload_bytes: u64) -> EventFlag {
        self.transmit_checked(src, dst, payload_bytes).await.0
    }

    /// [`Topology::transmit`], also reporting whether the fault plane
    /// corrupted the message in flight; callers that ignore the flag get
    /// pristine timing either way.
    pub async fn transmit_checked(
        &self,
        src: NodeId,
        dst: NodeId,
        payload_bytes: u64,
    ) -> (EventFlag, bool) {
        let arrived = EventFlag::new();
        let (on_wire, serialized) = oneshot::<bool>();
        let cargo = Cargo {
            notice: Some(Notice::Serialized(on_wire)),
            at_inject: false,
            delivery: Delivery::Flag(arrived.clone()),
        };
        self.transmit_then(src, dst, payload_bytes, SimDuration::ZERO, cargo);
        let corrupt = serialized
            .await
            .expect("a frame reports its first serialization before it can be dropped");
        (arrived, corrupt)
    }

    /// Send a frame from `src` to `dst` and return at once: the frame is a
    /// record in this topology's slab, advanced by calendar entries and link
    /// grants ([`Frame`]), and nothing here is a task. The frame is injected
    /// after `lead` (the sender's CPU overhead, if it charges any);
    /// `cargo.notice` is told then if `cargo.at_inject`, else when the first
    /// hop has serialized (when the sender may reuse its buffer), with
    /// whether the fault plane corrupted the frame; `cargo.delivery` is
    /// carried out when the last byte arrives at `dst`, with the topology
    /// and the same verdict. A frame the fault plane drops never arrives:
    /// its delivery is dropped undone.
    ///
    /// The cargo must not own this topology: it waits in the topology's
    /// slab, and would keep it alive forever. (That is why delivery is
    /// handed it instead.)
    pub(crate) fn transmit_then(
        &self,
        src: NodeId,
        dst: NodeId,
        payload_bytes: u64,
        lead: SimDuration,
        cargo: Cargo,
    ) {
        let handle = &self.inner.handle;
        if src == dst {
            // Self-send: a memcpy, no NIC involvement.
            let copy = SimDuration::from_secs_f64(
                payload_bytes as f64 / Bandwidth::from_gib_per_sec(6.0).bytes_per_sec(),
            );
            let this = self.clone();
            let copy = self.inner.params.per_message + copy;
            return after(handle, lead, move || {
                let Cargo {
                    mut notice,
                    at_inject,
                    delivery,
                } = cargo;
                if let Some(n) = notice.take_if(|_| at_inject) {
                    n.tell(false);
                }
                after(&this.inner.handle.clone(), copy, move || {
                    delivery.arrive(&this, false);
                    if let Some(n) = notice {
                        n.tell(false);
                    }
                })
            });
        }
        let frame = Frame {
            src,
            dst,
            payload_bytes,
            route: self.route_for(src.0, dst.0),
            plan: None,
            step: 0,
            held: 0,
            due: Due::Inject,
            notice: cargo.notice,
            at_inject: cargo.at_inject,
            delivery: Some(cargo.delivery),
        };
        let index = self.inner.frames.borrow_mut().insert(frame);
        if lead.is_zero() {
            self.inject(index);
        } else {
            self.wait(lead, index);
        }
    }

    /// Frame `index` waits `wait` on the calendar.
    fn wait(&self, wait: SimDuration, index: u32) {
        let handle = &self.inner.handle;
        handle.schedule(handle.now() + wait, self.inner.kind, index);
    }

    /// The frame's calendar entry has come due.
    fn resume(&self, index: u32) {
        let due = self.inner.frames.borrow()[index].due;
        match due {
            Due::Inject => self.inject(index),
            Due::StageOver => self.stage_over(index),
            Due::EnterStep => self.enter_step(index),
            Due::Arrive => {
                let (delivery, corrupt) = {
                    let mut frames = self.inner.frames.borrow_mut();
                    let frame = &mut frames[index];
                    let arrived = (frame.delivery.take(), frame.corrupt());
                    frames.remove(index);
                    arrived
                };
                if let Some(delivery) = delivery {
                    delivery.arrive(self, corrupt);
                }
            }
        }
    }

    /// The frame reaches its NIC.
    fn inject(&self, index: u32) {
        // Ask the fault plane (if any) what happens to this message, before
        // any wire time, so seeded hooks see a deterministic call sequence.
        let hook = self.inner.fault.borrow().clone();
        let on_inject = {
            let mut frames = self.inner.frames.borrow_mut();
            let frame = &mut frames[index];
            frame.plan = hook.map(|h| Box::new(self.fault_plan(h.as_ref(), frame)));
            frame.notice.take_if(|_| frame.at_inject)
        };
        if let Some(n) = on_inject {
            n.tell(false);
        }
        self.enter_step(index);
    }

    /// The frame reaches the links of its current route step: note the
    /// queues it finds there, then queue for them.
    fn enter_step(&self, index: u32) {
        {
            let frames = self.inner.frames.borrow();
            let frame = &frames[index];
            for &l in &frame.route[frame.step as usize] {
                self.note_queue(l);
            }
        }
        self.acquire_stage(index);
    }

    /// Take what the frame's current stage holds and the frame does not hold
    /// yet — the links of a route step in order (TX before RX; pools are
    /// disjoint, so no deadlock), or the oversubscribed switch past the last
    /// step — keeping what it has while it queues behind the first busy one.
    /// With everything in hand the frame occupies the stage for its
    /// serialization time, and [`Topology::stage_over`] takes it from there.
    fn acquire_stage(&self, index: u32) {
        let inner = &*self.inner;
        let mut frames = inner.frames.borrow_mut();
        let frame = &mut frames[index];
        loop {
            let res = match frame.route.get(frame.step as usize) {
                Some(step) => step.get(frame.held as usize).map(|&l| &inner.links[l].res),
                None => inner.switch.as_ref().filter(|_| frame.held == 0),
            };
            let Some(res) = res else { break };
            if !res.try_permit() {
                drop(frames);
                // Granted, it resumes here (`Complete<Granted>`).
                return res.acquire_for(&self.inner, u64::from(index));
            }
            frame.held += 1;
        }

        let p = &inner.params;
        let wire_bytes = frame.payload_bytes + p.header_bytes;
        let hold = if (frame.step as usize) < frame.route.len() {
            let factor = frame
                .plan
                .as_ref()
                .and_then(|f| f.step_factor[frame.step as usize]);
            if frame.step == 0 {
                self.note_faults(frame, factor);
            }
            self.wire_time(wire_bytes, factor)
        } else {
            p.switch_bandwidth
                .expect("a switch stage exists only with a switch bandwidth")
                .transfer_time(wire_bytes)
        };
        frame.due = Due::StageOver;
        drop(frames);
        if hold.is_zero() {
            // Like a zero `delay`: no wait, no calendar entry.
            self.stage_over(index);
        } else {
            self.wait(hold, index);
        }
    }

    /// The frame has occupied its stage for the serialization time. Do what
    /// follows from that first — count it on the links, tell the sender, put
    /// its next move on the calendar — and release the links **last**: a
    /// frame queued behind one is granted it inside the release and acts at
    /// once, where the task it used to be acted only when next polled, after
    /// all of this.
    fn stage_over(&self, index: u32) {
        let p = self.inner.params;
        let mut frames = self.inner.frames.borrow_mut();
        let frame = &mut frames[index];
        let (crossed, held) = (
            frame.step as usize,
            std::mem::take(&mut frame.held) as usize,
        );
        let route = Rc::clone(&frame.route);
        let wire_bytes = frame.payload_bytes + p.header_bytes;
        let dropped = frame.plan.as_ref().and_then(|f| f.drop_step) == Some(crossed);
        let to_switch = crossed == 0 && self.inner.switch.is_some() && !dropped;
        frame.step += 1;

        if dropped {
            // The frame occupied this step's wires but is lost in the
            // fabric: a sender has paid serialization, the receiver never
            // learns of it.
            self.lose(&route[crossed], wire_bytes, frame);
            let on_wire = frame.notice.take();
            frames.remove(index);
            drop(frames);
            if let Some(n) = on_wire {
                n.tell(false);
            }
        } else if to_switch {
            // Cut-through single hop on an oversubscribed switch: one shared
            // store-and-forward stage before the frame counts as delivered
            // (and before the sender's part is over).
            drop(frames);
            self.acquire_stage(index);
        } else {
            // (The switch stage stands for the one route step it follows.)
            for &l in &route[crossed.min(route.len() - 1)] {
                self.account(l, wire_bytes);
            }
            frame.due = if (frame.step as usize) < route.len() {
                Due::EnterStep
            } else {
                Due::Arrive
            };
            let corrupt = frame.corrupt();
            // The sender's part ends with the first stage.
            let on_wire = frame.notice.take();
            drop(frames);
            if let Some(n) = on_wire {
                n.tell(corrupt);
            }
            self.wait(p.latency, index);
        }
        match route.get(crossed) {
            Some(links) => {
                for &l in &links[..held] {
                    self.inner.links[l].res.release_permit();
                }
            }
            None => {
                let switch = self.inner.switch.as_ref();
                switch
                    .expect("the stage past the route is the switch's")
                    .release_permit();
            }
        }
    }

    /// Count and trace what the fault plane did to a frame about to
    /// serialize on its first step.
    fn note_faults(&self, frame: &Frame, factor: Option<f64>) {
        let Some(plan) = &frame.plan else { return };
        let (tracer, handle) = (self.inner.tracer.borrow(), &self.inner.handle);
        if plan.corrupt {
            bump(&self.inner.corrupted_msgs);
            tracer.record(handle, "fault.corrupt", || frame.to_string());
        }
        if plan.degraded {
            bump(&self.inner.degraded_msgs);
            tracer.record(handle, "fault.degrade", || {
                format!("{frame} x{:.2}", factor.unwrap_or(1.0))
            });
        }
    }

    /// Fold the message verdict and the per-link verdicts of every link on
    /// `route` (offered in route order) into one plan for the frame.
    fn fault_plan(&self, hook: &dyn FaultHook, frame: &Frame) -> FaultPlan {
        let route = &frame.route;
        let now = self.inner.handle.now();
        let verdict = hook.on_transmit(frame.src.0, frame.dst.0, frame.payload_bytes, now);
        let mut plan = FaultPlan {
            drop_step: (verdict == LinkFault::Drop).then_some(0),
            corrupt: verdict == LinkFault::Corrupt,
            degraded: matches!(verdict, LinkFault::Degrade(_)),
            step_factor: vec![
                match verdict {
                    LinkFault::Degrade(f) => Some(f.max(0.0)),
                    _ => None,
                };
                route.len()
            ],
        };
        for (si, step) in route.iter().enumerate() {
            for &l in step {
                match hook.on_link(l, now) {
                    LinkFault::Deliver => {}
                    LinkFault::Drop => {
                        if plan.drop_step.is_none_or(|d| si < d) {
                            plan.drop_step = Some(si);
                        }
                    }
                    LinkFault::Degrade(f) => {
                        plan.degraded = true;
                        let factor = &mut plan.step_factor[si];
                        *factor = Some(factor.unwrap_or(1.0) * f.max(0.0));
                    }
                    LinkFault::Corrupt => plan.corrupt = true,
                }
            }
        }
        plan
    }

    /// Time one frame of `wire_bytes` holds a step's links. The healthy
    /// times of recent sizes are remembered, one per size modulo 8: a run
    /// sends few distinct sizes and the low bits tell them apart (97–99.9 %
    /// of lookups hit on the benchmark's workloads, EXPERIMENTS A31).
    fn wire_time(&self, wire_bytes: u64, degrade: Option<f64>) -> SimDuration {
        let p = &self.inner.params;
        let memo = &self.inner.wire_times[(wire_bytes % 8) as usize];
        let serialize = match memo.get() {
            (bytes, time) if bytes == wire_bytes => time,
            _ => {
                let time = p.per_message + p.bandwidth.transfer_time(wire_bytes);
                memo.set((wire_bytes, time));
                time
            }
        };
        match degrade {
            Some(factor) => SimDuration::from_secs_f64(serialize.as_secs_f64() * factor),
            None => serialize,
        }
    }

    /// The frame dies after occupying `step`: injection wires count it as
    /// sent, ejection wires never see it delivered.
    fn lose(&self, step: &[usize], wire_bytes: u64, frame: &Frame) {
        for &l in step {
            if self.inner.links[l].class != LinkClass::HostRx {
                self.account(l, wire_bytes);
            }
        }
        bump(&self.inner.dropped_msgs);
        let tracer = self.inner.tracer.borrow();
        tracer.record(&self.inner.handle, "fault.drop", || frame.to_string());
    }
}

/// A frame's calendar entry has come due.
impl Complete<()> for TopologyInner {
    fn complete(self: Rc<Self>, index: u64, (): ()) {
        Topology { inner: self }.resume(index as u32);
    }
}

/// A frame is granted the link it queued for.
impl Complete<Granted> for TopologyInner {
    fn complete(self: Rc<Self>, index: u64, _: Granted) {
        self.frames.borrow_mut()[index as u32].held += 1;
        Topology { inner: self }.acquire_stage(index as u32);
    }
}

/// Run `f` after `wait` of virtual time, as a calendar call — or here and
/// now if `wait` is zero: like a zero [`SimHandle::delay`], a zero wait is no
/// wait and no calendar entry.
fn after(handle: &SimHandle, wait: SimDuration, f: impl FnOnce() + 'static) {
    if wait.is_zero() {
        f();
    } else {
        handle.call_at(handle.now() + wait, f);
    }
}

/// What a frame's pending calendar entry does.
#[derive(Clone, Copy)]
enum Due {
    /// The sender's lead time ends: the frame reaches its NIC.
    Inject,
    /// Serialization on the current stage ends.
    StageOver,
    /// Propagation to the next hop ends: queue for its links.
    EnterStep,
    /// Propagation to the destination ends.
    Arrive,
}

/// What a frame carries besides its size ([`Topology::transmit_then`]).
pub(crate) struct Cargo {
    /// Told when the frame reaches its NIC (`at_inject`), or else when its
    /// first hop is serialized, with the corruption verdict.
    pub(crate) notice: Option<Notice>,
    pub(crate) at_inject: bool,
    /// Carried out when its last byte arrives.
    pub(crate) delivery: Delivery,
}

/// A frame in the fabric: a record in its topology's slab from the send to
/// the arrival, advanced by [`Topology::acquire_stage`] and
/// [`Topology::stage_over`]. At every moment exactly one thing names its
/// index: a pending calendar entry (awaiting injection, serializing, or
/// propagating) or the queue of the link it waits for.
struct Frame {
    src: NodeId,
    dst: NodeId,
    payload_bytes: u64,
    route: SharedRoute,
    /// `None` on the healthy fabric, and until injection.
    plan: Option<Box<FaultPlan>>,
    /// The route step being crossed; `route.len()` is the oversubscribed
    /// switch's stage.
    step: u32,
    /// How many of the current stage's links (in order) the frame holds.
    held: u32,
    due: Due,
    /// The cargo ([`Cargo`]), each part taken when it is due.
    notice: Option<Notice>,
    at_inject: bool,
    delivery: Option<Delivery>,
}

impl Frame {
    fn corrupt(&self) -> bool {
        self.plan.as_ref().is_some_and(|f| f.corrupt)
    }
}

/// As the fault trace names a frame.
impl std::fmt::Display for Frame {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}->{} {}B", self.src, self.dst, self.payload_bytes)
    }
}

/// What the fault plane does to one frame. Built only while a [`FaultHook`]
/// is installed: the healthy wire path allocates nothing.
struct FaultPlan {
    /// The step after which the frame dies, if any.
    drop_step: Option<usize>,
    /// The payload is damaged in flight (timing untouched).
    corrupt: bool,
    /// Some step serializes slower than the healthy wire.
    degraded: bool,
    /// Each step's serialization stretch.
    step_factor: Vec<Option<f64>>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    fn params_1gbps() -> FabricParams {
        FabricParams {
            latency: SimDuration::from_micros(2),
            bandwidth: Bandwidth::from_bytes_per_sec(1e9),
            per_message: SimDuration::ZERO,
            eager_threshold: 12 * 1024,
            o_send: SimDuration::ZERO,
            o_recv: SimDuration::ZERO,
            header_bytes: 0,
            switch_bandwidth: None,
        }
    }

    #[test]
    fn transmit_charges_serialization_then_latency() {
        let mut sim = Sim::new();
        let h = sim.handle();
        let topo = Topology::new(&h, 2, params_1gbps());
        let times = Rc::new(RefCell::new((0u64, 0u64)));
        {
            let topo = topo.clone();
            let h = sim.handle();
            let times = Rc::clone(&times);
            sim.spawn("send", async move {
                let arrived = topo.transmit(NodeId(0), NodeId(1), 10_000).await;
                times.borrow_mut().0 = h.now().as_nanos(); // serialization done
                arrived.wait().await;
                times.borrow_mut().1 = h.now().as_nanos(); // arrival
            });
        }
        sim.run();
        let (ser, arr) = *times.borrow();
        assert_eq!(ser, 10_000); // 10 KB at 1 GB/s = 10 us
        assert_eq!(arr, 12_000); // + 2 us latency
    }

    #[test]
    fn shared_tx_wire_serializes_two_destinations() {
        let mut sim = Sim::new();
        let h = sim.handle();
        let topo = Topology::new(&h, 3, params_1gbps());
        let arrivals = Rc::new(RefCell::new(Vec::new()));
        for dst in [1usize, 2] {
            let topo = topo.clone();
            let h = sim.handle();
            let arrivals = Rc::clone(&arrivals);
            sim.spawn("send", async move {
                let arrived = topo.transmit(NodeId(0), NodeId(dst), 10_000).await;
                arrived.wait().await;
                arrivals.borrow_mut().push((dst, h.now().as_nanos()));
            });
        }
        sim.run();
        // Both messages leave node 0: second serializes after the first.
        assert_eq!(*arrivals.borrow(), vec![(1, 12_000), (2, 22_000)]);
    }

    #[test]
    fn distinct_paths_do_not_contend() {
        let mut sim = Sim::new();
        let h = sim.handle();
        let topo = Topology::new(&h, 4, params_1gbps());
        let arrivals = Rc::new(RefCell::new(Vec::new()));
        for (src, dst) in [(0usize, 1usize), (2, 3)] {
            let topo = topo.clone();
            let h = sim.handle();
            let arrivals = Rc::clone(&arrivals);
            sim.spawn("send", async move {
                let arrived = topo.transmit(NodeId(src), NodeId(dst), 10_000).await;
                arrived.wait().await;
                arrivals.borrow_mut().push(h.now().as_nanos());
            });
        }
        sim.run();
        assert_eq!(*arrivals.borrow(), vec![12_000, 12_000]);
    }

    #[test]
    fn rx_wire_serializes_two_senders() {
        let mut sim = Sim::new();
        let h = sim.handle();
        let topo = Topology::new(&h, 3, params_1gbps());
        let arrivals = Rc::new(RefCell::new(Vec::new()));
        for src in [0usize, 1] {
            let topo = topo.clone();
            let h = sim.handle();
            let arrivals = Rc::clone(&arrivals);
            sim.spawn("send", async move {
                let arrived = topo.transmit(NodeId(src), NodeId(2), 10_000).await;
                arrived.wait().await;
                arrivals.borrow_mut().push((src, h.now().as_nanos()));
            });
        }
        sim.run();
        assert_eq!(*arrivals.borrow(), vec![(0, 12_000), (1, 22_000)]);
    }

    #[test]
    fn nic_counters_accumulate() {
        let mut sim = Sim::new();
        let h = sim.handle();
        let mut p = params_1gbps();
        p.header_bytes = 64;
        let topo = Topology::new(&h, 2, p);
        {
            let topo = topo.clone();
            sim.spawn("send", async move {
                topo.transmit(NodeId(0), NodeId(1), 1000).await;
                topo.transmit(NodeId(0), NodeId(1), 2000).await;
            });
        }
        sim.run();
        let tx = topo.nic_stats(NodeId(0));
        let rx = topo.nic_stats(NodeId(1));
        assert_eq!(tx.tx_bytes, 3000 + 128);
        assert_eq!(tx.tx_msgs, 2);
        assert_eq!(rx.rx_bytes, 3000 + 128);
        assert_eq!(rx.rx_msgs, 2);
        assert_eq!(rx.tx_msgs, 0);
    }

    #[test]
    fn loopback_skips_nic() {
        let mut sim = Sim::new();
        let h = sim.handle();
        let topo = Topology::new(&h, 1, params_1gbps());
        {
            let topo = topo.clone();
            sim.spawn("self", async move {
                let arrived = topo.transmit(NodeId(0), NodeId(0), 4096).await;
                arrived.wait().await;
            });
        }
        sim.run();
        assert_eq!(topo.nic_stats(NodeId(0)), NicStats::default());
    }
}

#[cfg(test)]
mod switch_tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    #[test]
    fn oversubscribed_switch_saturates_aggregate_throughput() {
        // Four disjoint pairs each move 1 MB. Non-blocking: all finish in
        // ~1 ms (1 GB/s links). With a 2 GB/s switch the aggregate 4 MB
        // takes ≥ 2 ms.
        let run = |switch: Option<Bandwidth>| {
            let mut sim = Sim::new();
            let h = sim.handle();
            let params = FabricParams {
                latency: SimDuration::ZERO,
                bandwidth: Bandwidth::from_bytes_per_sec(1e9),
                per_message: SimDuration::ZERO,
                eager_threshold: 12 * 1024,
                o_send: SimDuration::ZERO,
                o_recv: SimDuration::ZERO,
                header_bytes: 0,
                switch_bandwidth: switch,
            };
            let topo = Topology::new(&h, 8, params);
            let end = Rc::new(RefCell::new(SimTime::ZERO));
            for pair in 0..4usize {
                let topo = topo.clone();
                let h = sim.handle();
                let end = Rc::clone(&end);
                sim.spawn("xfer", async move {
                    let arrived = topo
                        .transmit(NodeId(2 * pair), NodeId(2 * pair + 1), 1_000_000)
                        .await;
                    arrived.wait().await;
                    let mut e = end.borrow_mut();
                    if h.now() > *e {
                        *e = h.now();
                    }
                });
            }
            sim.run();
            let t = *end.borrow();
            t.as_nanos()
        };
        let nonblocking = run(None);
        let oversub = run(Some(Bandwidth::from_bytes_per_sec(2e9)));
        assert_eq!(nonblocking, 1_000_000, "non-blocking: all concurrent");
        assert!(
            oversub >= 2_000_000,
            "oversubscribed switch should cap aggregate: {oversub}ns"
        );
    }

    #[test]
    fn faulty_link_drops_and_degrades() {
        use dacc_sim::fault::{FaultHook, LinkFault};
        use std::sync::atomic::{AtomicUsize, Ordering};

        /// Drops the first message, degrades the second 4x, then delivers.
        struct Script(AtomicUsize);
        impl FaultHook for Script {
            fn on_transmit(&self, _: usize, _: usize, _: u64, _: SimTime) -> LinkFault {
                match self.0.fetch_add(1, Ordering::Relaxed) {
                    0 => LinkFault::Drop,
                    1 => LinkFault::Degrade(4.0),
                    _ => LinkFault::Deliver,
                }
            }
        }

        let mut sim = Sim::new();
        let h = sim.handle();
        let params = FabricParams {
            latency: SimDuration::ZERO,
            bandwidth: Bandwidth::from_bytes_per_sec(1e9),
            per_message: SimDuration::ZERO,
            eager_threshold: 12 * 1024,
            o_send: SimDuration::ZERO,
            o_recv: SimDuration::ZERO,
            header_bytes: 0,
            switch_bandwidth: None,
        };
        let topo = Topology::new(&h, 2, params);
        let tracer = Tracer::new(64);
        topo.set_tracer(tracer.clone());
        topo.set_fault_hook(Some(Arc::new(Script(AtomicUsize::new(0)))));
        let out = {
            let topo = topo.clone();
            let h = sim.handle();
            sim.spawn("xfer", async move {
                // Dropped: serialization still charged, arrival never fires.
                let lost = topo.transmit(NodeId(0), NodeId(1), 1_000_000).await;
                let t_drop = h.now().as_nanos();
                // Degraded 4x: 1 MB at 1 GB/s = 1 ms -> 4 ms.
                let slow = topo.transmit(NodeId(0), NodeId(1), 1_000_000).await;
                slow.wait().await;
                let t_degrade = h.now().as_nanos();
                // Healthy again.
                let ok = topo.transmit(NodeId(0), NodeId(1), 1_000_000).await;
                ok.wait().await;
                (lost.is_set(), t_drop, t_degrade)
            })
        };
        sim.run();
        let (lost_arrived, t_drop, t_degrade) = out.try_take().unwrap();
        assert!(!lost_arrived, "dropped message must never arrive");
        assert_eq!(t_drop, 1_000_000, "drop still charges serialization");
        assert_eq!(t_degrade, 5_000_000, "1 ms drop + 4 ms degraded");
        assert_eq!(topo.dropped_messages(), 1);
        assert_eq!(topo.degraded_messages(), 1);
        assert_eq!(tracer.events_in("fault.drop").len(), 1);
        assert_eq!(tracer.events_in("fault.degrade").len(), 1);
        // Dropped frames count as sent but never as received.
        assert_eq!(topo.nic_stats(NodeId(0)).tx_msgs, 3);
        assert_eq!(topo.nic_stats(NodeId(1)).rx_msgs, 2);
    }

    #[test]
    fn corrupt_verdict_keeps_timing_and_counts() {
        use dacc_sim::fault::{FaultHook, LinkFault};

        struct CorruptAll;
        impl FaultHook for CorruptAll {
            fn on_transmit(&self, _: usize, _: usize, _: u64, _: SimTime) -> LinkFault {
                LinkFault::Corrupt
            }
        }

        let mut sim = Sim::new();
        let h = sim.handle();
        let params = FabricParams {
            latency: SimDuration::ZERO,
            bandwidth: Bandwidth::from_bytes_per_sec(1e9),
            per_message: SimDuration::ZERO,
            eager_threshold: 12 * 1024,
            o_send: SimDuration::ZERO,
            o_recv: SimDuration::ZERO,
            header_bytes: 0,
            switch_bandwidth: None,
        };
        let topo = Topology::new(&h, 2, params);
        let tracer = Tracer::new(64);
        topo.set_tracer(tracer.clone());
        topo.set_fault_hook(Some(Arc::new(CorruptAll)));
        let out = {
            let topo = topo.clone();
            let h = sim.handle();
            sim.spawn("xfer", async move {
                let (arrived, corrupt) =
                    topo.transmit_checked(NodeId(0), NodeId(1), 1_000_000).await;
                arrived.wait().await;
                (corrupt, h.now().as_nanos())
            })
        };
        sim.run();
        let (corrupt, t) = out.try_take().unwrap();
        assert!(corrupt, "verdict must be surfaced to the caller");
        assert_eq!(t, 1_000_000, "corruption must not change timing");
        assert_eq!(topo.corrupted_messages(), 1);
        assert_eq!(tracer.events_in("fault.corrupt").len(), 1);
        // Corrupted frames still count as delivered on both NICs.
        assert_eq!(topo.nic_stats(NodeId(0)).tx_msgs, 1);
        assert_eq!(topo.nic_stats(NodeId(1)).rx_msgs, 1);
    }

    #[test]
    fn unloaded_switch_adds_only_store_and_forward() {
        let mut sim = Sim::new();
        let h = sim.handle();
        let params = FabricParams {
            latency: SimDuration::ZERO,
            bandwidth: Bandwidth::from_bytes_per_sec(1e9),
            per_message: SimDuration::ZERO,
            eager_threshold: 12 * 1024,
            o_send: SimDuration::ZERO,
            o_recv: SimDuration::ZERO,
            header_bytes: 0,
            switch_bandwidth: Some(Bandwidth::from_bytes_per_sec(4e9)),
        };
        let topo = Topology::new(&h, 2, params);
        sim.spawn("xfer", async move {
            let arrived = topo.transmit(NodeId(0), NodeId(1), 1_000_000).await;
            arrived.wait().await;
        });
        let out = sim.run();
        // 1 ms link serialization + 0.25 ms switch hop.
        assert_eq!(out.time.as_nanos(), 1_250_000);
    }
}

#[cfg(test)]
mod model_tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    fn params_1gbps() -> FabricParams {
        FabricParams {
            latency: SimDuration::from_micros(2),
            bandwidth: Bandwidth::from_bytes_per_sec(1e9),
            per_message: SimDuration::ZERO,
            eager_threshold: 12 * 1024,
            o_send: SimDuration::ZERO,
            o_recv: SimDuration::ZERO,
            header_bytes: 0,
            switch_bandwidth: None,
        }
    }

    #[test]
    fn spec_parsing_round_trips() {
        assert_eq!(
            TopologySpec::parse("switch"),
            Some(TopologySpec::SingleSwitch)
        );
        assert_eq!(
            TopologySpec::parse("FatTree"),
            Some(TopologySpec::FatTree { radix: 4 })
        );
        assert_eq!(
            TopologySpec::parse("fattree:8"),
            Some(TopologySpec::FatTree { radix: 8 })
        );
        assert_eq!(
            TopologySpec::parse("dragonfly"),
            Some(TopologySpec::Dragonfly { groups: 3 })
        );
        assert_eq!(
            TopologySpec::parse("dragonfly:5"),
            Some(TopologySpec::Dragonfly { groups: 5 })
        );
        assert_eq!(TopologySpec::parse("torus"), None);
        assert_eq!(TopologySpec::parse("fattree:0"), None);
        for spec in [
            TopologySpec::SingleSwitch,
            TopologySpec::FatTree { radix: 6 },
            TopologySpec::Dragonfly { groups: 2 },
        ] {
            assert_eq!(TopologySpec::parse(&spec.to_string()), Some(spec));
        }
    }

    #[test]
    fn single_switch_routes_are_one_cut_through_step() {
        let m = SingleSwitchModel { nodes: 5 };
        assert_eq!(m.route(1, 4), vec![vec![2, 9]]);
        assert_eq!(m.hops(1, 4), 1);
        assert_eq!(m.hops(2, 2), 0);
        assert_eq!(m.link_count(), 10);
    }

    #[test]
    fn fat_tree_routes_split_by_edge() {
        // radix 2, 6 hosts -> edges {0,1},{2,3},{4,5}.
        let m = FatTreeModel::new(6, 2);
        assert_eq!(m.edges(), 3);
        assert_eq!(m.link_count(), 12 + 6);
        // Same edge: tx then rx, store-and-forward.
        assert_eq!(m.route(0, 1), vec![vec![0], vec![3]]);
        assert_eq!(m.hops(0, 1), 2);
        // Cross edge: tx, up(e0), down(e2), rx.
        assert_eq!(m.route(1, 4), vec![vec![2], vec![12], vec![17], vec![9]]);
        assert_eq!(m.hops(1, 4), 4);
        // A one-edge tree has no core links.
        assert_eq!(FatTreeModel::new(3, 4).link_count(), 6);
    }

    #[test]
    fn dragonfly_routes_split_by_group() {
        // 6 hosts, 3 groups -> {0,1},{2,3},{4,5}; 6 global links.
        let m = DragonflyModel::new(6, 3);
        assert_eq!(m.per_group(), 2);
        assert_eq!(m.link_count(), 12 + 6);
        assert_eq!(m.route(0, 1), vec![vec![0], vec![3]]);
        // g0 -> g2 rides global link base + 0*(3-1) + 1.
        assert_eq!(m.route(1, 4), vec![vec![2], vec![13], vec![9]]);
        assert_eq!(m.hops(1, 4), 3);
        // Distinct ordered pairs use distinct global links.
        let mut globals = std::collections::HashSet::new();
        for a in 0..3 {
            for b in 0..3 {
                if a != b {
                    assert!(globals.insert(m.global_link(a, b)));
                }
            }
        }
    }

    #[test]
    fn multi_hop_charges_per_step_serialization_and_latency() {
        // Fat tree, cross-edge: 4 store-and-forward steps. 10 KB at 1 GB/s
        // = 10 us per step; sender resumes after step 1; arrival after
        // 4 * (10 us serialization) + 4 * (2 us latency) = 48 us.
        let mut sim = Sim::new();
        let h = sim.handle();
        let topo = Topology::with_spec(&h, 4, params_1gbps(), TopologySpec::FatTree { radix: 2 });
        let times = Rc::new(RefCell::new((0u64, 0u64)));
        {
            let topo = topo.clone();
            let h = sim.handle();
            let times = Rc::clone(&times);
            sim.spawn("send", async move {
                let arrived = topo.transmit(NodeId(0), NodeId(2), 10_000).await;
                times.borrow_mut().0 = h.now().as_nanos();
                arrived.wait().await;
                times.borrow_mut().1 = h.now().as_nanos();
            });
        }
        sim.run();
        let (ser, arr) = *times.borrow();
        assert_eq!(ser, 10_000, "sender resumes after first-hop serialization");
        assert_eq!(arr, 48_000, "4 hops x (10 us wire + 2 us propagation)");
    }

    #[test]
    fn shared_uplink_is_the_congestion_point() {
        // Two hosts on edge 0 each send cross-edge concurrently: their TX
        // wires are distinct, but both frames serialize on edge 0's single
        // uplink, so the second arrival lags the first by one wire time.
        let mut sim = Sim::new();
        let h = sim.handle();
        let topo = Topology::with_spec(&h, 4, params_1gbps(), TopologySpec::FatTree { radix: 2 });
        let arrivals = Rc::new(RefCell::new(Vec::new()));
        for (src, dst) in [(0usize, 2usize), (1, 3)] {
            let topo = topo.clone();
            let h = sim.handle();
            let arrivals = Rc::clone(&arrivals);
            sim.spawn("send", async move {
                let arrived = topo.transmit(NodeId(src), NodeId(dst), 10_000).await;
                arrived.wait().await;
                arrivals.borrow_mut().push((src, h.now().as_nanos()));
            });
        }
        sim.run();
        let got = arrivals.borrow().clone();
        assert_eq!(got[0], (0, 48_000));
        assert_eq!(got[1].0, 1);
        assert_eq!(got[1].1, 58_000, "second frame queues on the shared uplink");
        // The uplink saw both frames and a queue formed behind it.
        let stats = topo.link_stats();
        let up: Vec<_> = stats.iter().filter(|s| s.class == LinkClass::Up).collect();
        assert_eq!(up.iter().map(|s| s.msgs).sum::<u64>(), 2);
        assert!(
            up.iter().any(|s| s.peak_queue >= 1),
            "queue observed on uplink"
        );
    }

    #[test]
    fn per_link_byte_accounting_conserves_message_size() {
        // Every link on the route records exactly wire_bytes once.
        let mut sim = Sim::new();
        let h = sim.handle();
        let mut p = params_1gbps();
        p.header_bytes = 64;
        let topo = Topology::with_spec(&h, 6, p, TopologySpec::Dragonfly { groups: 3 });
        {
            let topo = topo.clone();
            sim.spawn("send", async move {
                let a = topo.transmit(NodeId(1), NodeId(4), 1000).await;
                a.wait().await;
            });
        }
        sim.run();
        let route = topo.route_of(NodeId(1), NodeId(4));
        let stats = topo.link_stats();
        for step in &route {
            for &l in step {
                assert_eq!(stats[l].bytes, 1064, "link {} ({})", l, stats[l].name);
                assert_eq!(stats[l].msgs, 1);
            }
        }
        let on_route: std::collections::HashSet<usize> = route.iter().flatten().copied().collect();
        for (l, s) in stats.iter().enumerate() {
            if !on_route.contains(&l) {
                assert_eq!(s.bytes, 0, "off-route link {} must stay idle", s.name);
            }
        }
        // NIC view is unchanged by the model: src tx == dst rx == wire bytes.
        assert_eq!(topo.nic_stats(NodeId(1)).tx_bytes, 1064);
        assert_eq!(topo.nic_stats(NodeId(4)).rx_bytes, 1064);
    }

    #[test]
    fn per_link_faults_cut_and_slow_individual_links() {
        use dacc_sim::fault::{FaultHook, LinkFault};

        // Cuts dragonfly global link 13 (g0 -> g2) and slows nothing else.
        struct CutGlobal;
        impl FaultHook for CutGlobal {
            fn on_link(&self, link: usize, _: SimTime) -> LinkFault {
                if link == 13 {
                    LinkFault::Drop
                } else {
                    LinkFault::Deliver
                }
            }
        }

        let mut sim = Sim::new();
        let h = sim.handle();
        let topo =
            Topology::with_spec(&h, 6, params_1gbps(), TopologySpec::Dragonfly { groups: 3 });
        topo.set_fault_hook(Some(Arc::new(CutGlobal)));
        let out = {
            let topo = topo.clone();
            sim.spawn("xfer", async move {
                // Inter-group g0 -> g2 rides the cut link: never arrives.
                let cut = topo.transmit(NodeId(1), NodeId(4), 10_000).await;
                // Intra-group traffic avoids it: arrives fine.
                let ok = topo.transmit(NodeId(1), NodeId(0), 10_000).await;
                ok.wait().await;
                cut
            })
        };
        sim.run();
        let cut = out.try_take().unwrap();
        assert!(!cut.is_set(), "frame died on the cut global link");
        assert_eq!(topo.dropped_messages(), 1);
        // The frame left node 1's TX wire but never reached node 4's RX.
        assert_eq!(topo.nic_stats(NodeId(1)).tx_msgs, 2);
        assert_eq!(topo.nic_stats(NodeId(4)).rx_msgs, 0);
        assert_eq!(topo.nic_stats(NodeId(0)).rx_msgs, 1);
    }

    #[test]
    fn hop_matrix_matches_model() {
        let mut sim = Sim::new();
        let _ = &mut sim;
        let h = sim.handle();
        let topo = Topology::with_spec(&h, 4, params_1gbps(), TopologySpec::FatTree { radix: 2 });
        let m = topo.hop_matrix();
        assert_eq!(m[0][0], 0);
        assert_eq!(m[0][1], 2, "same edge: two store-and-forward steps");
        assert_eq!(m[0][2], 4, "cross edge: four steps");
        assert_eq!(m[2][1], 4);
        assert_eq!(topo.hops(NodeId(3), NodeId(2)), 2);
    }
}
