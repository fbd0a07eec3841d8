//! The network: owns every node and link, runs the event loop, and records
//! flow completions.
//!
//! Central-dispatch design: a single `Event` enum is matched in
//! [`Network::step_before`]; there is no shared mutable state between
//! components, so runs are deterministic and the borrow checker stays
//! happy without `Rc<RefCell>`.
//!
//! # Canonical event tags
//!
//! Events are ordered by `(time, tag)` where the tag is **content-derived**
//! rather than a global push counter: an event pushed while node `g`'s
//! event was being processed gets `tag = (g + 1) << 40 | k`, with `k` that
//! node's private push counter. Pushes outside any node's event (topology
//! setup, fault application) share the reserved base `0` and one setup
//! counter, and so do the flows [`Network::schedule_flow`] lists and the
//! fault plan's entries, which wait outside the queue. Because a node's
//! tag sequence depends only on the events *that node* processes, the
//! global `(time, tag)` order is identical no matter how the network is
//! partitioned into shards — this is the determinism contract the sharded
//! engine (see [`crate::shard`] and `CONCURRENCY.md`) is built on.
//!
//! A tag that has been drawn need not be pushed at once, or at all. Every
//! transmission draws its `TxDone` tag and then its `Arrive` tag, in that
//! order, whether or not the `TxDone` event is queued: a port with nothing
//! waiting behind the packet on the wire only remembers the `(time, tag)`
//! key and queues the event later — at that same key — if a packet turns
//! up before the key has passed, and never otherwise (see
//! `Network::kick`). The per-node sequence stays canonical because it
//! counts *draws*, which depend only on the transmissions the node
//! starts; whether a reserved key is ever pushed decides how many events
//! pop, not the key of any event that does.

use crate::agent::{Action, Agent, Ctx, FlowCmd, FlowOutcome, FlowRecord, FlowState};
use crate::arrival::Arrivals;
use crate::cell::CellSlab;
use crate::fault::{FaultAction, FaultPlan};
use crate::ids::{FlowId, NodeId};
use crate::node::{Node, NodeKind};
use crate::port::{EgressPort, PortConfig, PortSched, PortStats, WireFree};
use ecnsharp_sim::supervise::{MemBreach, MemComponent, ProgressGuard, SimError, Supervision};
use ecnsharp_sim::{hash_mix, DetMap, Duration, EventQueue, Rate, Rng, SimTime, TimerToken};
#[cfg(feature = "telemetry")]
use ecnsharp_telemetry::{
    AlphaUpdated, CwndUpdated, DropReason, FlowCompleted, LinkStateChanged, Meta, PacketDropped,
    RtoFired, TransportEvent,
};
use ecnsharp_telemetry::{NoopSubscriber, Subscriber};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Bit position splitting a canonical tag into `(pusher + 1, k)`. 24 bits
/// of pusher (16M nodes) over 40 bits of per-node counter (1T pushes per
/// node) — both far beyond any simulated fabric.
pub(crate) const TAG_SHIFT: u32 = 40;

/// `cur_node` sentinel: pushes not attributable to a node's event
/// (topology setup, `schedule_flow`, fault application) draw tags from the
/// shared setup counter under pusher base `0`.
pub(crate) const SETUP_CTX: usize = usize::MAX;

/// Aggregate engine counters of one run, cheap enough to maintain
/// unconditionally and only assembled when asked for — reading them cannot
/// perturb the simulation (asserted by the determinism regression test in
/// `ecnsharp-experiments`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PerfCounters {
    /// Events scheduled into the queue over the run.
    pub events_pushed: u64,
    /// Events popped (processed) over the run.
    pub events_popped: u64,
    /// Peak number of simultaneously pending events.
    pub peak_pending: u64,
    /// Packets handed to a wire, summed over every port (hop-counted: one
    /// packet crossing three links counts three times).
    pub packets_forwarded: u64,
    /// CE marks applied, summed over every port.
    pub ce_marks: u64,
    /// Packets dropped (tail, AQM, wire loss), summed over every port.
    pub drops: u64,
    /// Cancellable timer arms (including re-arms) on the engine's wheel.
    pub timers_armed: u64,
    /// Live timers explicitly cancelled before firing.
    pub timers_cancelled: u64,
    /// Timers that reached their deadline and were delivered.
    pub timers_fired: u64,
    /// Live timers displaced by a re-arm — stale events an
    /// epoch-filtering design would have pushed through the queue.
    pub timers_stale_suppressed: u64,
    /// Events scheduled beyond the 1 ms lane horizon, which wait on the
    /// event queue's timer wheel (see `QueuePerf::heap_spills`).
    pub heap_spills: u64,
    /// Flows aborted by their sender (graceful degradation after
    /// `max_rto_retries` consecutive timeouts).
    pub flows_failed: u64,
    /// Packets discarded at a switch because no up link led towards their
    /// destination (counted separately from port `drops`: these packets
    /// never entered an egress queue).
    pub no_route_drops: u64,
    /// Wire drops from the Gilbert–Elliott burst-loss process, summed over
    /// every port (subset of `drops`).
    pub burst_drops: u64,
    /// `TxDone` events queued: transmissions with a packet waiting behind
    /// them, at the start or by the time the wire was free again.
    pub tx_done_pushed: u64,
    /// Transmissions whose `TxDone` was never queued because nothing was
    /// waiting when the wire was free again — events an eager design
    /// would have pushed and popped for nothing. Together with
    /// `tx_done_pushed` this counts every transmission started, which is
    /// how [`Network::perf`] derives it: no engine keeps it as a counter.
    pub tx_done_elided: u64,
}

impl PerfCounters {
    /// Every counter by name, in declaration order: the one list that
    /// [`Self::absorb`] and [`Self::fields`] read, so a new counter is its
    /// field plus one line here.
    fn fields_mut(&mut self) -> impl Iterator<Item = (&'static str, &mut u64)> + '_ {
        [
            ("events_pushed", &mut self.events_pushed),
            ("events_popped", &mut self.events_popped),
            ("peak_pending", &mut self.peak_pending),
            ("packets_forwarded", &mut self.packets_forwarded),
            ("ce_marks", &mut self.ce_marks),
            ("drops", &mut self.drops),
            ("timers_armed", &mut self.timers_armed),
            ("timers_cancelled", &mut self.timers_cancelled),
            ("timers_fired", &mut self.timers_fired),
            ("timers_stale_suppressed", &mut self.timers_stale_suppressed),
            ("heap_spills", &mut self.heap_spills),
            ("flows_failed", &mut self.flows_failed),
            ("no_route_drops", &mut self.no_route_drops),
            ("burst_drops", &mut self.burst_drops),
            ("tx_done_pushed", &mut self.tx_done_pushed),
            ("tx_done_elided", &mut self.tx_done_elided),
        ]
        .into_iter()
    }

    /// Every counter as `(name, value)`, in declaration order.
    pub fn fields(&self) -> Vec<(&'static str, u64)> {
        let mut c = *self;
        c.fields_mut().map(|(name, v)| (name, *v)).collect()
    }

    /// Add `other` into `self`, field by field — `peak_pending` included,
    /// so folding shards sums their peaks.
    pub fn absorb(&mut self, other: &PerfCounters) {
        for ((_, v), (_, o)) in self.fields_mut().zip(other.fields()) {
            *v += o;
        }
    }
}

pub(crate) enum Event {
    /// Packet finished its wire journey and arrives at `node`.
    Arrive {
        node: NodeId,
        pkt: crate::packet::Packet,
    },
    /// `node`'s `port` finished serializing its current packet.
    TxDone { node: NodeId, port: usize },
    /// Agent timer.
    Timer { node: NodeId, key: u64 },
    /// A packet emerges from a host's artificial processing delay and
    /// enters the NIC queue.
    NicSend {
        node: NodeId,
        pkt: crate::packet::Packet,
    },
    /// Livelock drill: reschedules itself at the same instant forever so
    /// the [`ProgressGuard`] has a deterministic zero-delay cycle to trip
    /// on (see [`Network::inject_livelock_at`]). Attributed to `node` for
    /// tag purposes; carries no payload.
    LivelockDrill { node: NodeId },
}

/// A cross-shard packet arrival, buffered in the sending shard's outbox
/// during a window and delivered into the receiving shard's queue at the
/// window barrier. The tag was assigned by the sender, so delivery order
/// within the receiver is canonical regardless of mailbox append order.
pub(crate) struct OutMsg {
    /// Destination shard (the owner of `node`).
    pub(crate) shard: u32,
    /// Arrival time (≥ send-window end + lookahead by construction).
    pub(crate) at: SimTime,
    /// Canonical tag assigned by the sending shard.
    pub(crate) tag: u64,
    /// Receiving node.
    pub(crate) node: NodeId,
    /// The packet on the wire.
    pub(crate) pkt: crate::packet::Packet,
}

/// The simulated network, generic over an attached telemetry
/// [`Subscriber`]. The default [`NoopSubscriber`] has `ENABLED = false`,
/// so every emission site compiles away and `Network::new` behaves
/// exactly as before telemetry existed; [`Network::with_subscriber`]
/// attaches a live subscriber (statically dispatched — attaching a
/// different subscriber type monomorphises a separate event loop).
pub struct Network<S: Subscriber = NoopSubscriber> {
    /// Attached telemetry subscriber (zero-sized for the no-op).
    sub: S,
    /// Scratch buffer for transport events surfaced through [`Ctx`]
    /// (drained after every agent callback; reused across calls).
    #[cfg(feature = "telemetry")]
    scratch_events: Vec<TransportEvent>,
    pub(crate) nodes: Vec<Node>,
    /// Every packet queued in a FIFO port of this engine's nodes (see
    /// [`crate::cell`]).
    pub(crate) cells: CellSlab,
    pub(crate) events: EventQueue<Event>,
    /// Network seed: drives the ECMP salt and every port's fault dice.
    pub(crate) seed: u64,
    ecmp_salt: u64,
    /// Flows scheduled but not yet started, in start order; each steps
    /// in at its `(time, tag)` key, merged with the queue's events.
    pub(crate) arrivals: Arrivals,
    /// Flows started but not yet completed: flow → (cmd, start time).
    pub(crate) pending: BTreeMap<FlowId, (FlowCmd, SimTime)>,
    /// Live cancellable timers: `(node, key)` → wheel token plus the armed
    /// `(time, tag)` (the key under which the pending event is queued).
    /// A [`DetMap`] because this is re-hashed on every RTO re-arm (one per
    /// ACK): keyed lookup only — never iterate it.
    pub(crate) timer_tokens: DetMap<(NodeId, u64), (TimerToken, SimTime, u64)>,
    pub(crate) records: Vec<FlowRecord>,
    /// Flows scheduled whose record is still to come: what
    /// [`Self::reserve_records`] makes room for when a run starts, so the
    /// vector never grows by doubling in the middle of one.
    pub(crate) flows_to_record: usize,
    /// Provenance key of each record, aligned with `records`: `(finish,
    /// tag of the completing event, index among that event's records)`.
    /// This is the exact serial processing order, so the shard merge can
    /// reproduce it with a key-ordered merge — its only reader, so only
    /// shard engines (`owner.is_some()`) fill it; it stays empty on a
    /// serial network and on the parent of a sharded run.
    pub(crate) record_keys: Vec<(SimTime, u64, u32)>,
    scratch: Vec<Action>,
    pub(crate) steps: u64,
    /// Pending fault-plan events as `(at, tag, action)`, sorted by
    /// `(at, tag)`; `next_fault` is the cursor of the first unapplied one.
    /// Faults live outside the event queue so the sharded runner can use
    /// them as epoch boundaries, but they interleave with events at their
    /// exact `(time, tag)` position either way.
    pub(crate) fault_queue: Vec<(SimTime, u64, FaultAction)>,
    pub(crate) next_fault: usize,
    /// Has `compute_routes` run at least once? Link up/down transitions
    /// only trigger a route rebuild after the initial computation.
    pub(crate) routes_built: bool,
    /// Engine counters kept outside the queue and the ports, plus those a
    /// sharded run folded in from its shard engines; the port-sum fields
    /// stay zero here (see [`Self::perf`]).
    pub(crate) counters: PerfCounters,
    // ── sharding state (serial runs: identity values) ─────────────────
    /// Which shard this engine instance is (0 when serial).
    pub(crate) my_shard: u32,
    /// Global node → owning shard map; `None` when serial (everything
    /// local). Shared read-only across all shards of a run.
    pub(crate) owner: Option<Arc<Vec<u32>>>,
    /// Cross-shard arrivals produced in the current window.
    pub(crate) outbox: Vec<OutMsg>,
    /// Per-node canonical tag counters (`k` of `(g+1)<<40 | k`).
    pub(crate) tag_k: Vec<u64>,
    /// Shared setup/fault tag counter (pusher base 0).
    pub(crate) setup_k: u64,
    /// Node whose event is being processed ([`SETUP_CTX`] outside one).
    pub(crate) cur_node: usize,
    /// Tag of the step being applied, or of the last one applied when
    /// between steps — an event's or a fault's. Keys flow records, and with
    /// the clock it is the position [`Self::kick`] compares a port's
    /// reserved `TxDone` key against.
    pub(crate) cur_tag: u64,
    /// Records already pushed by the event being processed.
    rec_sub: u32,
    // ── run supervision ───────────────────────────────────────────────
    /// Watchdog/budget configuration (see [`Supervision`]). Applied to
    /// the queue and the packet cells by [`Network::set_supervision`].
    pub(crate) supervision: Supervision,
    /// `supervision` has at least one memory ceiling armed — gates the
    /// per-event breach poll so runs without a ceiling skip it.
    pub(crate) mem_armed: bool,
    /// First guard trip of the run, latched until the run loop reads it
    /// after the event that set it. Agent callbacks
    /// ([`Ctx::report_mem_breach`]) and the per-event breach poll both
    /// land here.
    pub(crate) tripped: Option<SimError>,
}

impl Network {
    /// Create an empty network with a deterministic seed (drives ECMP salt
    /// and fault-injection dice). Telemetry is detached: the
    /// [`NoopSubscriber`]'s emission sites fold away at compile time.
    pub fn new(seed: u64) -> Self {
        Self::with_subscriber(seed, NoopSubscriber)
    }
}

impl<S: Subscriber> Network<S> {
    /// Like [`Network::new`], with `sub` attached to every emission site.
    /// Attaching (or not) never perturbs the simulation: two runs with the
    /// same seed produce identical schedules regardless of the subscriber
    /// (asserted by the determinism tests in `ecnsharp-experiments`).
    pub fn with_subscriber(seed: u64, sub: S) -> Self {
        let mut rng = Rng::seed_from_u64(seed);
        let ecmp_salt = rng.next_u64();
        Network {
            sub,
            #[cfg(feature = "telemetry")]
            scratch_events: Vec::new(),
            nodes: Vec::new(),
            cells: CellSlab::new(),
            events: EventQueue::new(),
            seed,
            ecmp_salt,
            arrivals: Arrivals::default(),
            pending: BTreeMap::new(),
            timer_tokens: DetMap::default(),
            records: Vec::new(),
            flows_to_record: 0,
            record_keys: Vec::new(),
            scratch: Vec::new(),
            steps: 0,
            fault_queue: Vec::new(),
            next_fault: 0,
            routes_built: false,
            counters: PerfCounters::default(),
            my_shard: 0,
            owner: None,
            outbox: Vec::new(),
            tag_k: Vec::new(),
            setup_k: 0,
            cur_node: SETUP_CTX,
            cur_tag: 0,
            rec_sub: 0,
            supervision: Supervision::default(),
            mem_armed: false,
            tripped: None,
        }
    }

    /// Next canonical event tag for the current push context (see the
    /// module docs): node-attributed when inside [`Self::step_before`], the
    /// shared setup counter otherwise.
    #[inline]
    pub(crate) fn next_tag(&mut self) -> u64 {
        if self.cur_node == SETUP_CTX {
            let t = self.setup_k;
            self.setup_k += 1;
            t
        } else {
            let k = &mut self.tag_k[self.cur_node];
            let t = ((self.cur_node as u64 + 1) << TAG_SHIFT) | *k;
            *k += 1;
            t
        }
    }

    /// Schedule `ev` at `at` under the next canonical tag.
    #[inline]
    fn push_event(&mut self, at: SimTime, ev: Event) {
        let tag = self.next_tag();
        if self.cur_node == SETUP_CTX {
            // Setup tags sort below same-time runtime tags, so a push at
            // `now` into a network that already popped runtime events at
            // this instant (re-injection between runs, manual link-up
            // kicks) legally lands below the strict pop-order watermark.
            self.events.rewind_order_watermark();
        }
        self.events.schedule_tagged(at, tag, ev);
    }

    /// An empty engine for shard `idx` of this network's run: same seed,
    /// salt and route configuration, fresh queue and counters,
    /// `sub` attached. Every node slot holds an inert placeholder until
    /// the split moves the shard's own nodes in.
    pub(crate) fn shard_shell(&self, idx: u32, owner: Arc<Vec<u32>>, sub: S) -> Network<S> {
        let mut shell = Self::with_subscriber(self.seed, sub);
        shell.nodes = self.nodes.iter().map(|_| Node::switch()).collect();
        shell.routes_built = self.routes_built;
        shell.my_shard = idx;
        shell.owner = Some(owner);
        shell.tag_k = self.tag_k.clone();
        shell.supervision = self.supervision;
        shell
    }

    /// The attached telemetry subscriber.
    pub fn subscriber(&self) -> &S {
        &self.sub
    }

    /// The attached telemetry subscriber, mutably.
    pub fn subscriber_mut(&mut self) -> &mut S {
        &mut self.sub
    }

    /// Consume the network and return the subscriber (to read out
    /// aggregates after a run).
    pub fn into_subscriber(self) -> S {
        self.sub
    }

    /// Install a [`Supervision`] configuration: arms the livelock guard
    /// for the `try_run_*` entry points and applies the memory ceilings
    /// to the event queue and the queued-packet cells. Re-installing
    /// clears any latched trip.
    pub fn set_supervision(&mut self, sup: Supervision) {
        self.supervision = sup;
        self.events.set_mem_ceiling(sup.event_ceiling);
        self.cells.set_ceiling(sup.queued_packet_ceiling);
        self.mem_armed = sup.event_ceiling.is_some() || sup.queued_packet_ceiling.is_some();
        self.tripped = None;
    }

    /// The installed [`Supervision`] configuration.
    pub fn supervision(&self) -> Supervision {
        self.supervision
    }

    /// Drill: schedule a self-rescheduling zero-delay event at `at`,
    /// attributed to node 0. The cycle spins forever, so **only inject
    /// with the livelock guard armed** — it exists to prove the guard
    /// trips ([`SimError::Livelock`]) and for the CI livelock drill.
    pub fn inject_livelock_at(&mut self, at: SimTime) {
        self.push_event(at, Event::LivelockDrill { node: NodeId(0) });
    }

    // ── topology construction ──────────────────────────────────────────

    /// Add a host running `agent`; returns its id.
    pub fn add_host(&mut self, agent: Box<dyn Agent>) -> NodeId {
        self.nodes.push(Node::host(agent));
        self.tag_k.push(0);
        NodeId(self.nodes.len() - 1)
    }

    /// Add a switch; returns its id.
    pub fn add_switch(&mut self) -> NodeId {
        self.nodes.push(Node::switch());
        self.tag_k.push(0);
        NodeId(self.nodes.len() - 1)
    }

    /// Connect `a` and `b` with a full-duplex link of `rate`/`delay`,
    /// installing `cfg_a` as `a`'s egress port config and `cfg_b` as `b`'s.
    /// Returns `(a_port, b_port)` indices.
    pub fn connect(
        &mut self,
        a: NodeId,
        cfg_a: PortConfig,
        b: NodeId,
        cfg_b: PortConfig,
        rate: Rate,
        delay: Duration,
    ) -> (usize, usize) {
        assert_ne!(a, b, "self-links are not supported");
        let pa = self.nodes[a.0].ports.len();
        let pb = self.nodes[b.0].ports.len();
        let mut port_a = EgressPort::new(b, pb, rate, delay, cfg_a);
        port_a.owner = a;
        port_a.owner_port = pa as u64;
        port_a.seed_dice(hash_mix(self.seed ^ ((a.0 as u64 + 1) << 24) ^ pa as u64));
        self.nodes[a.0].ports.push(port_a);
        let mut port_b = EgressPort::new(a, pa, rate, delay, cfg_b);
        port_b.owner = b;
        port_b.owner_port = pb as u64;
        port_b.seed_dice(hash_mix(self.seed ^ ((b.0 as u64 + 1) << 24) ^ pb as u64));
        self.nodes[b.0].ports.push(port_b);
        (pa, pb)
    }

    /// Compute shortest-path ECMP routes from every node to every host,
    /// over the links currently up. Call once after the topology is fully
    /// built; link up/down transitions re-run it automatically afterwards.
    ///
    /// Each node's fan towards `dst` is the list of its up ports whose peer
    /// is strictly closer to `dst`, in port order, written straight into
    /// the node's flat forwarding table.
    pub fn compute_routes(&mut self) {
        self.routes_built = true;
        // Adjacency over up links: for each node, (port index, peer).
        let adj: Vec<Vec<(usize, NodeId)>> = self
            .nodes
            .iter()
            .map(|node| {
                node.ports
                    .iter()
                    .enumerate()
                    .filter(|(_, p)| p.link_up)
                    .map(|(i, p)| (i, p.peer))
                    .collect()
            })
            .collect();
        let n = adj.len();
        for node in &mut self.nodes {
            node.route_off.clear();
            node.route_off.reserve(n + 1);
            node.route_off.push(0);
            node.route_hops.clear();
        }
        let mut dist = vec![usize::MAX; n];
        let mut queue = std::collections::VecDeque::new();
        for dst in 0..n {
            // BFS distances from dst (links are symmetric); only hosts are
            // destinations, every other column stays empty.
            dist.fill(usize::MAX);
            if self.nodes[dst].is_host() {
                dist[dst] = 0;
                queue.push_back(dst);
            }
            while let Some(u) = queue.pop_front() {
                for &(_, peer) in &adj[u] {
                    if dist[peer.0] == usize::MAX {
                        dist[peer.0] = dist[u] + 1;
                        queue.push_back(peer.0);
                    }
                }
            }
            for (u, node) in self.nodes.iter_mut().enumerate() {
                if u != dst && dist[u] != usize::MAX {
                    node.route_hops.extend(
                        adj[u]
                            .iter()
                            .filter(|&&(_, peer)| dist[peer.0] + 1 == dist[u])
                            .map(|&(i, _)| u16::try_from(i).expect("port index fits u16")),
                    );
                }
                node.route_off
                    .push(u32::try_from(node.route_hops.len()).expect("route table fits u32"));
            }
        }
    }

    // ── fault injection ────────────────────────────────────────────────

    /// Install `plan`: every event joins the fault list with a canonical
    /// setup tag, so fault timing shares the deterministic `(time, tag)`
    /// total order with packets and timers — and, because setup tags sort
    /// below every runtime tag, a fault always applies before same-time
    /// packet events, on serial and sharded runs alike. May be called more
    /// than once; plans accumulate.
    pub fn install_fault_plan(&mut self, plan: FaultPlan) {
        for ev in plan.events {
            let tag = self.next_tag();
            self.fault_queue.push((ev.at, tag, ev.action));
        }
        assert_eq!(
            self.next_fault, 0,
            "fault plans must be installed before the run starts"
        );
        self.fault_queue
            .sort_unstable_by_key(|&(at, tag, _)| (at, tag));
    }

    /// Set the `a`↔`b` link's state (both directions). Idempotent: setting
    /// the current state is a no-op (no spurious route rebuild). On a real
    /// transition, routes are rebuilt (if [`Self::compute_routes`] ever
    /// ran) so ECMP fails over; on an up transition both egress ports are
    /// kicked so backlogged packets resume immediately.
    pub fn set_link_up(&mut self, a: NodeId, b: NodeId, up: bool) {
        let at = self.now();
        self.set_link_up_at(at, a, b, up);
    }

    /// [`Self::set_link_up`] at an explicit time `at >= now`: fault
    /// application runs *between* queue pops, so the transition time comes
    /// from the fault list, not from the queue clock.
    fn set_link_up_at(&mut self, at: SimTime, a: NodeId, b: NodeId, up: bool) {
        let (pa, pb) = self.link_ports(a, b);
        let changed =
            self.nodes[a.0].ports[pa].link_up != up || self.nodes[b.0].ports[pb].link_up != up;
        if !changed {
            return;
        }
        self.nodes[a.0].ports[pa].link_up = up;
        self.nodes[b.0].ports[pb].link_up = up;
        #[cfg(feature = "strict-invariants")]
        if up {
            self.nodes[a.0].ports[pa].audit_link_up(at);
            self.nodes[b.0].ports[pb].audit_link_up(at);
        }
        emit!(
            &mut self.sub,
            on_link_state_changed,
            Meta {
                at,
                node: a.0 as u64,
            },
            LinkStateChanged {
                node_a: a.0 as u64,
                node_b: b.0 as u64,
                up,
            }
        );
        if self.routes_built {
            self.compute_routes();
        }
        if up {
            self.kick(at, a, pa);
            self.kick(at, b, pb);
        }
    }

    /// Is the `a`↔`b` link currently up?
    pub fn link_is_up(&self, a: NodeId, b: NodeId) -> bool {
        let (pa, _) = self.link_ports(a, b);
        self.nodes[a.0].ports[pa].link_up
    }

    /// The ports of the `a`↔`b` link: `a`'s towards `b`, then `b`'s
    /// towards `a`. Panics when the two are not linked.
    fn link_ports(&self, a: NodeId, b: NodeId) -> (usize, usize) {
        let port = |x: NodeId, y: NodeId| {
            self.port_towards(x, y)
                .unwrap_or_else(|| panic!("no link between {x} and {y}"))
        };
        (port(a, b), port(b, a))
    }

    fn apply_fault_at(&mut self, at: SimTime, action: FaultAction) {
        match action {
            FaultAction::LinkDown { a, b } => self.set_link_up_at(at, a, b, false),
            FaultAction::LinkUp { a, b } => self.set_link_up_at(at, a, b, true),
            FaultAction::SetLinkRate { a, b, rate } => {
                let (pa, pb) = self.link_ports(a, b);
                // An in-flight serialization keeps its old tx_time; the new
                // rate applies from the next packet.
                self.nodes[a.0].ports[pa].rate = rate;
                self.nodes[b.0].ports[pb].rate = rate;
            }
            FaultAction::SetLinkDelay { a, b, delay } => {
                let (pa, pb) = self.link_ports(a, b);
                self.nodes[a.0].ports[pa].delay = delay;
                self.nodes[b.0].ports[pb].delay = delay;
            }
        }
    }

    // ── accessors ──────────────────────────────────────────────────────

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.events.now()
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of egress ports on `node`.
    pub fn port_count(&self, node: NodeId) -> usize {
        self.nodes[node.0].ports.len()
    }

    /// Statistics of `node`'s `port`.
    pub fn port_stats(&self, node: NodeId, port: usize) -> PortStats {
        self.nodes[node.0].ports[port].stats()
    }

    /// Current backlog of `node`'s `port` in (bytes, packets).
    pub fn backlog(&self, node: NodeId, port: usize) -> (u64, u64) {
        let p = &self.nodes[node.0].ports[port];
        (p.backlog_bytes(), p.backlog_pkts())
    }

    /// Cumulative transmitted payload bytes per class on `node`'s `port`.
    pub fn tx_payload_per_class(&self, node: NodeId, port: usize) -> Vec<u64> {
        self.nodes[node.0].ports[port]
            .tx_payload_per_class()
            .to_vec()
    }

    /// The egress port of `node` facing `peer`, if any.
    pub fn port_towards(&self, node: NodeId, peer: NodeId) -> Option<usize> {
        self.nodes[node.0].ports.iter().position(|p| p.peer == peer)
    }

    /// Downcast access to the AQM on `node`'s `port`, for schemes that opt
    /// into [`ecnsharp_aqm::Aqm::as_any`]. White-box equivalence tests use
    /// this to read e.g. ECN♯'s `MarkStats` after a run.
    pub fn aqm_as_any(&self, node: NodeId, port: usize) -> Option<&dyn std::any::Any> {
        self.nodes[node.0].ports[port].aqm_as_any()
    }

    /// Completed-flow records so far.
    pub fn records(&self) -> &[FlowRecord] {
        &self.records
    }

    /// Drain completed-flow records.
    pub fn take_records(&mut self) -> Vec<FlowRecord> {
        std::mem::take(&mut self.records)
    }

    /// Flows started but not yet finished.
    pub fn unfinished_flows(&self) -> usize {
        self.pending.len()
    }

    /// Per-flow endpoint state resident right now, summed over every
    /// host's [`Agent::flow_state`].
    pub fn flow_state(&self) -> FlowState {
        let mut total = FlowState::default();
        for node in &self.nodes {
            if let NodeKind::Host { agent } = &node.kind {
                let s = agent.flow_state();
                total.live_senders += s.live_senders;
                total.live_receivers += s.live_receivers;
                total.closed_receivers += s.closed_receivers;
            }
        }
        total
    }

    /// Idle-time checks. Flow state: a sender outlives its flow's report
    /// by nothing, so with every started flow finished no agent may still
    /// hold one. Queues: the live cells are exactly the packets the FIFO
    /// ports hold, and a port whose link is up holds none, since its
    /// backlog would have kept a `TxDone` queued.
    pub(crate) fn check_idle(&self) {
        ecnsharp_sim::invariant!(
            !self.pending.is_empty() || self.flow_state().live_senders == 0,
            "idle with no unfinished flow but {:?}",
            self.flow_state()
        );
        let ports = || self.nodes.iter().flat_map(|n| &n.ports);
        let fifo: u64 = ports()
            .filter(|p| matches!(p.sched, PortSched::Fifo(_)))
            .map(EgressPort::backlog_pkts)
            .sum();
        ecnsharp_sim::invariant!(
            self.cells.live() == fifo,
            "idle with {} live packet cells but {fifo} packets queued in FIFO ports",
            self.cells.live()
        );
        let stuck: u64 = ports()
            .filter(|p| p.link_up)
            .map(EgressPort::backlog_pkts)
            .sum();
        ecnsharp_sim::invariant!(
            stuck == 0,
            "idle with {stuck} packets queued behind links that are up"
        );
    }

    /// Events processed so far.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Engine performance counters accumulated so far: event-queue traffic
    /// plus per-port packet/mark/drop totals. Assembled on demand; calling
    /// this (or not) has no effect on the simulation.
    ///
    /// A sharded run gives the serial run's counters, with one exception:
    /// `peak_pending` is the sum of the shards' peaks, not the serial peak.
    pub fn perf(&self) -> PerfCounters {
        let mut c = self.engine_counters();
        for node in &self.nodes {
            for p in &node.ports {
                let s = p.stats();
                c.packets_forwarded += s.dequeued;
                c.ce_marks += s.total_marks();
                c.drops += s.total_drops();
                c.burst_drops += s.burst_drops;
            }
        }
        // A packet leaving a queue is dropped on the wire or transmitted,
        // and a transmission queues its `TxDone` or elides it.
        c.tx_done_elided = c.packets_forwarded - c.burst_drops - c.tx_done_pushed;
        c
    }

    /// [`Self::perf`] without the port sums: what a shard engine hands
    /// back at the merge (its ports come home with its nodes).
    pub(crate) fn engine_counters(&self) -> PerfCounters {
        let q = self.events.perf();
        let mut c = self.counters;
        c.absorb(&PerfCounters {
            events_pushed: q.pushed,
            events_popped: q.popped,
            peak_pending: q.peak_pending,
            timers_armed: q.timers_armed,
            timers_cancelled: q.timers_cancelled,
            timers_fired: q.timers_fired,
            timers_stale_suppressed: q.timers_stale_suppressed,
            heap_spills: q.heap_spills,
            ..PerfCounters::default()
        });
        c
    }

    // ── driving ────────────────────────────────────────────────────────

    /// Schedule `cmd` to start at `at`, under the next set-up tag. The
    /// flow waits in the arrival list, not the event queue, and starts at
    /// the `(time, tag)` position a queued start event would have had.
    /// Flow ids are unique per `Network`, for its whole life: a finished
    /// flow's id stays taken (its receiver's closed state answers to it),
    /// and starting an id that is still in progress is a bug caught by a
    /// debug assertion.
    ///
    /// # Panics
    /// When `cmd` does not fit the arrival list's packed fields: a source
    /// node id of 2^24 or more, a destination node id or extra delay (in
    /// ns) of 2^32 or more; or after 2^32 set-up tags have been drawn since
    /// the first flow still to start was listed. Debug-panics when `at` is
    /// in the past.
    pub fn schedule_flow(&mut self, at: SimTime, cmd: FlowCmd) {
        ecnsharp_sim::invariant!(
            at >= self.now(),
            "scheduling a flow into the past: {at} < {}",
            self.now()
        );
        let tag = self.next_tag();
        self.arrivals.push(at, tag, cmd);
        self.flows_to_record += 1;
    }

    /// The next item kept outside the event queue — a flow arrival or a
    /// fault — as its `(time, tag)` key and whether it is a fault. Both
    /// carry set-up tags, so they never tie.
    fn out_of_queue(&mut self) -> Option<((SimTime, u64), bool)> {
        let arrival = self.arrivals.next_key().map(|k| (k, false));
        let fault = self
            .fault_queue
            .get(self.next_fault)
            .map(|&(at, tag, _)| ((at, tag), true));
        match (arrival, fault) {
            (Some(a), Some(f)) => Some(a.min(f)),
            (a, f) => a.or(f),
        }
    }

    /// The `(time, tag)` key of the next step — the minimum over the event
    /// queue, the arrival list and the fault list (a shard engine holds no
    /// faults). `None` when all three are exhausted. For the shard
    /// barrier and the diagnostics; the run loops bound
    /// [`Self::step_before`] instead of peeking.
    pub(crate) fn next_key(&mut self) -> Option<(SimTime, u64)> {
        let limit = self.out_of_queue().map(|(key, _)| key);
        self.events.peek_key_before(limit).or(limit)
    }

    /// Give `records` (and a shard engine's `record_keys`) room for every
    /// flow still to be recorded, in one allocation made before the run
    /// touches it. Growing by doubling mid-run copies the buffer, and
    /// whether glibc can extend it in place or must hold old and new at
    /// once depends on what was allocated just before — `incast_lossy`
    /// read 38, 45 or 53 MiB of peak RSS by seed for that reason alone.
    ///
    /// The size is the capacity doubling would have ended at, not the
    /// exact count: the untouched tail is never resident, and the buffer a
    /// finished network hands back to the allocator keeps the size it
    /// always had. That matters to a process that builds one network after
    /// another (the benchmark, a sweep): with an exact-size buffer the
    /// hole it left was too small for the next set-up's own flow list,
    /// which then grew at the top of the heap, pushed the free top over
    /// glibc's trim threshold on every cycle and doubled `setup_s`
    /// (measured; PERFORMANCE.md "Fewer events").
    pub(crate) fn reserve_records(&mut self) {
        let total = self.records.len() + self.flows_to_record;
        if total > self.records.capacity() {
            let room = total.next_power_of_two() - self.records.len();
            self.records.reserve_exact(room);
            if self.owner.is_some() {
                self.record_keys.reserve_exact(room);
            }
        }
    }

    /// Process events until the queue is empty or `deadline` is passed:
    /// every event at `deadline` itself is processed, so a port read after
    /// the call sees that whole instant. Returns the time of the last
    /// processed event.
    pub fn run_until(&mut self, deadline: SimTime) -> SimTime {
        self.reserve_records();
        // Every key at `deadline` sorts below the next nanosecond's first.
        let bound = deadline
            .as_nanos()
            .checked_add(1)
            .map(|t| (SimTime::from_nanos(t), 0));
        while self.step_before(bound) {}
        self.now()
    }

    /// Process events until nothing is left (all flows done, all timers
    /// fired, all faults applied).
    ///
    /// [`Network::try_run_until_idle`], unwrapped: a tripped guard —
    /// including a budget armed through the transport, not
    /// [`Supervision`] — panics with its [`SimError`].
    pub fn run_until_idle(&mut self) -> SimTime {
        self.try_run_until_idle().expect("run_until_idle")
    }

    /// Process events until nothing is left, under this network's
    /// [`Supervision`] (see [`Network::set_supervision`]).
    ///
    /// After every event the loop surfaces a latched trip (a memory
    /// ceiling, or a transport budget reported through
    /// [`Ctx::report_mem_breach`]) and, when `livelock_budget` is set,
    /// feeds the [`ProgressGuard`]; the first trip stops the run at that
    /// event with its [`SimError`]. The guards only observe, so a run
    /// that trips nothing is byte-identical under any `Supervision`.
    pub fn try_run_until_idle(&mut self) -> Result<SimTime, SimError> {
        self.reserve_records();
        let mut guard = self.supervision.livelock_budget.map(ProgressGuard::new);
        while self.step_before(None) {
            self.check_trips(&mut guard)?;
        }
        self.idle_result()
    }

    /// The per-event half of supervision: surface the first latched trip,
    /// then count the event against the livelock guard, if armed.
    #[inline]
    fn check_trips(&mut self, guard: &mut Option<ProgressGuard>) -> Result<(), SimError> {
        if let Some(e) = self.tripped.take() {
            return Err(e);
        }
        if let Some(g) = guard.as_mut() {
            if g.on_event(self.events.now().as_nanos()) {
                let g = *g;
                return Err(self.livelock_error(&g));
            }
        }
        Ok(())
    }

    /// The queue and the fault list are exhausted: surface a latched
    /// trip, or report the idle time.
    fn idle_result(&mut self) -> Result<SimTime, SimError> {
        match self.tripped.take() {
            Some(e) => Err(e),
            None => {
                self.check_idle();
                Ok(self.now())
            }
        }
    }

    /// Assemble the [`SimError::Livelock`] diagnostic for a tripped
    /// guard: current instant, queue depth, and oldest pending key.
    #[cold]
    fn livelock_error(&mut self, g: &ProgressGuard) -> SimError {
        SimError::Livelock {
            time_ns: self.events.now().as_nanos(),
            events_at_instant: g.events_at_instant(),
            budget: g.budget(),
            pending: (self.events.len() + self.arrivals.len()) as u64,
            oldest_key: self.next_key().map(|(t, k)| (t.as_nanos(), k)),
        }
    }

    /// Process queued events and flow arrivals with `time < hi` — the
    /// body of one conservative parallel window — with the same per-event
    /// trip checks as [`Network::try_run_until_idle`]. The guard lives with
    /// the caller (one per shard worker) so a zero-delay cycle inside a
    /// window, which would otherwise spin without ever reaching the
    /// barrier, trips exactly like its serial counterpart. A shard engine
    /// holds no faults: sharded runs apply them at epoch boundaries,
    /// outside the windows.
    pub(crate) fn run_window(
        &mut self,
        hi: SimTime,
        guard: &mut Option<ProgressGuard>,
    ) -> Result<(), SimError> {
        while self.step_before(Some((hi, 0))) {
            self.check_trips(guard)?;
        }
        Ok(())
    }

    /// Process a single event, flow arrival or due fault, whichever has
    /// the smallest `(time, tag)` key, if that key is below `bound`
    /// (`None`: no bound). Returns `false` when nothing is: the queue,
    /// the arrival list and the fault list are all exhausted, or the next
    /// step lies at or past `bound`. The bound caps the queue's refill as
    /// the next arrival does: with nothing queued due by its bucket, the
    /// lane cursor moves there.
    pub fn step_before(&mut self, bound: Option<(SimTime, u64)>) -> bool {
        // Arrivals and faults carry set-up tags, which sort below every
        // runtime tag, so either wins a tie with an event at its instant.
        let next = self.out_of_queue();
        let limit = next.map(|(key, _)| key).into_iter().chain(bound).min();
        let Some((now, tag, ev)) = self.events.pop_keyed_before(limit) else {
            match next {
                None => return false,
                Some((key, _)) if bound.is_some_and(|b| key >= b) => return false,
                Some((_, true)) => self.step_fault(),
                Some((_, false)) => self.step_arrival(),
            }
            return true;
        };
        self.steps += 1;
        // Tag context for everything this event pushes: `cur_node` selects
        // the per-node counter (canonical across shard counts), `cur_tag`
        // keys any flow records the event completes and positions the
        // step against reserved `TxDone` keys.
        self.cur_tag = tag;
        self.rec_sub = 0;
        match ev {
            Event::Arrive { node, pkt } => {
                self.cur_node = node.0;
                self.on_arrive(now, node, pkt);
            }
            Event::TxDone { node, port } => {
                self.cur_node = node.0;
                self.nodes[node.0].ports[port].wire_free = WireFree::At(now, tag);
                self.kick(now, node, port);
            }
            Event::Timer { node, key } => {
                self.cur_node = node.0;
                // A wheel-armed timer that fires is spent: drop its token
                // so a later cancel/re-arm for the key starts fresh, and
                // hand it back so the wheel can free the drained cell's
                // marker.
                if let Some((tok, _, _)) = self.timer_tokens.remove(&(node, key)) {
                    self.events.timer_fired(tok);
                }
                self.agent_callback(now, node, |agent, ctx| {
                    agent.on_timer(ctx, key);
                })
            }
            Event::NicSend { node, pkt } => {
                self.cur_node = node.0;
                self.nodes[node.0].ports[0].enqueue(now, pkt, &mut self.cells, &mut self.sub);
                self.kick(now, node, 0);
            }
            Event::LivelockDrill { node } => {
                self.cur_node = node.0;
                self.push_event(now, Event::LivelockDrill { node });
            }
        }
        self.end_step(now);
        true
    }

    /// Start the next flow of the arrival list as one step: its source
    /// agent gets the command at the flow's `(time, tag)` key. Out of
    /// line: one step in thousands is a flow start, so it stays off the
    /// per-event path of [`Self::step_before`].
    #[inline(never)]
    fn step_arrival(&mut self) {
        let Some((now, tag, cmd)) = self.arrivals.pop() else {
            return;
        };
        self.steps += 1;
        self.events.advance_now(now);
        self.cur_tag = tag;
        self.rec_sub = 0;
        let src = cmd.src;
        self.cur_node = src.0;
        let prev = self.pending.insert(cmd.flow, (cmd.clone(), now));
        debug_assert!(prev.is_none(), "duplicate flow id {}", cmd.flow);
        self.agent_callback(now, src, |agent, ctx| {
            agent.on_flow_cmd(ctx, cmd);
        });
        self.end_step(now);
    }

    /// Close a step attributed to `cur_node`: poll the memory ceilings
    /// (when armed) and return to the set-up push context.
    #[inline]
    fn end_step(&mut self, now: SimTime) {
        if self.mem_armed {
            self.poll_mem_breach(now);
        }
        self.cur_node = SETUP_CTX;
    }

    /// Apply the next fault of the plan as one step. The serial loop calls
    /// this when the fault's key is the smallest pending one; the sharded
    /// runner calls it with every node home, between epochs.
    pub(crate) fn step_fault(&mut self) {
        let (at, tag, action) = self.fault_queue[self.next_fault];
        self.next_fault += 1;
        self.steps += 1;
        self.events.advance_now(at);
        // The fault is the step in progress: a link-up kick compares this
        // key with the port's reserved one.
        self.cur_tag = tag;
        self.apply_fault_at(at, action);
    }

    /// Poll the latched memory-breach flags after one event (only when a
    /// ceiling is armed). Every enqueue of an event is onto a port of its
    /// `cur_node`, so attribution is exact; the breach converts into the
    /// run's first [`SimError::MemBudgetExceeded`].
    #[inline]
    fn poll_mem_breach(&mut self, now: SimTime) {
        if self.tripped.is_some() {
            return;
        }
        let node = (self.cur_node != SETUP_CTX).then_some(self.cur_node as u32);
        if let Some((live, ceiling)) = self.events.mem_breach() {
            self.tripped = Some(SimError::MemBudgetExceeded {
                breach: MemBreach {
                    component: MemComponent::EventQueue,
                    live,
                    ceiling,
                    node,
                },
                time_ns: now.as_nanos(),
            });
            return;
        }
        if let Some((live, ceiling)) = self.cells.breach() {
            self.tripped = Some(SimError::MemBudgetExceeded {
                breach: MemBreach {
                    component: MemComponent::QueuedPackets,
                    live,
                    ceiling,
                    node,
                },
                time_ns: now.as_nanos(),
            });
        }
    }

    fn on_arrive(&mut self, now: SimTime, node: NodeId, pkt: crate::packet::Packet) {
        match &self.nodes[node.0].kind {
            NodeKind::Host { .. } => {
                debug_assert_eq!(pkt.dst, node, "packet delivered to wrong host");
                self.agent_callback(now, node, |agent, ctx| {
                    agent.on_packet(ctx, pkt);
                });
            }
            NodeKind::Switch => {
                // Forwarding reads the flat route table: two
                // contiguous-array reads.
                let sw = &self.nodes[node.0];
                let hops = match sw.route_off.get(pkt.dst.0..pkt.dst.0 + 2) {
                    Some(w) => &sw.route_hops[w[0] as usize..w[1] as usize],
                    None => panic!(
                        "switch {node} has no route to {} — did you call compute_routes()?",
                        pkt.dst
                    ),
                };
                if hops.is_empty() {
                    // Every link towards the destination is down: the
                    // packet is lost in the fabric. Counted apart from port
                    // drops — it never entered an egress queue, so byte
                    // conservation is untouched.
                    self.counters.no_route_drops += 1;
                    emit!(
                        &mut self.sub,
                        on_packet_dropped,
                        Meta {
                            at: now,
                            node: node.0 as u64,
                        },
                        PacketDropped {
                            // Sentinel: the packet never reached a port.
                            port: u64::MAX,
                            flow: pkt.flow.0,
                            seq: pkt.seq(),
                            payload: pkt.payload(),
                            wire_bytes: pkt.wire_bytes(),
                            reason: DropReason::NoRoute,
                        }
                    );
                    return;
                }
                let port = if hops.len() == 1 {
                    hops[0] as usize
                } else {
                    // Flow-consistent ECMP: all packets of a flow take the
                    // same path; different flows spread across the fan.
                    // Fan-outs are powers of two in every standard fabric,
                    // where the reduction is a mask instead of a 64-bit
                    // division (same result either way).
                    let h = hash_mix(pkt.flow.0 ^ self.ecmp_salt);
                    let n = hops.len() as u64;
                    let idx = if n.is_power_of_two() {
                        h & (n - 1)
                    } else {
                        h % n
                    };
                    hops[idx as usize] as usize
                };
                self.nodes[node.0].ports[port].enqueue(now, pkt, &mut self.cells, &mut self.sub);
                self.kick(now, node, port);
            }
        }
    }

    /// Start transmitting on `(node, port)` if its wire is free and a
    /// packet is waiting.
    ///
    /// A transmission draws its `TxDone` tag and its `Arrive` tag, and
    /// leaves the port in one of two states. With a packet still waiting
    /// behind the one just dequeued, the `TxDone` event is queued and the
    /// port is busy until it pops. With nothing waiting, the event would
    /// pop, find an empty queue and do nothing, so only its key is kept on
    /// the port. A later kick then compares the key of the step being
    /// applied — `(now, cur_tag)`, an event's or a fault's — with the
    /// reserved key. A step ordered before it finds the wire busy: if a
    /// packet is waiting now, the `TxDone` is queued at the reserved key,
    /// exactly where the eager push would have sat; if none is (the
    /// enqueue was refused), nothing changes. A step at or past the key
    /// finds the wire free, as if the no-op `TxDone` had already popped.
    /// Either way every packet leaves at the time, and every event pops at
    /// the key, it would have with one `TxDone` per transmission.
    pub(crate) fn kick(&mut self, now: SimTime, node: NodeId, port: usize) {
        let sub = &mut self.sub;
        let p = &mut self.nodes[node.0].ports[port];
        if !p.link_up {
            return;
        }
        match p.wire_free {
            WireFree::OnTxDone => return,
            WireFree::At(t, tag) if (now, self.cur_tag) < (t, tag) => {
                if p.backlog_pkts() > 0 {
                    p.wire_free = WireFree::OnTxDone;
                    self.counters.tx_done_pushed += 1;
                    self.events
                        .schedule_tagged(t, tag, Event::TxDone { node, port });
                }
                return;
            }
            WireFree::At(..) => {}
        }
        if let Some(tx) = p.next_tx_dice(now, &mut self.cells, sub) {
            #[cfg(feature = "strict-invariants")]
            p.audit_tx_start(now, tx.tx_time);
            let peer = p.peer;
            let delay = p.delay;
            let waiting = p.backlog_pkts() > 0;
            // Draw both tags before routing: TxDone then Arrive, always in
            // that order and whether or not the TxDone is queued, so the
            // pusher's counter advances identically whatever is waiting
            // here and whether the arrival stays local or crosses a shard
            // boundary.
            let tx_tag = self.next_tag();
            let arr_tag = self.next_tag();
            let done = now + tx.tx_time;
            self.nodes[node.0].ports[port].wire_free = if waiting {
                self.counters.tx_done_pushed += 1;
                self.events
                    .schedule_tagged(done, tx_tag, Event::TxDone { node, port });
                WireFree::OnTxDone
            } else {
                WireFree::At(done, tx_tag)
            };
            let at = done + delay;
            match &self.owner {
                Some(owner) if owner[peer.0] != self.my_shard => self.outbox.push(OutMsg {
                    shard: owner[peer.0],
                    at,
                    tag: arr_tag,
                    node: peer,
                    pkt: tx.pkt,
                }),
                _ => self.events.schedule_tagged(
                    at,
                    arr_tag,
                    Event::Arrive {
                        node: peer,
                        pkt: tx.pkt,
                    },
                ),
            }
        }
    }

    /// Run `f` on the agent of host `node`, then apply the actions it
    /// requested.
    fn agent_callback(
        &mut self,
        now: SimTime,
        node: NodeId,
        f: impl FnOnce(&mut dyn Agent, &mut Ctx<'_>),
    ) {
        let mut actions = std::mem::take(&mut self.scratch);
        debug_assert!(actions.is_empty());
        #[cfg(feature = "telemetry")]
        let mut tevents = std::mem::take(&mut self.scratch_events);
        {
            let NodeKind::Host { agent } = &mut self.nodes[node.0].kind else {
                panic!("agent callback on a switch ({node})");
            };
            let mut ctx = Ctx {
                now,
                node,
                actions: &mut actions,
                #[cfg(feature = "telemetry")]
                events: if S::ENABLED { Some(&mut tevents) } else { None },
            };
            f(agent.as_mut(), &mut ctx);
        }
        // Forward transport events (cwnd/alpha/RTO) surfaced by the agent.
        #[cfg(feature = "telemetry")]
        {
            if S::ENABLED {
                let meta = Meta {
                    at: now,
                    node: node.0 as u64,
                };
                for ev in tevents.drain(..) {
                    match ev {
                        TransportEvent::Cwnd {
                            flow,
                            cwnd_bytes,
                            ssthresh_bytes,
                        } => self.sub.on_cwnd_updated(
                            &meta,
                            &CwndUpdated {
                                flow,
                                cwnd_bytes,
                                ssthresh_bytes,
                            },
                        ),
                        TransportEvent::Alpha { flow, alpha } => self
                            .sub
                            .on_alpha_updated(&meta, &AlphaUpdated { flow, alpha }),
                        TransportEvent::Rto { flow, streak } => {
                            self.sub.on_rto_fired(&meta, &RtoFired { flow, streak })
                        }
                    }
                }
            }
            self.scratch_events = tevents;
        }
        for action in actions.drain(..) {
            match action {
                Action::Send(pkt, delay) => {
                    if delay.is_zero() {
                        self.nodes[node.0].ports[0].enqueue(
                            now,
                            pkt,
                            &mut self.cells,
                            &mut self.sub,
                        );
                        self.kick(now, node, 0);
                    } else {
                        self.push_event(now + delay, Event::NicSend { node, pkt });
                    }
                }
                Action::ArmTimer(at, key) => {
                    // Entry API: one tree descent per arm instead of a
                    // get + insert pair (this is the per-ACK hot path).
                    use std::collections::hash_map::Entry;
                    let at = at.max(now);
                    let tag = self.next_tag();
                    match self.timer_tokens.entry((node, key)) {
                        Entry::Occupied(mut o) => {
                            let prev = Some(o.get().0);
                            let tok = self.events.rearm_timer_tagged(
                                prev,
                                at,
                                tag,
                                Event::Timer { node, key },
                            );
                            *o.get_mut() = (tok, at, tag);
                        }
                        Entry::Vacant(v) => {
                            let tok = self.events.rearm_timer_tagged(
                                None,
                                at,
                                tag,
                                Event::Timer { node, key },
                            );
                            v.insert((tok, at, tag));
                        }
                    }
                }
                Action::CancelTimer(key) => {
                    if let Some((tok, _, _)) = self.timer_tokens.remove(&(node, key)) {
                        self.events.cancel_timer(tok);
                    }
                }
                Action::FlowDone(flow, timeouts) => {
                    self.finish_flow(now, node, flow, timeouts, FlowOutcome::Completed);
                }
                Action::FlowFailed(flow, timeouts) => {
                    self.finish_flow(now, node, flow, timeouts, FlowOutcome::Failed);
                }
                Action::MemBreach { live, ceiling } => {
                    // Transport-owned budget (e.g. receiver reassembly
                    // state, armed through `TcpConfig`): latch the run's
                    // first breach; the fallible entry points convert it
                    // into an early `Err`.
                    if self.tripped.is_none() {
                        self.tripped = Some(SimError::MemBudgetExceeded {
                            breach: MemBreach {
                                component: MemComponent::TransportOoo,
                                live,
                                ceiling,
                                node: Some(node.0 as u32),
                            },
                            time_ns: now.as_nanos(),
                        });
                    }
                }
            }
        }
        self.scratch = actions;
    }

    /// `node`'s agent reported `flow` finished with `outcome`: retire it
    /// from `pending` and record it.
    fn finish_flow(
        &mut self,
        now: SimTime,
        node: NodeId,
        flow: FlowId,
        timeouts: u32,
        outcome: FlowOutcome,
    ) {
        let Some((cmd, start)) = self.pending.remove(&flow) else {
            return;
        };
        if outcome == FlowOutcome::Failed {
            self.counters.flows_failed += 1;
        }
        let _ = node;
        emit!(
            &mut self.sub,
            on_flow_completed,
            Meta {
                at: now,
                node: node.0 as u64,
            },
            FlowCompleted {
                flow: flow.0,
                bytes: cmd.size,
                fct_ns: now.saturating_since(start).as_nanos(),
                completed: outcome == FlowOutcome::Completed,
            }
        );
        if self.owner.is_some() {
            self.record_keys.push((now, self.cur_tag, self.rec_sub));
            self.rec_sub += 1;
        }
        self.flows_to_record -= 1;
        self.records.push(FlowRecord {
            flow,
            src: cmd.src,
            dst: cmd.dst,
            size: cmd.size,
            start,
            finish: now,
            class: cmd.class,
            timeouts,
            outcome,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agent::{EchoAgent, NullAgent};
    use crate::packet::Packet;
    use ecnsharp_aqm::DropTail;

    #[test]
    fn perf_counter_list_names_every_field_once() {
        let names: Vec<_> = PerfCounters::default()
            .fields()
            .into_iter()
            .map(|(name, _)| name)
            .collect();
        assert_eq!(
            names.len() * std::mem::size_of::<u64>(),
            std::mem::size_of::<PerfCounters>()
        );
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "{names:?}");
    }

    /// host A -- switch -- host B, 10 Gbps, 1 us links.
    fn two_hosts() -> (Network, NodeId, NodeId, NodeId) {
        two_hosts_with(NoopSubscriber)
    }

    fn two_hosts_with<S: Subscriber>(sub: S) -> (Network<S>, NodeId, NodeId, NodeId) {
        let mut net = Network::with_subscriber(1, sub);
        let a = net.add_host(Box::new(NullAgent));
        let b = net.add_host(Box::new(EchoAgent));
        let s = net.add_switch();
        let cfg = || PortConfig::fifo(1_000_000, Box::new(DropTail::new()));
        net.connect(
            a,
            cfg(),
            s,
            cfg(),
            Rate::from_gbps(10),
            Duration::from_micros(1),
        );
        net.connect(
            b,
            cfg(),
            s,
            cfg(),
            Rate::from_gbps(10),
            Duration::from_micros(1),
        );
        net.compute_routes();
        (net, a, b, s)
    }

    /// Inject a raw packet send from a host (test helper). Uses the setup
    /// tag range, like any other before-the-run push.
    fn inject<S: Subscriber>(net: &mut Network<S>, from: NodeId, pkt: Packet) {
        let at = net.now().as_nanos();
        inject_at(net, at, from, pkt);
    }

    /// [`inject`] at `at` ns.
    fn inject_at<S: Subscriber>(net: &mut Network<S>, at: u64, from: NodeId, pkt: Packet) {
        net.push_event(SimTime::from_nanos(at), Event::NicSend { node: from, pkt });
    }

    #[test]
    fn packet_crosses_switch_with_correct_latency() {
        let (mut net, a, b, s) = two_hosts();
        let pkt = Packet::data(FlowId(1), a, b, 0, 1460);
        inject(&mut net, a, pkt);
        net.run_until_idle();
        // Data a->s->b, then echo ACK b->s->a.
        let stats_a_nic = net.port_stats(a, 0);
        assert_eq!(stats_a_nic.dequeued, 1);
        let sw_to_b = net.port_towards(s, b).unwrap();
        assert_eq!(net.port_stats(s, sw_to_b).dequeued, 1);
        let stats_b_nic = net.port_stats(b, 0);
        assert_eq!(stats_b_nic.dequeued, 1, "echo ACK sent");
        // End time: data 2 hops (1230.4ns tx + 1000ns prop each) +
        // ack 2 hops (67.2ns tx + 1000ns prop each) ≈ 6.6 us.
        let t = net.now().as_nanos();
        assert!(t > 6_000 && t < 7_500, "total time {t}ns");
    }

    #[test]
    fn store_and_forward_serialization() {
        let (mut net, a, b, _s) = two_hosts();
        // Two back-to-back MTU packets: second arrives one tx_time later.
        inject(&mut net, a, Packet::data(FlowId(1), a, b, 0, 1460));
        inject(&mut net, a, Packet::data(FlowId(1), a, b, 1460, 1460));
        net.run_until_idle();
        // NIC serialized both: busy time = 2 * 1230.4ns; last arrival at
        // ~ 2*1230 + 1230 + 2*1000 (the second pkt waits for the first at
        // the NIC, then crosses switch). Just sanity-check ordering ran.
        assert_eq!(net.port_stats(a, 0).dequeued, 2);
        assert_eq!(net.port_stats(b, 0).dequeued, 2);
    }

    /// Sends its whole flow as one packet; completes on the echoed ACK.
    struct OneShot;
    impl Agent for OneShot {
        fn on_packet(&mut self, ctx: &mut Ctx<'_>, pkt: Packet) {
            if pkt.flags().ack {
                ctx.flow_done(pkt.flow, 0);
            }
        }
        fn on_timer(&mut self, _: &mut Ctx<'_>, _: u64) {}
        fn on_flow_cmd(&mut self, ctx: &mut Ctx<'_>, cmd: FlowCmd) {
            ctx.send(Packet::data(cmd.flow, cmd.src, cmd.dst, 0, cmd.size));
        }
    }

    /// Host a ([`OneShot`]) -- switch -- host b ([`EchoAgent`]), 10 Gbps,
    /// 1 us links: a one-packet flow from a completes one round trip
    /// (~5.8 us) after it starts.
    fn one_shot_rig() -> (Network, NodeId, NodeId) {
        let mut net = Network::new(2);
        let a = net.add_host(Box::new(OneShot));
        let b = net.add_host(Box::new(EchoAgent));
        let s = net.add_switch();
        let cfg = || PortConfig::fifo(1_000_000, Box::new(DropTail::new()));
        net.connect(
            a,
            cfg(),
            s,
            cfg(),
            Rate::from_gbps(10),
            Duration::from_micros(1),
        );
        net.connect(
            b,
            cfg(),
            s,
            cfg(),
            Rate::from_gbps(10),
            Duration::from_micros(1),
        );
        net.compute_routes();
        (net, a, b)
    }

    /// A one-packet flow `flow` from `src` to `dst`.
    fn one_packet(flow: u64, src: NodeId, dst: NodeId) -> FlowCmd {
        FlowCmd {
            flow: FlowId(flow),
            src,
            dst,
            size: 1460,
            class: 0,
            extra_delay: Duration::ZERO,
        }
    }

    #[test]
    fn flow_records_capture_fct() {
        let (mut net, a, b) = one_shot_rig();
        net.schedule_flow(SimTime::from_micros(10), one_packet(7, a, b));
        net.run_until_idle();
        assert_eq!(net.records().len(), 1);
        let r = &net.records()[0];
        assert_eq!(r.flow, FlowId(7));
        assert_eq!(r.size, 1460);
        assert_eq!(r.start, SimTime::from_micros(10));
        let fct_us = r.fct().as_micros_f64();
        assert!(fct_us > 4.0 && fct_us < 8.0, "fct {fct_us}us");
        assert_eq!(net.unfinished_flows(), 0);
    }

    #[test]
    fn records_are_reserved_once_for_the_flows_scheduled() {
        let mut net = Network::new(2);
        let a = net.add_host(Box::new(OneShot));
        let b = net.add_host(Box::new(EchoAgent));
        let cfg = || PortConfig::fifo(1_000_000, Box::new(DropTail::new()));
        net.connect(
            a,
            cfg(),
            b,
            cfg(),
            Rate::from_gbps(10),
            Duration::from_micros(1),
        );
        let flows = 300;
        for f in 0..flows {
            net.schedule_flow(
                SimTime::from_micros(f),
                FlowCmd {
                    flow: FlowId(f),
                    src: a,
                    dst: b,
                    size: 1460,
                    class: 0,
                    extra_delay: Duration::ZERO,
                },
            );
        }
        assert_eq!(net.records.capacity(), 0, "nothing before the run starts");
        net.run_until(SimTime::ZERO);
        let reserved = net.records.capacity();
        assert!(reserved >= flows as usize);
        net.run_until(SimTime::from_micros(100));
        assert_eq!(net.records.capacity(), reserved, "no growth mid-run");
        // A mid-run drain hands the buffer away; the next run entry
        // reserves for what is still to come.
        let early = net.take_records().len();
        assert!(early > 0 && early < flows as usize);
        net.run_until(SimTime::from_micros(100));
        let again = net.records.capacity();
        assert!(again >= flows as usize - early);
        net.run_until_idle();
        assert_eq!(net.records().len(), flows as usize - early);
        assert_eq!(net.records.capacity(), again, "no growth mid-run");
        assert_eq!(net.flows_to_record, 0);
    }

    // ── the arrival list ───────────────────────────────────────────────

    /// `(flow, start ns, finish ns)` of every record, in record order.
    fn record_times<S: Subscriber>(net: &Network<S>) -> Vec<(u64, u64, u64)> {
        net.records()
            .iter()
            .map(|r| (r.flow.0, r.start.as_nanos(), r.finish.as_nanos()))
            .collect()
    }

    #[test]
    fn flows_scheduled_out_of_order_start_in_time_order() {
        // 40 flows 1.5 us apart, so several are in flight at once; one
        // run lists them in time order, the other shuffled.
        let run = |order: &[u64]| {
            let (mut net, a, b) = one_shot_rig();
            for &f in order {
                net.schedule_flow(SimTime::from_nanos(1_500 * f + 700), one_packet(f, a, b));
            }
            net.run_until_idle();
            (record_times(&net), net.steps(), net.now(), net.perf())
        };
        let in_order: Vec<u64> = (0..40).collect();
        let shuffled: Vec<u64> = (0..40).map(|i| (i * 17 + 5) % 40).collect();
        let want = run(&in_order);
        assert_eq!(want.0.len(), 40);
        assert_eq!(run(&shuffled), want);
    }

    #[test]
    fn a_flow_scheduled_between_runs_starts_at_its_own_time() {
        let (mut net, a, b) = one_shot_rig();
        net.schedule_flow(SimTime::from_micros(10), one_packet(1, a, b));
        net.schedule_flow(SimTime::from_micros(200), one_packet(4, a, b));
        net.run_until(SimTime::from_micros(50));
        assert_eq!(net.records().len(), 1);
        // Flow 4 has not started; these two are listed behind it, out of
        // order, one of them at the present instant.
        net.schedule_flow(SimTime::from_micros(80), one_packet(3, a, b));
        let now = net.now();
        net.schedule_flow(now, one_packet(2, a, b));
        net.run_until_idle();
        let starts: Vec<(u64, u64)> = record_times(&net).iter().map(|r| (r.0, r.1)).collect();
        assert_eq!(
            starts,
            [(1, 10_000), (2, now.as_nanos()), (3, 80_000), (4, 200_000)]
        );
        // And once every listed flow has started, a new one still does.
        net.schedule_flow(SimTime::from_micros(300), one_packet(5, a, b));
        net.run_until_idle();
        assert_eq!(net.records()[4].start, SimTime::from_micros(300));
    }

    #[test]
    fn event_ceiling_counts_queued_events_not_scheduled_flows() {
        // 20 one-packet flows 100 us apart never queue more than a couple
        // of events at once: a ceiling of 4 holds, though 20 flows wait.
        let build = |ceiling| {
            let (mut net, a, b) = one_shot_rig();
            for f in 0..20 {
                net.schedule_flow(SimTime::from_micros(10 + 100 * f), one_packet(f, a, b));
            }
            net.set_supervision(Supervision {
                event_ceiling: Some(ceiling),
                ..Supervision::default()
            });
            net
        };
        let mut net = build(4);
        assert_eq!(net.events.len(), 0);
        net.try_run_until_idle()
            .expect("a few queued events at most");
        assert_eq!(net.records().len(), 20);
        // A ceiling of 0 trips on the first event the run pushes: the
        // first flow's packet, at its start.
        match build(0).try_run_until_idle() {
            Err(SimError::MemBudgetExceeded { breach, time_ns }) => {
                assert_eq!((time_ns, breach.node, breach.live), (10_000, Some(0), 1));
            }
            other => panic!("expected MemBudgetExceeded, got {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "source node n16777216 does not fit")]
    fn arrival_rejects_a_source_past_24_bits() {
        let (mut net, _, b) = one_shot_rig();
        net.schedule_flow(SimTime::ZERO, one_packet(1, NodeId(1 << 24), b));
    }

    #[test]
    #[should_panic(expected = "destination node n4294967296 does not fit")]
    fn arrival_rejects_a_destination_past_32_bits() {
        let (mut net, a, _) = one_shot_rig();
        net.schedule_flow(SimTime::ZERO, one_packet(1, a, NodeId(1 << 32)));
    }

    #[test]
    #[should_panic(expected = "more than 2^32 past the arrival list's base")]
    fn arrival_rejects_a_tag_offset_past_32_bits() {
        let (mut net, a, b) = one_shot_rig();
        net.schedule_flow(SimTime::ZERO, one_packet(1, a, b));
        net.setup_k += 1 << 32;
        net.schedule_flow(SimTime::ZERO, one_packet(2, a, b));
    }

    #[test]
    #[should_panic(expected = "extra delay")]
    fn arrival_rejects_an_extra_delay_past_32_bits() {
        let (mut net, a, b) = one_shot_rig();
        let mut cmd = one_packet(1, a, b);
        cmd.extra_delay = Duration::from_nanos(1 << 32);
        net.schedule_flow(SimTime::ZERO, cmd);
    }

    #[test]
    fn extra_delay_inflates_rtt() {
        struct DelayedSender;
        impl Agent for DelayedSender {
            fn on_packet(&mut self, ctx: &mut Ctx<'_>, pkt: Packet) {
                if pkt.flags().ack {
                    ctx.flow_done(pkt.flow, 0);
                }
            }
            fn on_timer(&mut self, _: &mut Ctx<'_>, _: u64) {}
            fn on_flow_cmd(&mut self, ctx: &mut Ctx<'_>, cmd: FlowCmd) {
                let p = Packet::data(cmd.flow, cmd.src, cmd.dst, 0, cmd.size);
                ctx.send_delayed(p, cmd.extra_delay);
            }
        }
        let mut net = Network::new(3);
        let a = net.add_host(Box::new(DelayedSender));
        let b = net.add_host(Box::new(EchoAgent));
        let s = net.add_switch();
        let cfg = || PortConfig::fifo(1_000_000, Box::new(DropTail::new()));
        net.connect(
            a,
            cfg(),
            s,
            cfg(),
            Rate::from_gbps(10),
            Duration::from_micros(1),
        );
        net.connect(
            b,
            cfg(),
            s,
            cfg(),
            Rate::from_gbps(10),
            Duration::from_micros(1),
        );
        net.compute_routes();
        net.schedule_flow(
            SimTime::ZERO,
            FlowCmd {
                flow: FlowId(1),
                src: a,
                dst: b,
                size: 1460,
                class: 0,
                extra_delay: Duration::from_micros(100),
            },
        );
        net.run_until_idle();
        let fct = net.records()[0].fct().as_micros_f64();
        assert!(fct > 104.0 && fct < 112.0, "fct {fct}us");
    }

    #[test]
    fn ecmp_spreads_flows_but_not_packets() {
        // a -- s1 -- {s2,s3} -- s4 -- b : two equal-cost paths.
        let mut net = Network::new(4);
        let a = net.add_host(Box::new(NullAgent));
        let b = net.add_host(Box::new(NullAgent));
        let s1 = net.add_switch();
        let s2 = net.add_switch();
        let s3 = net.add_switch();
        let s4 = net.add_switch();
        let cfg = || PortConfig::fifo(1_000_000, Box::new(DropTail::new()));
        let r = Rate::from_gbps(10);
        let d = Duration::from_micros(1);
        net.connect(a, cfg(), s1, cfg(), r, d);
        net.connect(s1, cfg(), s2, cfg(), r, d);
        net.connect(s1, cfg(), s3, cfg(), r, d);
        net.connect(s2, cfg(), s4, cfg(), r, d);
        net.connect(s3, cfg(), s4, cfg(), r, d);
        net.connect(s4, cfg(), b, cfg(), r, d);
        net.compute_routes();
        // 200 flows, 3 packets each.
        for f in 0..200u64 {
            for k in 0..3 {
                inject(&mut net, a, Packet::data(FlowId(f), a, b, k * 1460, 1460));
            }
        }
        net.run_until_idle();
        let v2 = net
            .port_stats(s1, net.port_towards(s1, s2).unwrap())
            .dequeued;
        let v3 = net
            .port_stats(s1, net.port_towards(s1, s3).unwrap())
            .dequeued;
        assert_eq!(v2 + v3, 600);
        // Both paths used, roughly evenly.
        assert!(v2 > 150 && v3 > 150, "v2={v2} v3={v3}");
        // Flow-consistency: each flow's 3 packets all on one path ⇒ both
        // counters divisible by 3.
        assert_eq!(v2 % 3, 0);
        assert_eq!(v3 % 3, 0);
        assert_eq!(net.port_stats(b, 0).enqueued, 0, "b sent nothing");
    }

    #[test]
    fn deterministic_replay() {
        let run = |seed| {
            let (mut net, a, b, _s) = two_hosts();
            let _ = seed;
            for f in 0..50u64 {
                inject(&mut net, a, Packet::data(FlowId(f), a, b, 0, 1460));
            }
            net.run_until_idle();
            (net.now(), net.steps())
        };
        assert_eq!(run(1), run(1));
    }

    #[test]
    #[cfg(feature = "telemetry")]
    fn tracing_records_packet_lifecycle() {
        /// Records the node of every `PacketEnqueued` event, in order.
        struct Enqueues(Vec<NodeId>);
        impl Subscriber for Enqueues {
            fn on_packet_enqueued(
                &mut self,
                meta: &ecnsharp_telemetry::Meta,
                _: &ecnsharp_telemetry::PacketEnqueued,
            ) {
                self.0.push(NodeId(meta.node as usize));
            }
        }
        let (mut net, a, b, s) = two_hosts_with(Enqueues(Vec::new()));
        inject(&mut net, a, Packet::data(FlowId(3), a, b, 0, 1460));
        net.run_until_idle();
        // Data a->s->b and the echo ACK b->s->a: one enqueue per egress
        // port, four in all.
        assert_eq!(net.subscriber().0, [a, s, b, s]);
    }

    /// a -- s1 -- {s2,s3} -- s4 -- b : two equal-cost paths (failover rig).
    fn diamond() -> (Network, NodeId, NodeId, NodeId, NodeId, NodeId, NodeId) {
        diamond_with_sink(Box::new(NullAgent))
    }

    /// [`diamond`] with `sink` as host b's agent.
    fn diamond_with_sink(
        sink: Box<dyn Agent>,
    ) -> (Network, NodeId, NodeId, NodeId, NodeId, NodeId, NodeId) {
        let mut net = Network::new(4);
        let a = net.add_host(Box::new(NullAgent));
        let b = net.add_host(sink);
        let s1 = net.add_switch();
        let s2 = net.add_switch();
        let s3 = net.add_switch();
        let s4 = net.add_switch();
        let cfg = || PortConfig::fifo(1_000_000, Box::new(DropTail::new()));
        let r = Rate::from_gbps(10);
        let d = Duration::from_micros(1);
        net.connect(a, cfg(), s1, cfg(), r, d);
        net.connect(s1, cfg(), s2, cfg(), r, d);
        net.connect(s1, cfg(), s3, cfg(), r, d);
        net.connect(s2, cfg(), s4, cfg(), r, d);
        net.connect(s3, cfg(), s4, cfg(), r, d);
        net.connect(s4, cfg(), b, cfg(), r, d);
        net.compute_routes();
        (net, a, b, s1, s2, s3, s4)
    }

    #[test]
    fn ecmp_fails_over_around_downed_link_and_recovers() {
        let (mut net, a, b, s1, s2, s3, s4) = diamond();
        net.set_link_up(s1, s2, false);
        assert!(!net.link_is_up(s1, s2));
        for f in 0..100u64 {
            inject(&mut net, a, Packet::data(FlowId(f), a, b, 0, 1460));
        }
        net.run_until_idle();
        let v2 = net
            .port_stats(s1, net.port_towards(s1, s2).unwrap())
            .dequeued;
        let v3 = net
            .port_stats(s1, net.port_towards(s1, s3).unwrap())
            .dequeued;
        assert_eq!(v2, 0, "downed link must carry nothing");
        assert_eq!(v3, 100, "all traffic fails over to the surviving path");
        let delivered = net
            .port_stats(s4, net.port_towards(s4, b).unwrap())
            .dequeued;
        assert_eq!(delivered, 100, "nothing was lost");
        // Bring the link back: ECMP spreads across both paths again.
        net.set_link_up(s1, s2, true);
        for f in 0..100u64 {
            inject(&mut net, a, Packet::data(FlowId(f), a, b, 0, 1460));
        }
        net.run_until_idle();
        let v2 = net
            .port_stats(s1, net.port_towards(s1, s2).unwrap())
            .dequeued;
        assert!(v2 > 0, "restored link carries traffic again");
    }

    #[test]
    fn unreachable_destination_drops_are_counted_not_fatal() {
        // Down both diamond arms: b is unreachable from s1 but the run
        // must terminate with counted no-route drops, not a hang or panic.
        let (mut net, a, b, s1, s2, s3, _s4) = diamond();
        net.set_link_up(s1, s2, false);
        net.set_link_up(s1, s3, false);
        for f in 0..10u64 {
            inject(&mut net, a, Packet::data(FlowId(f), a, b, 0, 1460));
        }
        net.run_until_idle();
        assert_eq!(net.perf().no_route_drops, 10);
        assert_eq!(net.port_stats(b, 0).enqueued, 0);
    }

    #[test]
    fn fault_plan_flap_replays_identically() {
        let run = || {
            let (mut net, a, b, s1, s2, _s3, s4) = diamond();
            net.install_fault_plan(crate::fault::FaultPlan::new().flap(
                s1,
                s2,
                SimTime::from_micros(5),
                Duration::from_micros(20),
                Duration::from_micros(10),
                SimTime::from_micros(300),
            ));
            for f in 0..200u64 {
                inject_at(
                    &mut net,
                    f * 1_000,
                    a,
                    Packet::data(FlowId(f), a, b, 0, 1460),
                );
            }
            net.run_until_idle();
            let v2 = net
                .port_stats(s1, net.port_towards(s1, s2).unwrap())
                .dequeued;
            let delivered = net
                .port_stats(s4, net.port_towards(s4, b).unwrap())
                .dequeued;
            (net.now(), net.steps(), v2, delivered)
        };
        let one = run();
        assert_eq!(one, run(), "flap schedule must be replay-identical");
        assert!(one.2 > 0, "flapping link still carried some traffic");
        assert_eq!(one.3, 200, "flaps delay but do not lose routed packets");
    }

    #[test]
    fn link_rate_and_delay_degradation_apply() {
        // Degrade the a–s link before any traffic: 10 Gbps → 1 Gbps and
        // 1 us → 100 us one-way.
        let (mut net, a, b, s) = two_hosts();
        net.install_fault_plan(
            crate::fault::FaultPlan::new()
                .at(
                    SimTime::ZERO,
                    crate::fault::FaultAction::SetLinkRate {
                        a,
                        b: s,
                        rate: Rate::from_gbps(1),
                    },
                )
                .at(
                    SimTime::ZERO,
                    crate::fault::FaultAction::SetLinkDelay {
                        a,
                        b: s,
                        delay: Duration::from_micros(100),
                    },
                ),
        );
        inject(&mut net, a, Packet::data(FlowId(1), a, b, 0, 1460));
        net.run_until_idle();
        // Data tx 12304 ns + 100 us prop on the first hop alone dwarfs the
        // original ~6.6 us round trip.
        let t = net.now().as_nanos();
        assert!(t > 110_000, "degraded path too fast: {t}ns");
    }

    #[test]
    #[should_panic(expected = "no route")]
    fn missing_routes_panic() {
        let mut net = Network::new(5);
        let a = net.add_host(Box::new(NullAgent));
        let b = net.add_host(Box::new(NullAgent));
        let s = net.add_switch();
        let cfg = || PortConfig::fifo(1_000_000, Box::new(DropTail::new()));
        net.connect(
            a,
            cfg(),
            s,
            cfg(),
            Rate::from_gbps(10),
            Duration::from_micros(1),
        );
        net.connect(
            b,
            cfg(),
            s,
            cfg(),
            Rate::from_gbps(10),
            Duration::from_micros(1),
        );
        // compute_routes() deliberately not called.
        inject(&mut net, a, Packet::data(FlowId(1), a, b, 0, 100));
        net.run_until_idle();
    }

    // ── a port schedules `TxDone` only when something is waiting ───────

    /// `(arrival ns, flow id, CE-marked)` of every packet a host received.
    type Deliveries = Arc<std::sync::Mutex<Vec<(u64, u64, bool)>>>;

    /// A sink that logs what reaches it and answers nothing.
    struct Recorder(Deliveries);

    impl Agent for Recorder {
        fn on_packet(&mut self, ctx: &mut Ctx<'_>, pkt: Packet) {
            let ce = pkt.ecn() == crate::packet::Ecn::Ce;
            self.0
                .lock()
                .unwrap()
                .push((ctx.now.as_nanos(), pkt.flow.0, ce));
        }
        fn on_timer(&mut self, _: &mut Ctx<'_>, _: u64) {}
        fn on_flow_cmd(&mut self, _: &mut Ctx<'_>, _: FlowCmd) {}
    }

    /// Every transmission either queued its `TxDone` or elided it.
    fn assert_tx_done_identity<S: Subscriber>(net: &Network<S>) {
        let c = net.perf();
        assert_eq!(
            c.tx_done_pushed + c.tx_done_elided,
            c.packets_forwarded - c.burst_drops,
            "{c:?}"
        );
    }

    /// One arrival the port rig is asked to deliver to the port under test.
    #[derive(Debug, Clone, Copy)]
    struct Arrival {
        /// `None`: arrive at the exact instant the port's wire is free
        /// again. `Some(gap)`: arrive `gap` ns after the previous arrival.
        gap: Option<u64>,
        payload: u64,
        /// Deliver through the feeder whose `Arrive` tags sort above the
        /// port's own `TxDone` tags (`false`: the one sorting below).
        above: bool,
        ect: bool,
    }

    /// What the closed form predicts for the port under test.
    #[derive(Default)]
    struct Predicted {
        /// `(departure ns, flow id, CE-marked)` per transmitted packet.
        departs: Vec<(u64, u64, bool)>,
        stats: PortStats,
        /// Transmissions, on any port of the rig, that had a packet waiting
        /// behind them by the time the wire was free: exactly the `TxDone`s
        /// worth queueing.
        tx_done_needed: u64,
    }

    /// Feeder links: 8 Gbps serializes one wire byte per ns.
    const FEED_DELAY: u64 = 100;
    /// Port under test: 1 Gbps serializes one wire byte per 8 ns.
    const PORT_DELAY: u64 = 1_000;

    /// The one-port rig: two feeder hosts deliver packets to switch `s`,
    /// whose port towards the sink — 1 Gbps, `capacity` bytes of buffer,
    /// DCTCP-RED at `k` bytes — is the port under test. Node ids are
    /// lo = 0 < s = 1 < hi = 2, so at one instant an arrival from `lo`
    /// sorts below the port's own `TxDone` tag and one from `hi` above it.
    ///
    /// The oracle is the closed form of a FIFO server, worked in plain
    /// integers: `depart[i] = max(arrive[i], depart[i-1]) + tx[i]` over the
    /// admitted packets, where a packet is in the backlog an arrival sees
    /// iff it had to wait for the wire and its start is ordered after that
    /// arrival. It shares nothing with `kick` — no event queue, no tags,
    /// no `WireFree`. The run is cut in two at `cut_after` ns past the
    /// `cut_at`-th arrival (a `run_until` that stops with transmissions in
    /// flight, then resumes); at the cut the port holds exactly the
    /// admitted packets that arrived at or before it and start after it.
    fn check_port_against_closed_form(
        capacity: u64,
        k: u64,
        arrivals: &[Arrival],
        cut_at: usize,
        cut_after: u64,
    ) {
        let log: Deliveries = Default::default();
        let mut net = Network::new(9);
        let lo = net.add_host(Box::new(NullAgent));
        let s = net.add_switch();
        let hi = net.add_host(Box::new(NullAgent));
        let sink = net.add_host(Box::new(Recorder(log.clone())));
        let deep = || PortConfig::fifo(10_000_000, Box::new(DropTail::new()));
        let feed = Duration::from_nanos(FEED_DELAY);
        net.connect(lo, deep(), s, deep(), Rate::from_gbps(8), feed);
        net.connect(hi, deep(), s, deep(), Rate::from_gbps(8), feed);
        let under_test = PortConfig::fifo(
            capacity,
            Box::new(ecnsharp_aqm::DctcpRed::with_threshold(k)),
        );
        let (out, _) = net.connect(
            s,
            under_test,
            sink,
            deep(),
            Rate::from_gbps(1),
            Duration::from_nanos(PORT_DELAY),
        );
        net.compute_routes();

        // Plan the injections and work the closed form side by side.
        let mut want = Predicted::default();
        // Admitted packets: (arrival ns, start ns, waited for the wire,
        // wire bytes).
        let mut admitted: Vec<(u64, u64, bool, u64)> = Vec::new();
        let mut depart_prev = 0u64;
        let mut feeder_free = [0u64; 2];
        // Position of the previous arrival: (ns, 0 below / 2 above the
        // port's TxDone, which sits at 1).
        let mut last = (0u64, 0u8);
        let mut cut = None;
        for (i, a) in arrivals.iter().enumerate() {
            let flow = i as u64 + 1;
            let mut pkt = Packet::data(FlowId(flow), lo, sink, 0, a.payload);
            if !a.ect {
                pkt.set_ecn(crate::packet::Ecn::NotEct);
            }
            let wire = pkt.wire_bytes();
            let rank = if a.above { 2u8 } else { 0 };
            let target = match a.gap {
                None => depart_prev.max(last.0),
                Some(gap) => last.0 + gap,
            };
            // The feeder must be idle when the packet enters its NIC, and
            // arrivals are planned in strictly increasing position.
            let f = a.above as usize;
            let mut inject = target.saturating_sub(wire + FEED_DELAY).max(feeder_free[f]);
            if (inject + wire + FEED_DELAY, rank) <= last {
                inject = last.0 + 1 - wire - FEED_DELAY;
            }
            let t = inject + wire + FEED_DELAY;
            // Entering the NIC at the instant its last serialization ends
            // is an arrival below the feeder's own reserved tag.
            want.tx_done_needed += (feeder_free[f] > 0 && inject == feeder_free[f]) as u64;
            feeder_free[f] = inject + wire;
            last = (t, rank);
            inject_at(&mut net, inject, if a.above { hi } else { lo }, pkt);
            if i == cut_at {
                cut = Some(t + cut_after);
            }

            // Closed form at the port under test.
            let backlog: u64 = admitted
                .iter()
                .filter(|&&(_, start, waited, _)| waited && (start, 1) > (t, rank))
                .map(|&(_, _, _, w)| w)
                .sum();
            if backlog + wire > capacity {
                want.stats.tail_drops += 1;
                continue;
            }
            let over = backlog + wire > k;
            if over && !a.ect {
                want.stats.aqm_enq_drops += 1;
                continue;
            }
            want.stats.enqueued += 1;
            want.stats.enq_marks += over as u64;
            let waited = (depart_prev, 1) > (t, rank);
            let start = if waited { depart_prev } else { t };
            admitted.push((t, start, waited, wire));
            want.tx_done_needed += waited as u64;
            depart_prev = start + wire * 8;
            want.departs.push((depart_prev, flow, over));
        }
        want.stats.dequeued = want.stats.enqueued;

        if let Some(cut) = cut {
            net.run_until(SimTime::from_nanos(cut));
            assert!(net.now().as_nanos() <= cut);
            let queued = admitted
                .iter()
                .filter(|&&(arrive, start, _, _)| arrive <= cut && start > cut);
            let want_backlog = queued.fold((0, 0), |(b, n), &(_, _, _, w)| (b + w, n + 1));
            assert_eq!(
                net.backlog(s, out),
                want_backlog,
                "backlog after run_until({cut})"
            );
        }
        net.run_until_idle();

        let got: Vec<(u64, u64, bool)> = log
            .lock()
            .unwrap()
            .iter()
            .map(|&(at, flow, ce)| (at - PORT_DELAY, flow, ce))
            .collect();
        assert_eq!(got, want.departs, "departures (ns, flow, CE)");
        assert_eq!(net.port_stats(s, out), want.stats);
        let c = net.perf();
        assert_eq!(c.tx_done_pushed, want.tx_done_needed);
        assert_tx_done_identity(&net);
        let n = arrivals.len() as u64;
        assert_eq!(
            net.steps(),
            n + n + want.stats.dequeued + want.tx_done_needed,
            "NicSend + Arrive at s + Arrive at the sink + queued TxDone"
        );
        assert_eq!(c.events_pushed, c.events_popped, "nothing left queued");
    }

    fn arrival(gap: Option<u64>, payload: u64, above: bool, ect: bool) -> Arrival {
        Arrival {
            gap,
            payload,
            above,
            ect,
        }
    }

    #[test]
    fn port_matches_closed_form_on_the_named_cases() {
        let mtu = 1460;
        // Arrivals at exactly the instant a serialization ends, below and
        // above the reserved tag, onto an idle wire and behind a backlog.
        for above in [false, true] {
            check_port_against_closed_form(
                100_000,
                100_000,
                &[
                    arrival(Some(5_000), mtu, false, true),
                    arrival(None, 100, above, true),
                    arrival(None, 700, above, true),
                    arrival(Some(0), 300, !above, true),
                    arrival(None, mtu, !above, true),
                ],
                1,
                1,
            );
        }
        // A tail drop and an AQM enqueue drop onto a port that is
        // serializing with no `TxDone` queued: the refused packet must not
        // queue one, and the next admitted packet still waits its turn.
        check_port_against_closed_form(
            1_000,
            500,
            &[
                arrival(Some(2_000), 400, false, true),
                arrival(Some(50), mtu, true, true),   // tail drop
                arrival(Some(50), 600, false, false), // AQM drop (not ECT)
                arrival(Some(50), 600, true, true),   // admitted, CE-marked
                arrival(Some(10_000), 400, false, true),
            ],
            0,
            10,
        );
        // `run_until` stopping between a transmission and its un-pushed
        // `TxDone`, then a packet turning up before the key.
        check_port_against_closed_form(
            100_000,
            100_000,
            &[
                arrival(Some(3_000), mtu, false, true),
                arrival(Some(6_000), mtu, true, true),
            ],
            0,
            3_000,
        );
        // Cuts exactly on an event: the second arrival (5 100 ns), and the
        // end of the first serialization, which the queued second packet
        // waits for (17 304 ns). A read there must see every event of
        // that instant.
        let three = [
            arrival(Some(5_000), mtu, false, true),
            arrival(Some(100), mtu, true, true),
            arrival(Some(100), mtu, false, true),
        ];
        for cut_after in [0, 12_204] {
            check_port_against_closed_form(100_000, 100_000, &three, 1, cut_after);
        }
    }

    mod port_prop {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(96))]

            /// Random arrival times, sizes, ECN capability and feeder side,
            /// a third of them aimed at the instant the wire frees up,
            /// against buffers small enough to drop and mark.
            #[test]
            fn prop_port_matches_closed_form(
                capacity in 600u64..6_000,
                k in 300u64..4_000,
                raw in proptest::collection::vec(
                    (0u8..3, 0u64..20_000, 0u64..1_461, any::<bool>(), 0u8..4),
                    1..48,
                ),
                cut_at in 0usize..48,
                cut_after in 0u64..15_000,
            ) {
                let arrivals: Vec<Arrival> = raw
                    .iter()
                    .map(|&(mode, gap, payload, above, ect)| {
                        arrival((mode != 0).then_some(gap), payload, above, ect != 0)
                    })
                    .collect();
                check_port_against_closed_form(capacity, k, &arrivals, cut_at, cut_after);
            }
        }
    }

    /// What a diamond timeline leaves behind: when each packet reached b,
    /// `TxDone`s queued, `TxDone`s elided, steps.
    type Timeline = (Vec<u64>, u64, u64, u64);

    /// The diamond with a recording sink at b and two MTU packets of one
    /// flow (one ECMP path) entering a's NIC at 0 and 600 ns. Every link is
    /// 10 Gbps / 1 us, so one hop is 1230 ns of serialization plus 1000 ns
    /// of flight and P1 reaches b at 4 x 2230 = 8920 ns whatever happens
    /// behind it. `prepare` gets the network before the packets are
    /// injected, `a` and `s1` — node ids are a, b, s1..s4 = 0..=5. Runs
    /// once serially and on two two-shard plans, which must all agree.
    fn diamond_timeline(prepare: impl Fn(&mut Network, NodeId, NodeId)) -> Timeline {
        let run = |plan: Option<crate::ShardPlan>| {
            let log: Deliveries = Default::default();
            let (mut net, a, b, s1, ..) = diamond_with_sink(Box::new(Recorder(log.clone())));
            prepare(&mut net, a, s1);
            inject_at(&mut net, 0, a, Packet::data(FlowId(1), a, b, 0, 1460));
            inject_at(&mut net, 600, a, Packet::data(FlowId(1), a, b, 1460, 1460));
            match plan {
                Some(plan) => net.run_sharded_until_idle(&plan),
                None => net.run_until_idle(),
            };
            assert_tx_done_identity(&net);
            let c = net.perf();
            let arrivals: Vec<u64> = log.lock().unwrap().iter().map(|d| d.0).collect();
            // The engine must also come to rest at the same step key, with
            // the same counters (a sharded peak is the sum of the shards').
            let timeline = (arrivals, c.tx_done_pushed, c.tx_done_elided, net.steps());
            let rest = PerfCounters {
                peak_pending: 0,
                ..c
            };
            (timeline, net.now(), net.cur_tag, rest)
        };
        let serial = run(None);
        // a, s1, s4 against b, s2, s3: the faulted link stays inside one
        // shard. a, s2, s4 against b, s1, s3: it crosses, so the fault's
        // two kicked ports sit on different shards. Every path crosses to
        // the other shard and back either way.
        for owner in [vec![0, 1, 0, 1, 1, 0], vec![0, 1, 1, 0, 1, 0]] {
            let sharded = run(Some(crate::ShardPlan::new(owner.clone())));
            assert_eq!(serial, sharded, "serial vs two shards {owner:?}");
        }
        serial.0
    }

    fn ns(t: u64) -> SimTime {
        SimTime::from_nanos(t)
    }

    #[test]
    fn link_down_mid_serialization_then_up_before_the_reserved_key() {
        use crate::fault::{FaultAction::*, FaultPlan};
        // 0     P1 starts on a's NIC; nothing waits, so its TxDone key
        //       (1230, a's tag) is only reserved.
        // 500   link down: P1 stays on the wire (its Arrive is queued).
        // 600   P2 enters the NIC queue; the port is down, no kick.
        // 1000  link up, before the key: P2 waits, so the TxDone is queued
        //       now, at 1230.
        // 1230  TxDone: P2 starts. From here P2 follows P1 back to back —
        //       it reaches each switch at the instant P1's serialization
        //       ends there, on an Arrive tag below the switch's own — so
        //       s1, s2|s3 and s4 each queue one TxDone too.
        // P2 reaches b at 1230 + 4 x 2230 = 10150.
        let got = diamond_timeline(|net, a, s1| {
            net.install_fault_plan(
                FaultPlan::new()
                    .at(ns(500), LinkDown { a, b: s1 })
                    .at(ns(1_000), LinkUp { a, b: s1 }),
            )
        });
        // Steps: NicSend + fault + Arrive + TxDone.
        assert_eq!(got, (vec![8_920, 10_150], 4, 4, 2 + 2 + 8 + 4));
    }

    #[test]
    fn link_up_after_the_reserved_key_transmits_at_once() {
        use crate::fault::{FaultAction::*, FaultPlan};
        // As above until 600. 1230 passes with no event: the key was never
        // queued. 2000: link up, past the key — the wire is free and P2
        // starts inside the fault step. P1 is now 770 ns + one hop ahead,
        // so P2 finds every port idle: no TxDone anywhere.
        // P2 reaches b at 2000 + 4 x 2230 = 10920.
        let got = diamond_timeline(|net, a, s1| {
            net.install_fault_plan(
                FaultPlan::new()
                    .at(ns(500), LinkDown { a, b: s1 })
                    .at(ns(2_000), LinkUp { a, b: s1 }),
            )
        });
        assert_eq!(got, (vec![8_920, 10_920], 0, 8, 2 + 2 + 8));
    }

    #[test]
    fn fault_at_the_reserved_instant_sorts_by_its_real_tag() {
        use crate::fault::{FaultAction::*, FaultPlan};
        // Link up at exactly 1230. The fault's set-up tag sorts below the
        // reserved runtime tag, so the fault step finds the wire still
        // busy and queues the TxDone, which pops next at the same instant
        // and starts P2: the first timeline again. A minimum-size packet
        // from b towards a reaches s4 at 1067, so the last event before
        // the fault carries b's tag, which sorts *above* a's reserved one:
        // the fault must be placed by its own tag, not by a stale one.
        // With a unreachable the packet dies at s4 for want of a route:
        // 1 NicSend, 1 Arrive, 1 elided TxDone (b's NIC).
        let got = diamond_timeline(|net, a, s1| {
            net.install_fault_plan(
                FaultPlan::new()
                    .at(ns(500), LinkDown { a, b: s1 })
                    .at(ns(1_230), LinkUp { a, b: s1 }),
            );
            let b = NodeId(1);
            inject_at(net, 0, b, Packet::ack(FlowId(2), b, a, 0));
        });
        assert_eq!(got, (vec![8_920, 10_150], 4, 5, 3 + 2 + 9 + 4));

        // The other side of the tie: the reserved tag is itself a set-up
        // tag (a manual link-up started P1), and the plan — installed
        // afterwards — holds higher ones. The fault at 1230 is then
        // ordered after the key: the wire is free and P2 starts inside the
        // fault step, with no TxDone on a's NIC (3 behind it, as before).
        let log: Deliveries = Default::default();
        let (mut net, a, b, s1, ..) = diamond_with_sink(Box::new(Recorder(log.clone())));
        net.set_link_up(a, s1, false);
        inject_at(&mut net, 0, a, Packet::data(FlowId(1), a, b, 0, 1460));
        net.run_until(ns(0));
        assert_eq!(net.backlog(a, 0).1, 1, "P1 waits behind the downed link");
        net.set_link_up(a, s1, true);
        net.install_fault_plan(
            FaultPlan::new()
                .at(ns(500), LinkDown { a, b: s1 })
                .at(ns(1_230), LinkUp { a, b: s1 }),
        );
        inject_at(&mut net, 600, a, Packet::data(FlowId(1), a, b, 1460, 1460));
        net.run_until_idle();
        let arrivals: Vec<u64> = log.lock().unwrap().iter().map(|d| d.0).collect();
        assert_eq!(arrivals, [8_920, 10_150]);
        assert_eq!(net.perf().tx_done_pushed, 3);
        assert_eq!(net.steps(), 2 + 2 + 8 + 3);
    }

    #[test]
    fn rate_degradation_mid_serialization_applies_from_the_next_packet() {
        use crate::fault::{FaultAction::*, FaultPlan};
        // 500   a-s1 drops to 1 Gbps while P1 is on the wire with its
        //       TxDone only reserved: the key stays at 1230 (an in-flight
        //       serialization keeps its old tx time).
        // 600   P2 arrives before the key and waits: TxDone queued at 1230.
        // 1230  P2 starts at 1 Gbps: 12304 ns on the wire, done at 13534,
        //       at s1 at 14534, then three 10 Gbps hops on idle ports.
        // P2 reaches b at 14534 + 3 x 2230 = 21224.
        let got = diamond_timeline(|net, a, s1| {
            net.install_fault_plan(FaultPlan::new().at(
                ns(500),
                SetLinkRate {
                    a,
                    b: s1,
                    rate: Rate::from_gbps(1),
                },
            ))
        });
        assert_eq!(got, (vec![8_920, 21_224], 1, 7, 2 + 1 + 8 + 1));
    }

    #[test]
    fn livelock_trip_with_reserved_keys_is_well_formed_and_replays() {
        let trip = || {
            let (mut net, a, b, _s) = two_hosts();
            let mut sup = Supervision::armed();
            sup.livelock_budget = Some(100);
            net.set_supervision(sup);
            // P1 is on a's NIC until 1230 with its TxDone only reserved
            // when the zero-delay cycle starts spinning at 500.
            inject(&mut net, a, Packet::data(FlowId(1), a, b, 0, 1460));
            net.inject_livelock_at(ns(500));
            net.try_run_until_idle()
                .expect_err("the drill must trip the guard")
        };
        let err = trip();
        match err {
            SimError::Livelock {
                time_ns,
                events_at_instant,
                budget,
                pending,
                oldest_key,
            } => {
                assert_eq!((time_ns, budget), (500, 100));
                assert!(events_at_instant > budget);
                // The drill and P1's Arrive at 2230; no TxDone at 1230.
                assert_eq!(pending, 2);
                assert_eq!(oldest_key.map(|k| k.0), Some(500));
            }
            ref other => panic!("expected Livelock, got {other:?}"),
        }
        assert_eq!(err, trip(), "the trip replays identically");
    }
}
