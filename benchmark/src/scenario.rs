//! The four benchmark workloads, built by hand from the public APIs of
//! the simulator crates, plus the output checks every run must pass.
//!
//! The three FCT workloads mirror `ecnsharp_experiments::run_testbed_star`,
//! `run_leaf_spine_sharded` and `run_fat_tree_sharded` step for step (same
//! seeds salts, same generation loops) so that the set-up and run phases
//! can be timed separately; `tests/parity.rs` pins that they produce the
//! same `FctBreakdown` as those runners.

use crate::trace::SpanLog;
use ecnsharp_aqm::DropTail;
use ecnsharp_experiments::{FctScenario, Scheme, SchemeParams};
use ecnsharp_net::topology::{
    fat_tree_with_subscriber, leaf_spine_with_subscriber, star_with_subscriber,
};
use ecnsharp_net::{
    Agent, FlowCmd, FlowOutcome, FlowRecord, Network, NodeId, PerfCounters, PortConfig, ShardPlan,
    ShardSubscriber,
};
use ecnsharp_sim::{Duration, Rate, Rng, SimTime};
use ecnsharp_stats::FctBreakdown;
use ecnsharp_transport::{TcpConfig, TcpStack};
use ecnsharp_workload::{dists, IncastSpec, Pattern, RttVariation, TrafficSpec};

/// Responses per incast query burst.
pub const INCAST_FANOUT: usize = 64;
/// Gap between incast query bursts.
const INCAST_PERIOD: Duration = Duration::from_millis(2);
/// Switch buffer of `incast_lossy`: a third of one burst's initial
/// windows, so every burst overflows it.
const INCAST_BUFFER: u64 = 150_000;
/// Leaf-spine shape of `leafspine_websearch`: spines × leaves × hosts
/// per leaf (the fig9 mid-scale fabric).
pub const LEAF_SPINE: (usize, usize, usize) = (8, 8, 16);
/// Fat-tree degree of `fattree_shard2` (k = 8 is 128 hosts).
pub const FAT_TREE_K: usize = 8;

/// One of the benchmark's fixed scenarios.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 8-host star, 7→1 web-search at load 0.6 under ECN♯.
    StarWebsearch,
    /// 8×8×16 leaf-spine, all-to-all web-search at load 0.5 under ECN♯.
    LeafspineWebsearch,
    /// 33-host star, 32→1 query bursts into a shallow tail-drop buffer.
    IncastLossy,
    /// k=8 fat-tree, all-to-all web-search, run on two shards.
    FattreeShard2,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 4] = [
        Workload::StarWebsearch,
        Workload::LeafspineWebsearch,
        Workload::IncastLossy,
        Workload::FattreeShard2,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::StarWebsearch => "star_websearch",
            Workload::LeafspineWebsearch => "leafspine_websearch",
            Workload::IncastLossy => "incast_lossy",
            Workload::FattreeShard2 => "fattree_shard2",
        }
    }

    /// Look a workload up by [`Workload::name`].
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Nominal flow count at full size.
    fn full_flows(self) -> usize {
        match self {
            Workload::StarWebsearch => 4_000,
            Workload::LeafspineWebsearch => 1_500,
            Workload::IncastLossy => 2_500 * INCAST_FANOUT,
            Workload::FattreeShard2 => 1_000,
        }
    }

    /// The benchmark's parameters for this workload: full size, or a
    /// twentieth of it for `--quick`.
    pub fn params(self, seed: u64, quick: bool) -> Params {
        let flows = if quick {
            self.full_flows() / 20
        } else {
            self.full_flows()
        };
        Params {
            workload: self,
            seed,
            flows,
            fixed_volume: true,
            shards: if self == Workload::FattreeShard2 {
                2
            } else {
                1
            },
        }
    }
}

/// Everything that determines one scenario instance.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Which scenario.
    pub workload: Workload,
    /// Feeds the topology seed and the traffic RNG.
    pub seed: u64,
    /// Nominal flow count (`incast_lossy`: bursts × [`INCAST_FANOUT`]).
    pub flows: usize,
    /// Cut the web-search traffic at `flows × mean flow size` bytes
    /// instead of at `flows` flows. The heavy-tailed size distribution
    /// makes the bytes carried by a fixed number of flows swing ±10 %
    /// from seed to seed; a fixed volume keeps the simulated work — and
    /// with it `run_wall_s` — comparable across seeds. `false` is the
    /// figure runners' behaviour (used by the parity test).
    pub fixed_volume: bool,
    /// Worker threads for the run phase (1 = serial engine).
    pub shards: u32,
}

impl Params {
    /// The serial run of the same scenario.
    pub fn serial_twin(self) -> Params {
        Params { shards: 1, ..self }
    }

    /// The `FctScenario` the web-search workloads are instances of.
    /// `None` for `incast_lossy`, which no figure runner covers.
    pub fn fct_scenario(&self) -> Option<FctScenario> {
        let mut sc = FctScenario::testbed(
            Scheme::EcnSharp(None),
            dists::web_search(),
            0.5,
            self.flows,
            self.seed,
        );
        match self.workload {
            Workload::StarWebsearch => sc.load = 0.6,
            Workload::LeafspineWebsearch => sc.rtt = RttVariation::sim_3x(),
            Workload::FattreeShard2 => {
                sc.rtt = RttVariation::sim_3x();
                sc.buffer = 200_000;
            }
            Workload::IncastLossy => return None,
        }
        Some(sc)
    }

    /// The switch egress ports of this workload: its AQM and buffer.
    pub fn switch_ports(&self) -> SwitchPorts {
        let rate = Rate::from_gbps(10);
        match self.fct_scenario() {
            Some(sc) => SwitchPorts {
                params: SchemeParams::derive(&sc.rtt, rate),
                scheme: sc.scheme,
                buffer: sc.buffer,
                // The dice salts of the figure runners.
                salt: match self.workload {
                    Workload::StarWebsearch => 0xEC0,
                    Workload::LeafspineWebsearch => 0xEC1,
                    _ => 0xFA7,
                },
            },
            None => SwitchPorts {
                params: SchemeParams::derive(&RttVariation::sim_3x(), rate),
                scheme: Scheme::DropTail,
                buffer: INCAST_BUFFER,
                salt: 0x1CA,
            },
        }
    }
}

/// Factory for a workload's switch egress-port configuration. Deriving
/// the thresholds samples the RTT model, so it is done once per set-up.
pub struct SwitchPorts {
    params: SchemeParams,
    scheme: Scheme,
    /// Per-port buffer in bytes.
    pub buffer: u64,
    salt: u64,
}

impl SwitchPorts {
    /// One port's configuration.
    pub fn make(&self) -> PortConfig {
        self.params.port(&self.scheme, self.buffer, self.salt)
    }
}

/// Host NIC ports: deep FIFO, no AQM.
fn nic_port() -> PortConfig {
    PortConfig::fifo(4_000_000, Box::new(DropTail::new()))
}

/// DCTCP endpoints, as in every figure runner.
fn endpoint(_host: usize) -> Box<dyn Agent> {
    TcpStack::boxed(TcpConfig::dctcp())
}

/// `incast_lossy`'s endpoints: DCTCP that never gives a flow up. With the
/// default eight retries, a handful of the 160 000 flows lose eight SYNs
/// or retransmissions in a row on some seeds and abort; a benchmark
/// workload must complete every operation on every seed.
fn patient_endpoint(_host: usize) -> Box<dyn Agent> {
    TcpStack::boxed(TcpConfig {
        max_rto_retries: 64,
        ..TcpConfig::dctcp()
    })
}

/// A scenario after set-up: topology built, routes computed, every flow
/// scheduled, shard plan cut.
pub struct Built<S: ShardSubscriber> {
    /// The network, ready to run.
    pub net: Network<S>,
    /// Partition for the sharded engine; `None` runs serial.
    pub plan: Option<ShardPlan>,
    /// The hosts, in creation order.
    pub hosts: Vec<NodeId>,
    /// Flows scheduled.
    pub scheduled: usize,
}

impl<S: ShardSubscriber> Built<S> {
    /// The run phase: everything to idle, on the engine the plan selects.
    pub fn run(&mut self) {
        match &self.plan {
            Some(plan) => self.net.run_sharded_until_idle(plan),
            None => self.net.run_until_idle(),
        };
    }
}

type Flows = Vec<(SimTime, FlowCmd)>;

/// Keep the prefix of `flows` whose sizes sum to `volume` bytes, trimming
/// the last kept flow so the sum is exact. A list that falls short of
/// `volume` is kept whole.
fn cut_to_volume(flows: &mut Flows, volume: u64) {
    let mut sum = 0u64;
    for (i, (_, cmd)) in flows.iter_mut().enumerate() {
        if sum + cmd.size >= volume {
            cmd.size = volume - sum;
            flows.truncate(i + 1);
            return;
        }
        sum += cmd.size;
    }
}

/// Web-search traffic over `pattern`, as the figure runners generate it:
/// one Poisson process for the star's bottleneck, or per-edge-link load
/// aggregated over every host for the all-to-all fabrics.
fn web_search(p: &Params, sc: &FctScenario, pattern: Pattern, rng_salt: u64) -> Flows {
    let mut rng = Rng::seed_from_u64(p.seed ^ rng_salt);
    // With a fixed volume, draw twice the nominal count so the cut
    // practically always lands inside the list.
    let n = if p.fixed_volume { 2 * p.flows } else { p.flows };
    let spec = TrafficSpec {
        cdf: sc.cdf.clone(),
        load: sc.load,
        bottleneck: sc.rate,
        pattern,
        rtt: sc.rtt,
        class: 0,
        start: SimTime::ZERO,
    };
    let mut flows = match &spec.pattern {
        Pattern::ManyToOne { .. } => spec.generate(n, 1, &mut rng),
        Pattern::AllToAll { hosts } => {
            let mean_gap = spec.mean_interarrival() / hosts.len() as u64;
            let mut t = SimTime::ZERO;
            (1..=n as u64)
                .map(|id| {
                    t += rng.exp_duration(mean_gap);
                    let (_, cmd) = spec
                        .generate(1, id, &mut rng)
                        .pop()
                        .expect("generate(1) yields one flow");
                    (t, cmd)
                })
                .collect()
        }
    };
    if p.fixed_volume {
        cut_to_volume(&mut flows, (p.flows as f64 * sc.cdf.mean()) as u64);
    }
    flows
}

/// Query bursts of [`INCAST_FANOUT`] responses from the 32 servers of a
/// 33-host star to the last host, one every [`INCAST_PERIOD`].
fn incast_bursts(p: &Params, hosts: &[NodeId]) -> Flows {
    let mut rng = Rng::seed_from_u64(p.seed ^ 0x1CA5);
    let fanout = INCAST_FANOUT as u64;
    (0..p.flows as u64 / fanout)
        .flat_map(|b| {
            let at = SimTime::ZERO + INCAST_PERIOD * b;
            IncastSpec::paper(hosts[..32].to_vec(), hosts[32], INCAST_FANOUT, at)
                .generate(1 + b * fanout, &mut rng)
        })
        .collect()
}

/// Where set-up spans go: the log and the span they hang under.
struct Phases<'a> {
    spans: &'a mut SpanLog,
    parent: Option<u32>,
}

impl Phases<'_> {
    fn phase<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        self.spans.scoped(name, self.parent, f)
    }

    /// Schedule every flow; returns how many there were.
    fn schedule<S: ShardSubscriber>(&mut self, net: &mut Network<S>, flows: Flows) -> usize {
        let scheduled = flows.len();
        self.phase("setup.schedule", || {
            for (at, cmd) in flows {
                net.schedule_flow(at, cmd);
            }
        });
        scheduled
    }

    /// Cut the shard plan of a sharded workload.
    fn plan(&mut self, p: &Params, cut: impl FnOnce(u32) -> ShardPlan) -> Option<ShardPlan> {
        (p.shards >= 2).then(|| self.phase("setup.shard_plan", || cut(p.shards)))
    }
}

/// Set a scenario up. `spans` receives one span per set-up phase under
/// `parent` (a disabled log makes that free).
pub fn build<S: ShardSubscriber>(
    p: &Params,
    sub: S,
    spans: &mut SpanLog,
    parent: Option<u32>,
) -> Built<S> {
    let mut ph = Phases { spans, parent };
    let seed = p.seed;
    let rate = Rate::from_gbps(10);
    let sc = p.fct_scenario();
    let rtt = sc.as_ref().map_or(RttVariation::sim_3x(), |sc| sc.rtt);
    // Each fabric realizes the minimum base RTT physically: 4, 8 or 12
    // propagation legs per round trip.
    let leg = |legs: u64| Duration::from_nanos(rtt.min().as_nanos() / legs);
    let web = |pattern: Pattern, rng_salt: u64| {
        let sc = sc
            .as_ref()
            .expect("a web-search workload has an FctScenario");
        web_search(p, sc, pattern, rng_salt)
    };
    match p.workload {
        Workload::StarWebsearch | Workload::IncastLossy => {
            let incast = p.workload == Workload::IncastLossy;
            let n_hosts = if incast { 33 } else { 8 };
            let agent = if incast { patient_endpoint } else { endpoint };
            let mut topo = ph.phase("setup.topology", || {
                let ports = p.switch_ports();
                let port = || ports.make();
                star_with_subscriber(seed, n_hosts, rate, leg(4), agent, nic_port, port, sub)
            });
            let flows = ph.phase("setup.traffic", || {
                if incast {
                    return incast_bursts(p, &topo.hosts);
                }
                let pattern = Pattern::ManyToOne {
                    senders: topo.hosts[..7].to_vec(),
                    receiver: topo.hosts[7],
                };
                web(pattern, 0x5EED)
            });
            let scheduled = ph.schedule(&mut topo.net, flows);
            Built {
                net: topo.net,
                plan: None,
                hosts: topo.hosts,
                scheduled,
            }
        }
        Workload::LeafspineWebsearch => {
            let (spines, leaves, hpl) = LEAF_SPINE;
            let mut topo = ph.phase("setup.topology", || {
                let ports = p.switch_ports();
                let port = || ports.make();
                leaf_spine_with_subscriber(
                    seed,
                    spines,
                    leaves,
                    hpl,
                    rate,
                    rate,
                    leg(8),
                    endpoint,
                    nic_port,
                    port,
                    sub,
                )
            });
            let flows = ph.phase("setup.traffic", || {
                let hosts = topo.hosts.clone();
                web(Pattern::AllToAll { hosts }, 0x1EAF)
            });
            let scheduled = ph.schedule(&mut topo.net, flows);
            let plan = ph.plan(p, |n| topo.shard_plan(n));
            Built {
                net: topo.net,
                plan,
                hosts: topo.hosts,
                scheduled,
            }
        }
        Workload::FattreeShard2 => {
            let mut topo = ph.phase("setup.topology", || {
                let ports = p.switch_ports();
                let port = || ports.make();
                fat_tree_with_subscriber(
                    seed,
                    FAT_TREE_K,
                    rate,
                    rate,
                    leg(12),
                    endpoint,
                    nic_port,
                    port,
                    sub,
                )
            });
            let flows = ph.phase("setup.traffic", || {
                let hosts = topo.hosts.clone();
                web(Pattern::AllToAll { hosts }, 0xFA77)
            });
            let scheduled = ph.schedule(&mut topo.net, flows);
            let plan = ph.plan(p, |n| topo.shard_plan(n));
            Built {
                net: topo.net,
                plan,
                hosts: topo.hosts,
                scheduled,
            }
        }
    }
}

/// What a finished run produced, plus the verdict of the output checks.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// FNV-1a over the flow records in record order.
    pub digest: u64,
    /// Flows scheduled (the workload's attempted operations).
    pub scheduled: usize,
    /// Flows aborted by their sender.
    pub aborted: usize,
    /// Packets the hosts put on their NICs (data, ACKs, retransmissions).
    pub host_tx_pkts: u64,
    /// Mean number of flows in progress: Σ FCT ÷ simulated time.
    pub concurrent_flows: f64,
    /// Engine counters at the end of the run.
    pub perf: PerfCounters,
    /// FCT statistics over the records.
    pub fct: FctBreakdown,
    /// Simulated time at idle.
    pub sim_end: SimTime,
    /// The checks that failed, empty on a correct run.
    pub violations: Vec<String>,
}

fn fnv1a(hash: &mut u64, word: u64) {
    for byte in word.to_le_bytes() {
        *hash ^= u64::from(byte);
        *hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
}

/// Digest of the flow records, order-sensitive.
pub fn digest(records: &[FlowRecord]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for r in records {
        for word in [
            r.flow.0,
            r.src.0 as u64,
            r.dst.0 as u64,
            r.size,
            r.start.as_nanos(),
            r.finish.as_nanos(),
            u64::from(r.class),
            u64::from(r.timeouts),
            u64::from(r.outcome == FlowOutcome::Completed),
        ] {
            fnv1a(&mut h, word);
        }
    }
    h
}

/// Check a network that ran to idle and summarize it. `spans` receives
/// `teardown.digest` and `teardown.stats`.
pub fn finish<S: ShardSubscriber>(
    built: &Built<S>,
    spans: &mut SpanLog,
    parent: Option<u32>,
) -> Outcome {
    let net = &built.net;
    let records = net.records();
    let mut violations = Vec::new();
    if records.len() + net.unfinished_flows() != built.scheduled {
        violations.push(format!(
            "records {} + unfinished {} != scheduled {}",
            records.len(),
            net.unfinished_flows(),
            built.scheduled
        ));
    }
    if net.unfinished_flows() != 0 {
        violations.push(format!(
            "{} flows unfinished at idle",
            net.unfinished_flows()
        ));
    }
    // Per-port conservation: what a port admitted it either put on the
    // wire or dropped at dequeue, and an idle network holds no bytes.
    for node in (0..net.node_count()).map(NodeId) {
        for port in 0..net.port_count(node) {
            let s = net.port_stats(node, port);
            let (backlog_bytes, backlog_pkts) = net.backlog(node, port);
            if s.enqueued != s.dequeued + s.aqm_deq_drops + backlog_pkts || backlog_bytes != 0 {
                violations.push(format!(
                    "port {}.{port}: enqueued {} != dequeued {} + dropped {} + backlog {backlog_pkts} ({backlog_bytes} B)",
                    node.0, s.enqueued, s.dequeued, s.aqm_deq_drops
                ));
            }
        }
    }
    // Delivered bytes: a completed flow's sender NIC carried at least
    // the flow's payload.
    let mut owed = vec![0u64; net.node_count()];
    for r in records
        .iter()
        .filter(|r| r.outcome == FlowOutcome::Completed)
    {
        owed[r.src.0] += r.size;
    }
    for (node, &owed) in owed.iter().enumerate().filter(|(_, &o)| o > 0) {
        let sent: u64 = net.tx_payload_per_class(NodeId(node), 0).iter().sum();
        if sent < owed {
            violations.push(format!(
                "host {node} sent {sent} B for {owed} B of completed flows"
            ));
        }
    }
    let host_tx_pkts = built
        .hosts
        .iter()
        .map(|&h| net.port_stats(h, 0).dequeued)
        .sum();
    let flow_secs: f64 = records.iter().map(|r| r.fct().as_secs_f64()).sum();
    let digest = spans.scoped("teardown.digest", parent, || digest(records));
    let fct = spans.scoped("teardown.stats", parent, || {
        FctBreakdown::from_records(records)
    });
    Outcome {
        digest,
        scheduled: built.scheduled,
        aborted: fct.failed as usize,
        host_tx_pkts,
        concurrent_flows: flow_secs / net.now().as_secs_f64(),
        perf: net.perf(),
        fct,
        sim_end: net.now(),
        violations,
    }
}
