//! Scenario builders and runners for the paper's experiment shapes.

use crate::scheme::{Scheme, SchemeParams};
use ecnsharp_aqm::DropTail;
use ecnsharp_net::topology::{fat_tree, leaf_spine, star, star_with_subscriber, LeafSpine, Star};
use ecnsharp_net::{
    FaultPlan, FlowId, GilbertElliott, Network, NodeId, NoopSubscriber, PortConfig, ShardPlan,
    SimError, Subscriber, Supervision,
};
use ecnsharp_sched::Dwrr;
use ecnsharp_sim::{Duration, Rate, Rng, SimTime};
use ecnsharp_stats::{FctBreakdown, QueueSummary};
use ecnsharp_transport::{TcpConfig, TcpStack};
use ecnsharp_workload::{IncastSpec, Pattern, PiecewiseCdf, RttVariation, TrafficSpec};

/// Common knobs of an FCT experiment.
#[derive(Debug, Clone)]
pub struct FctScenario {
    /// RNG seed (workload + network dice).
    pub seed: u64,
    /// Scheme installed on every switch egress port.
    pub scheme: Scheme,
    /// Link rate (10 Gbps everywhere in the paper).
    pub rate: Rate,
    /// Per-port buffer.
    pub buffer: u64,
    /// RTT-variation model; also determines link propagation delays (the
    /// model's minimum is realized physically).
    pub rtt: RttVariation,
    /// Flow-size distribution.
    pub cdf: PiecewiseCdf,
    /// Target bottleneck load.
    pub load: f64,
    /// Flows to run.
    pub n_flows: usize,
}

impl FctScenario {
    /// The paper's testbed defaults (§5.2): 10 Gbps, 3× RTT variation,
    /// web-search traffic, 1 MB port buffers.
    pub fn testbed(
        scheme: Scheme,
        cdf: PiecewiseCdf,
        load: f64,
        n_flows: usize,
        seed: u64,
    ) -> Self {
        FctScenario {
            seed,
            scheme,
            rate: Rate::from_gbps(10),
            buffer: 1_000_000,
            rtt: RttVariation::paper_3x(),
            cdf,
            load,
            n_flows,
        }
    }

    fn params(&self) -> SchemeParams {
        SchemeParams::derive(&self.rtt, self.rate)
    }
}

/// Host NIC ports: deep FIFO, no AQM (the queueing under study happens at
/// the switch).
fn nic_port() -> PortConfig {
    PortConfig::fifo(4_000_000, Box::new(DropTail::new()))
}

/// Run `net` to completion, serial (`plan` = `None`) or on the
/// conservative-PDES engine ([`Network::try_run_sharded_until_idle`]),
/// under its [`Supervision`]: a tripped guard or a panicking shard
/// returns the structured [`SimError`].
///
/// The shard-equivalence suite pins that both paths produce
/// byte-identical figures, so callers treat the choice purely as a
/// wall-clock knob.
fn run_to_idle(net: &mut Network, plan: Option<&ShardPlan>) -> Result<SimTime, SimError> {
    match plan {
        Some(p) => net.try_run_sharded_until_idle(p),
        None => net.try_run_until_idle(),
    }
}

/// Clamp a requested shard count to a topology's natural ceiling (leaf
/// count, pod count). Requests above it are clamped rather than rejected
/// so `ECNSHARP_SHARDS=8` works across a sweep of differently-sized
/// fabrics; 0/1 means serial.
fn effective_shards(requested: u32, max_shards: usize) -> u32 {
    requested.clamp(1, (max_shards as u32).max(1))
}

/// Endpoint transport used by every scenario. `ECNSHARP_DELACK` overrides
/// the delayed-ACK count (calibration experiments). The knob is strict
/// (see [`crate::env`]): a set-but-invalid value exits 2 instead of
/// silently running the default configuration.
fn endpoint_tcp() -> TcpConfig {
    let mut cfg = TcpConfig::dctcp();
    if let Some(n) = crate::env::or_exit(crate::env::delack()) {
        cfg.delack_count = n;
    }
    cfg
}

/// Run the 8-host testbed (7 senders → 1 receiver, §5.2). Returns the FCT
/// breakdown plus the bottleneck port's drop/mark stats.
pub fn run_testbed_star(sc: &FctScenario) -> (FctBreakdown, ecnsharp_net::PortStats) {
    let (fct, stats, _) = run_testbed_star_with_subscriber(sc, NoopSubscriber);
    (fct, stats)
}

/// [`run_testbed_star`] with a telemetry subscriber attached for the whole
/// run; returns it (consumed and handed back) alongside the results.
pub fn run_testbed_star_with_subscriber<S: Subscriber>(
    sc: &FctScenario,
    sub: S,
) -> (FctBreakdown, ecnsharp_net::PortStats, S) {
    let n_hosts = 8;
    let params = sc.params();
    // The star realizes the minimum base RTT: host→switch→host traverses
    // two links each way ⇒ 4 propagation legs per RTT.
    let link_delay = Duration::from_nanos(sc.rtt.min().as_nanos() / 4);
    let scheme = sc.scheme.clone();
    let buffer = sc.buffer;
    let mut topo = star_with_subscriber(
        sc.seed,
        n_hosts,
        sc.rate,
        link_delay,
        |_| TcpStack::boxed(endpoint_tcp()),
        nic_port,
        || params.port(&scheme, buffer, 0xEC0),
        sub,
    );
    let receiver = topo.hosts[n_hosts - 1];
    let senders: Vec<NodeId> = topo.hosts[..n_hosts - 1].to_vec();
    let spec = TrafficSpec {
        cdf: sc.cdf.clone(),
        load: sc.load,
        bottleneck: sc.rate,
        pattern: Pattern::ManyToOne { senders, receiver },
        rtt: sc.rtt,
        class: 0,
        start: SimTime::ZERO,
    };
    let mut rng = Rng::seed_from_u64(sc.seed ^ 0x5EED);
    for (at, cmd) in spec.generate(sc.n_flows, 1, &mut rng) {
        topo.net.schedule_flow(at, cmd);
    }
    topo.net.run_until_idle();
    let bport = topo
        .net
        .port_towards(topo.switch, receiver)
        .expect("receiver port");
    let stats = topo.net.port_stats(topo.switch, bport);
    crate::perf::absorb(&topo.net);
    let fct = FctBreakdown::from_records(topo.net.records());
    (fct, stats, topo.net.into_subscriber())
}

/// Schedule `sc.n_flows` all-to-all flows over `hosts`, with `sc.load`
/// read per edge link: every host sources flows at `load` of its uplink,
/// so the one aggregate arrival process runs at `hosts.len()` × the
/// single-link rate. Flow `k` (id `k + 1`) draws its gap from that
/// process, then its endpoints, size and extra delay from
/// `spec.generate(1, …)`, which also draws an arrival time of its own
/// that is thrown away. That draw order fixes every seed's flow list
/// (`benchmark/tests/parity.rs` pins it against an independent copy), so
/// the throwaway draw stays.
fn schedule_all_to_all(net: &mut Network, hosts: &[NodeId], sc: &FctScenario, salt: u64) {
    let spec = TrafficSpec {
        cdf: sc.cdf.clone(),
        load: sc.load,
        bottleneck: sc.rate,
        pattern: Pattern::AllToAll {
            hosts: hosts.to_vec(),
        },
        rtt: sc.rtt,
        class: 0,
        start: SimTime::ZERO,
    };
    let mut rng = Rng::seed_from_u64(sc.seed ^ salt);
    let mean_gap = spec.mean_interarrival() / hosts.len() as u64;
    let mut t = SimTime::ZERO;
    for k in 0..sc.n_flows {
        t += rng.exp_duration(mean_gap);
        for (_, cmd) in spec.generate(1, 1 + k as u64, &mut rng) {
            net.schedule_flow(t, cmd);
        }
    }
}

/// Run the §5.3 leaf-spine fabric (all-to-all traffic, ECMP). Scaled by
/// `hosts_per_leaf`/`n_leaves`/`n_spines` so tests can shrink it. With
/// `shards ≥ 2` the fabric is partitioned per leaf and run on the sharded
/// engine, byte-identically (see CONCURRENCY.md); 1 = serial.
pub fn run_leaf_spine_sharded(
    sc: &FctScenario,
    n_spines: usize,
    n_leaves: usize,
    hosts_per_leaf: usize,
    shards: u32,
) -> FctBreakdown {
    let params = sc.params();
    // host→leaf→spine→leaf→host: 8 propagation legs per RTT.
    let link_delay = Duration::from_nanos(sc.rtt.min().as_nanos() / 8);
    let scheme = sc.scheme.clone();
    let buffer = sc.buffer;
    let mut topo = leaf_spine(
        sc.seed,
        n_spines,
        n_leaves,
        hosts_per_leaf,
        sc.rate,
        sc.rate,
        link_delay,
        |_| TcpStack::boxed(endpoint_tcp()),
        nic_port,
        || params.port(&scheme, buffer, 0xEC1),
    );
    schedule_all_to_all(&mut topo.net, &topo.hosts, sc, 0x1EAF);
    let n = effective_shards(shards, n_leaves);
    let plan = (n >= 2).then(|| topo.shard_plan(n));
    run_to_idle(&mut topo.net, plan.as_ref()).expect("run_leaf_spine_sharded");
    crate::perf::absorb(&topo.net);
    FctBreakdown::from_records(topo.net.records())
}

/// Run an all-to-all workload on a k-ary fat-tree
/// ([`ecnsharp_net::topology::fat_tree`]) — the datacenter-scale shape the
/// sharded engine exists for (k=16 is 1024 hosts) — partitioned per pod
/// into `shards` shards (ceiling `k`; 1 = serial).
pub fn run_fat_tree_sharded(sc: &FctScenario, k: usize, shards: u32) -> FctBreakdown {
    let params = sc.params();
    // host→edge→agg→core→agg→edge→host: 12 propagation legs per RTT.
    let link_delay = Duration::from_nanos(sc.rtt.min().as_nanos() / 12);
    let scheme = sc.scheme.clone();
    let buffer = sc.buffer;
    let mut topo = fat_tree(
        sc.seed,
        k,
        sc.rate,
        sc.rate,
        link_delay,
        |_| TcpStack::boxed(endpoint_tcp()),
        nic_port,
        || params.port(&scheme, buffer, 0xFA7),
    );
    schedule_all_to_all(&mut topo.net, &topo.hosts, sc, 0xFA77);
    let n = effective_shards(shards, k);
    let plan = (n >= 2).then(|| topo.shard_plan(n));
    run_to_idle(&mut topo.net, plan.as_ref()).expect("run_fat_tree_sharded");
    crate::perf::absorb(&topo.net);
    FctBreakdown::from_records(topo.net.records())
}

/// Result of one chaos-sweep point: FCT over the flows that completed,
/// plus the full fault-accounting ledger for the run.
#[derive(Debug, Clone)]
pub struct ChaosResult {
    /// FCT breakdown (failed flows counted, excluded from timings).
    pub fct: FctBreakdown,
    /// Flows that completed.
    pub completed: u64,
    /// Flows that aborted after `max_rto_retries` consecutive timeouts.
    pub failed: u64,
    /// CE marks applied across the fabric.
    pub ce_marks: u64,
    /// Gilbert–Elliott burst-loss wire drops.
    pub burst_drops: u64,
    /// Switch discards for destinations with no up link.
    pub no_route_drops: u64,
    /// Retransmission timeouts across all flows.
    pub timeouts: u64,
}

/// One point of the chaos sweep: the small leaf-spine fabric (2×2×4)
/// under web-search traffic at 50% load, with a Gilbert–Elliott burst-loss
/// process of mean rate `mean_loss` (mean burst 8 packets) on every switch
/// egress and, when `flap_period` is set, a leaf0–spine0 link flapping
/// with that period (50% duty cycle) for the first 20 ms. Fully
/// deterministic per `seed`: faults are scheduled through the same event
/// queue as traffic and the GE process draws from the port's seeded dice.
///
/// `shards` is the shard count (1 = serial, clamped to the two leaves);
/// fault application crosses shard cuts, and the output is byte-identical
/// either way. `sup` arms the engine's watchdogs and memory guards: a
/// tripped guard comes back as a structured [`SimError`] instead of a
/// panic or hang, and armed-but-untriggered budgets change no byte (the
/// supervision suite pins both). `inject_livelock` schedules a
/// self-rescheduling zero-delay drill event early in the run so the
/// `ProgressGuard` must trip — the `ECNSHARP_DRILL=livelock` leg.
#[allow(clippy::too_many_arguments)]
pub fn run_chaos_leaf_spine(
    scheme: Scheme,
    mean_loss: f64,
    flap_period: Option<Duration>,
    n_flows: usize,
    seed: u64,
    shards: u32,
    sup: Supervision,
    inject_livelock: bool,
) -> Result<ChaosResult, SimError> {
    let sc = FctScenario {
        seed,
        scheme,
        rate: Rate::from_gbps(10),
        buffer: 1_000_000,
        rtt: RttVariation::sim_3x(),
        cdf: ecnsharp_workload::dists::web_search(),
        load: 0.5,
        n_flows,
    };
    let params = sc.params();
    let link_delay = Duration::from_nanos(sc.rtt.min().as_nanos() / 8);
    let mut topo: LeafSpine = leaf_spine(
        seed,
        2,
        2,
        4,
        sc.rate,
        sc.rate,
        link_delay,
        |_| TcpStack::boxed(endpoint_tcp()),
        nic_port,
        || {
            let mut p = params.port(&sc.scheme, sc.buffer, 0xC4A0);
            if mean_loss > 0.0 {
                p = p.with_ge(GilbertElliott::from_mean_loss(mean_loss, 8.0));
            }
            p
        },
    );
    if let Some(period) = flap_period {
        let plan = FaultPlan::new().flap(
            topo.leaves[0],
            topo.spines[0],
            SimTime::from_micros(50),
            period,
            period / 2,
            SimTime::from_millis(20),
        );
        topo.net.install_fault_plan(plan);
    }
    schedule_all_to_all(&mut topo.net, &topo.hosts, &sc, 0xC4A05);
    topo.net.set_supervision(sup);
    if inject_livelock {
        topo.net.inject_livelock_at(SimTime::from_micros(10));
    }
    let n = effective_shards(shards, topo.leaves.len());
    let plan = (n >= 2).then(|| topo.shard_plan(n));
    run_to_idle(&mut topo.net, plan.as_ref())?;
    let perf = topo.net.perf();
    let fct = FctBreakdown::from_records(topo.net.records());
    crate::perf::absorb(&topo.net);
    Ok(ChaosResult {
        completed: (topo.net.records().len() as u64) - fct.failed,
        failed: fct.failed,
        timeouts: fct.timeouts,
        ce_marks: perf.ce_marks,
        burst_drops: perf.burst_drops,
        no_route_drops: perf.no_route_drops,
        fct,
    })
}

/// Result of the §5.4 incast microscope.
#[derive(Debug, Clone)]
pub struct IncastResult {
    /// Queue occupancy summary over the sampled window.
    pub queue: QueueSummary,
    /// The raw series `(t, bytes, pkts)` for plotting (Fig. 10).
    pub series: Vec<(SimTime, u64, u64)>,
    /// FCT breakdown of the query flows only (Fig. 11).
    pub query_fct: FctBreakdown,
    /// Total drops at the bottleneck during the run.
    pub drops: u64,
    /// Total timeouts suffered by query flows.
    pub query_timeouts: u64,
    /// Average standing queue (packets) in the 5 ms *before* the burst —
    /// the level Fig. 10's flat segments show (paper: ~182 pkts for
    /// RED-Tail vs ~8 for ECN#).
    pub standing_pkts: f64,
}

/// When the microscope's events happen.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IncastTimeline {
    /// The paper's timeline: background from 3.0/3.5 s, burst at 4 s,
    /// horizon 4.6 s (what Figs. 10–11 plot).
    Paper,
    /// Same structure compressed ~5×: background from 0.2/0.25 s, burst at
    /// 0.5 s, horizon 1.0 s. The background flows still converge (hundreds
    /// of RTTs) — used by tests and benches to stay fast.
    Compressed,
}

impl IncastTimeline {
    fn times(self) -> (u64, u64, u64, u64) {
        // (long_start_ms, bg_start_ms, burst_ms, horizon_ms)
        match self {
            IncastTimeline::Paper => (3_000, 3_500, 4_000, 4_600),
            IncastTimeline::Compressed => (200, 250, 500, 1_000),
        }
    }
}

/// The §5.4 microscope: 16 senders → 1 receiver, 2 long-lived small-RTT
/// background flows plus data-mining short flows, and an `fanout`-wide
/// query burst. The queue is sampled for 5 ms before and after the burst.
pub fn run_incast_micro_with(
    scheme: Scheme,
    fanout: usize,
    seed: u64,
    timeline: IncastTimeline,
) -> IncastResult {
    let (r, _) = run_incast_micro_with_subscriber(scheme, fanout, seed, timeline, NoopSubscriber);
    r
}

/// [`run_incast_micro_with`] with a telemetry subscriber attached for the
/// whole run; returns it alongside the result.
pub fn run_incast_micro_with_subscriber<S: Subscriber>(
    scheme: Scheme,
    fanout: usize,
    seed: u64,
    timeline: IncastTimeline,
    sub: S,
) -> (IncastResult, S) {
    let (long_ms, bg_ms, burst_ms, horizon_ms) = timeline.times();
    let rate = Rate::from_gbps(10);
    let rtt = RttVariation::sim_3x();
    let params = SchemeParams::derive(&rtt, rate);
    let buffer = 1_000_000;
    let link_delay = Duration::from_nanos(rtt.min().as_nanos() / 4);
    let mut topo = star_with_subscriber(
        seed,
        17,
        rate,
        link_delay,
        |_| TcpStack::boxed(endpoint_tcp()),
        nic_port,
        || params.port(&scheme, buffer, 0xE5D),
        sub,
    );
    let receiver = topo.hosts[16];
    let senders: Vec<NodeId> = topo.hosts[..16].to_vec();
    let bport = topo
        .net
        .port_towards(topo.switch, receiver)
        .expect("receiver port");

    // Two long-lived background flows with the minimum base RTT — the
    // standing-queue builders the persistent detector must tame.
    for (i, &s) in senders.iter().take(2).enumerate() {
        topo.net.schedule_flow(
            SimTime::from_millis(long_ms),
            ecnsharp_net::FlowCmd {
                flow: FlowId(900_000 + i as u64),
                src: s,
                dst: receiver,
                // Effectively infinite: outlives the run horizon.
                size: 4_000_000_000,
                class: 0,
                extra_delay: Duration::ZERO,
            },
        );
    }
    // Data-mining background at modest load in the surrounding second.
    let spec = TrafficSpec {
        cdf: ecnsharp_workload::dists::data_mining(),
        load: 0.2,
        bottleneck: rate,
        pattern: Pattern::ManyToOne {
            senders: senders.clone(),
            receiver,
        },
        rtt,
        class: 0,
        start: SimTime::from_millis(bg_ms),
    };
    let mut rng = Rng::seed_from_u64(seed ^ 0xBAC6);
    for (at, cmd) in spec.generate(60, 1, &mut rng) {
        topo.net.schedule_flow(at, cmd);
    }
    // The query burst.
    let burst_at = SimTime::from_millis(burst_ms);
    let incast = IncastSpec::paper(senders, receiver, fanout, burst_at);
    let first_query = 1_000_000u64;
    for (at, cmd) in incast.generate(first_query, &mut rng) {
        topo.net.schedule_flow(at, cmd);
    }
    // Fig. 10's 5 ms microscope window, plus a 5 ms pre-roll that shows
    // the standing queue the schemes maintain before the burst. Each
    // sample reads the port after every event at its instant.
    let mut series = Vec::new();
    let mut t = burst_at - Duration::from_millis(5);
    while t <= burst_at + Duration::from_millis(5) {
        topo.net.run_until(t);
        let (bytes, pkts) = topo.net.backlog(topo.switch, bport);
        series.push((t, bytes, pkts));
        t += Duration::from_micros(5);
    }
    topo.net.run_until(SimTime::from_millis(horizon_ms));
    // Stop background cleanly: summarize what completed.
    let records = topo.net.records().to_vec();
    let query: Vec<_> = records
        .iter()
        .filter(|r| r.flow.0 >= first_query)
        .cloned()
        .collect();
    assert!(
        !query.is_empty(),
        "no query flows finished — run window too small"
    );
    let pre: Vec<f64> = series
        .iter()
        .filter(|&&(t, _, _)| t < burst_at)
        .map(|&(_, _, p)| p as f64)
        .collect();
    let standing_pkts = pre.iter().sum::<f64>() / pre.len().max(1) as f64;
    crate::perf::absorb(&topo.net);
    let result = IncastResult {
        standing_pkts,
        queue: QueueSummary::from_samples(&series),
        series,
        query_fct: FctBreakdown::from_records(&query),
        drops: topo.net.port_stats(topo.switch, bport).total_drops(),
        query_timeouts: query.iter().map(|r| r.timeouts as u64).sum(),
    };
    (result, topo.net.into_subscriber())
}

/// Result of the DWRR scheduling experiment (§5.4, Fig. 13).
#[derive(Debug, Clone)]
pub struct DwrrResult {
    /// Goodput (Gbps) per class sampled at `checkpoints` (per window).
    pub goodput: Vec<[f64; 3]>,
    /// Checkpoint times.
    pub checkpoints: Vec<SimTime>,
    /// Short-probe FCT breakdown.
    pub probe_fct: FctBreakdown,
}

/// The Fig. 13 experiment: DWRR with weights 2:1:1 over three service
/// classes; long-lived flows join classes 0/1/2 at 0 s/0.5 s/1.0 s; short
/// probes (3–60 KB) sample latency across classes throughout.
pub fn run_dwrr(scheme: Scheme, seed: u64) -> DwrrResult {
    let rate = Rate::from_gbps(10);
    let rtt = RttVariation::sim_3x();
    let params = SchemeParams::derive(&rtt, rate);
    let link_delay = Duration::from_nanos(rtt.min().as_nanos() / 4);
    // 6 hosts: 3 long-flow senders, 2 probe senders, 1 receiver.
    let scheme2 = scheme.clone();
    let mut topo: Star = star(
        seed,
        6,
        rate,
        link_delay,
        |_| TcpStack::boxed(endpoint_tcp()),
        nic_port,
        move || {
            params
                .port(&scheme2, 1_000_000, 0xD3)
                .with_dwrr(Dwrr::new(&[2, 1, 1], 1_538))
        },
    );
    let receiver = topo.hosts[5];
    let bport = topo.net.port_towards(topo.switch, receiver).expect("port");

    // Long-lived flows, one per class, staggered.
    for (i, (&s, start_ms)) in topo.hosts[..3].iter().zip([0u64, 500, 1_000]).enumerate() {
        topo.net.schedule_flow(
            SimTime::from_millis(start_ms),
            ecnsharp_net::FlowCmd {
                flow: FlowId(500_000 + i as u64),
                src: s,
                dst: receiver,
                size: 4_000_000_000,
                class: i as u8,
                extra_delay: Duration::ZERO,
            },
        );
    }
    // Short probes: uniform 3-60 KB, random class, Poisson-ish spacing.
    let mut rng = Rng::seed_from_u64(seed ^ 0xD884);
    let first_probe = 700_000u64;
    let mut n_probes = 0;
    let mut t = SimTime::from_millis(100);
    while t < SimTime::from_millis(1_900) {
        t += rng.exp_duration(Duration::from_millis(4));
        let src = topo.hosts[3 + (n_probes % 2) as usize];
        topo.net.schedule_flow(
            t,
            ecnsharp_net::FlowCmd {
                flow: FlowId(first_probe + n_probes),
                src,
                dst: receiver,
                size: rng.range_u64(3_000, 60_001),
                class: (n_probes % 3) as u8,
                extra_delay: rtt.sample(&mut rng).saturating_sub(rtt.min()),
            },
        );
        n_probes += 1;
    }

    // Sample per-class goodput in 100 ms windows over [0, 2 s].
    let mut checkpoints = Vec::new();
    let mut goodput = Vec::new();
    let mut prev = vec![0u64; 3];
    for k in 1..=20u64 {
        let t = SimTime::from_millis(k * 100);
        topo.net.run_until(t);
        let mut tx = topo.net.tx_payload_per_class(topo.switch, bport);
        tx.resize(3, 0);
        let window = 0.1;
        let rates = [
            (tx[0] - prev[0]) as f64 * 8.0 / window / 1e9,
            (tx[1] - prev[1]) as f64 * 8.0 / window / 1e9,
            (tx[2] - prev[2]) as f64 * 8.0 / window / 1e9,
        ];
        prev = tx;
        checkpoints.push(t);
        goodput.push(rates);
    }
    // Let the probes drain (long flows may still be running; stop at 3 s).
    topo.net.run_until(SimTime::from_secs(3));
    let probes: Vec<_> = topo
        .net
        .records()
        .iter()
        .filter(|r| (first_probe..first_probe + n_probes).contains(&r.flow.0))
        .cloned()
        .collect();
    assert!(!probes.is_empty(), "no probes completed");
    crate::perf::absorb(&topo.net);
    DwrrResult {
        goodput,
        checkpoints,
        probe_fct: FctBreakdown::from_records(&probes),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecnsharp_workload::dists;

    #[test]
    fn testbed_star_smoke() {
        let sc = FctScenario::testbed(Scheme::EcnSharp(None), dists::web_search(), 0.5, 60, 1);
        let (fct, stats) = run_testbed_star(&sc);
        assert_eq!(fct.overall.count, 60);
        assert!(stats.enqueued > 0);
        assert!(fct.overall.avg > 0.0);
    }

    #[test]
    fn leaf_spine_smoke() {
        let sc = FctScenario::testbed(Scheme::DctcpRedTail, dists::web_search(), 0.3, 40, 2);
        let fct = run_leaf_spine_sharded(&sc, 2, 2, 4, 1);
        assert_eq!(fct.overall.count, 40);
    }

    #[test]
    fn leaf_spine_sharded_matches_serial() {
        let sc = FctScenario::testbed(Scheme::EcnSharp(None), dists::web_search(), 0.3, 30, 5);
        let serial = run_leaf_spine_sharded(&sc, 2, 2, 4, 1);
        let sharded = run_leaf_spine_sharded(&sc, 2, 2, 4, 2);
        assert_eq!(format!("{serial:?}"), format!("{sharded:?}"));
    }

    #[test]
    fn fat_tree_smoke() {
        let sc = FctScenario::testbed(Scheme::EcnSharp(None), dists::web_search(), 0.2, 30, 6);
        let serial = run_fat_tree_sharded(&sc, 4, 1);
        assert_eq!(serial.overall.count, 30);
        let sharded = run_fat_tree_sharded(&sc, 4, 4);
        assert_eq!(format!("{serial:?}"), format!("{sharded:?}"));
    }

    #[test]
    fn chaos_smoke() {
        let r = run_chaos_leaf_spine(
            Scheme::EcnSharp(None),
            0.01,
            Some(Duration::from_micros(200)),
            40,
            7,
            1,
            Supervision::default(),
            false,
        )
        .expect("chaos point");
        assert_eq!(r.completed + r.failed, 40);
        assert!(r.burst_drops > 0, "1% GE loss must drop something");
        assert!(
            r.fct.overall.count as u64 == r.completed,
            "timing buckets cover exactly the completed flows"
        );
    }

    #[test]
    fn incast_micro_smoke() {
        let r = run_incast_micro_with(Scheme::EcnSharp(None), 20, 3, IncastTimeline::Compressed);
        assert_eq!(r.query_fct.overall.count, 20);
        assert!(r.queue.samples > 500);
    }

    #[test]
    fn dwrr_smoke() {
        let r = run_dwrr(Scheme::EcnSharp(None), 4);
        assert_eq!(r.goodput.len(), 20);
        // After 1.2 s all three classes are active: ratios near 2:1:1.
        let late = r.goodput[14];
        assert!(late[0] > late[1] * 1.4, "{late:?}");
        assert!((late[1] / late[2] - 1.0).abs() < 0.4, "{late:?}");
    }
}
