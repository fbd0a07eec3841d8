//! Cache-level host-path pressure: the benches that motivated (and now
//! guard) the packed `Packet` layout and the pooled per-switch ring
//! storage.
//!
//! - `leaf_spine_working_set` is a fig9-shaped 2x2x4 leaf-spine run —
//!   the smallest workload whose live working set (per-port rings, the
//!   two-level calendar, per-flow transport state) outgrows L2, so it is
//!   where scattered per-port allocations actually cost.
//! - `packet_clone_churn` prices raw `Packet` copy/mutate bandwidth: the
//!   engine clones a packet on every hop (enqueue into a ring slot), so
//!   bytes-per-packet is a first-order term of forwarding throughput.
//! - `port_ring_churn/{fifo,pooled}` run the identical enqueue/drain
//!   schedule through a private-`VecDeque` port and an arena-pooled one.
//!   Single-port, the pooled ring pays a small indirection tax (~5%
//!   with one-cache-line slots and the register-screened overflow; it
//!   was ~15% before those). This pair bounds the tax so it cannot
//!   silently grow.
//! - `event_queue/{dense_bucket_200,sparse_bucket_8}` push the same
//!   number of fig9-sized events through the calendar at ~200 and ~8
//!   events per 1 µs bucket, for several revolutions of the lane ring.
//!   Lane buffers follow occupancy, so the dense run's working set is
//!   the few dozen occupied lanes and its per-event cost stays at or
//!   below the sparse run's (which pays a refill every 8 events). Were
//!   buffers parked per lane, all 1 024 would grow to peak-bucket
//!   size and every dense push would land on a cold line.
//! - `port_ring_sparse_{384,16}` forward the same number of packets,
//!   one in flight per port, round-robin over 384 and over 16 pooled
//!   ports. A ring that drains rewinds to slot 0, so 384 ports touch 384
//!   lines, not 384 buffer-sized windows.
//!
//! Both pairs are gated by `cargo xtask bench-diff --check` as same-run
//! ratios on per-sample minima, so a working-set regression is caught
//! without trusting an absolute baseline.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use ecnsharp_aqm::{DctcpRed, DropTail};
use ecnsharp_experiments::{Scheme, SchemeParams};
use ecnsharp_net::topology::leaf_spine;
use ecnsharp_net::{Ecn, FlowId, Network, NodeId, Packet, PortConfig, RingArena};
use ecnsharp_sim::{Duration, EventQueue, Rate, Rng, SimTime};
use ecnsharp_transport::{TcpConfig, TcpStack};
use ecnsharp_workload::{dists, Pattern, RttVariation, TrafficSpec};
use std::hint::black_box;

const FLOWS: u64 = 150;
const SEED: u64 = 53;

/// Fig9's quick-scale leaf-spine (2 spines x 2 leaves x 4 hosts, ECN#
/// fabric, DCTCP endpoints, web-search all-to-all at 60% load), built and
/// scheduled in setup so the timed region is exactly the run phase.
fn leaf_spine_setup() -> Network {
    let rtt = RttVariation::sim_3x();
    let rate = Rate::from_gbps(10);
    let params = SchemeParams::derive(&rtt, rate);
    let scheme = Scheme::EcnSharp(None);
    let delay = Duration::from_nanos(rtt.min().as_nanos() / 12);
    let topo = leaf_spine(
        SEED,
        2,
        2,
        4,
        rate,
        rate,
        delay,
        |_| TcpStack::boxed(TcpConfig::dctcp()),
        || PortConfig::fifo(4_000_000, Box::new(DropTail::new())),
        || params.port(&scheme, 200_000, 0xFA7),
    );
    let spec = TrafficSpec {
        cdf: dists::web_search(),
        load: 0.6,
        bottleneck: rate,
        pattern: Pattern::AllToAll {
            hosts: topo.hosts.clone(),
        },
        rtt,
        class: 0,
        start: SimTime::ZERO,
    };
    let n_hosts = topo.hosts.len();
    let mut rng = Rng::seed_from_u64(SEED ^ 0x1EAF);
    let mean_gap = spec.mean_interarrival() / n_hosts as u64;
    let mut t = SimTime::ZERO;
    let mut net = topo.net;
    for f in 0..FLOWS {
        t += rng.exp_duration(mean_gap);
        let mut cmds = spec.generate(1, 1 + f, &mut rng);
        let (_, mut cmd) = cmds.pop().expect("one command per call");
        cmd.flow = FlowId(1 + f);
        net.schedule_flow(t, cmd);
    }
    net
}

fn bench_leaf_spine_working_set(c: &mut Criterion) {
    let mut g = c.benchmark_group("cache_pressure");
    g.sample_size(10);
    g.bench_function("leaf_spine_working_set", |b| {
        b.iter_batched(
            leaf_spine_setup,
            |mut net| {
                net.run_until_idle();
                black_box(net.steps())
            },
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

fn bench_packet_clone_churn(c: &mut Criterion) {
    let mut g = c.benchmark_group("cache_pressure");
    let n = 65_536u64;
    g.throughput(Throughput::Elements(n));
    // Clone + mutate + read back a packet working set several L2s wide:
    // the per-hop copy pattern of the forwarding path, isolated.
    g.bench_function("packet_clone_churn_64k", |b| {
        let pkts: Vec<Packet> = (0..n)
            .map(|i| {
                let mut p = Packet::data(FlowId(i % 512), NodeId(0), NodeId(1), i * 1_460, 1_460);
                p.set_ecn(Ecn::Ect);
                p
            })
            .collect();
        b.iter_batched(
            || pkts.clone(),
            |src| {
                let mut marked = 0u64;
                let mut copies: Vec<Packet> = Vec::with_capacity(src.len());
                for (i, p) in src.iter().enumerate() {
                    let mut q = p.clone();
                    if i % 7 == 0 {
                        q.set_ecn(Ecn::Ce);
                    }
                    q.set_class((i % 8) as u8);
                    marked += u64::from(q.ecn().is_ce());
                    copies.push(q);
                }
                let sum: u64 = copies.iter().map(|p| p.seq() + p.payload()).sum();
                black_box((marked, sum))
            },
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

/// Drive one egress port through `n` enqueue/drain cycles (the
/// `telemetry_noop` schedule, minus the subscriber variable).
fn ring_churn(port: &mut ecnsharp_net::EgressPort, arena: &mut RingArena, n: u64) -> u64 {
    let (src, dst) = (NodeId(0), NodeId(1));
    let mut now = SimTime::ZERO;
    let mut popped = 0u64;
    let mut sub = ecnsharp_net::NoopSubscriber;
    for i in 0..n {
        port.bench_enqueue(
            now,
            Packet::data(FlowId(1), src, dst, i * 1_500, 1_500),
            arena,
            &mut sub,
        );
        if i % 8 == 7 {
            while let Some((_, tx)) = port.bench_next_tx(now, || 0.5, arena, &mut sub) {
                now += tx;
                popped += 1;
            }
        }
        now += Duration::from_nanos(100);
    }
    while let Some((_, tx)) = port.bench_next_tx(now, || 0.5, arena, &mut sub) {
        now += tx;
        popped += 1;
    }
    popped
}

/// A standalone 1 MB DCTCP-RED port, moved onto `arena` when one is given.
fn ring_port(arena: Option<&mut RingArena>) -> ecnsharp_net::EgressPort {
    let mut port = ecnsharp_net::port::bench_port(PortConfig::fifo(
        1_000_000,
        Box::new(DctcpRed::with_threshold(65_000)),
    ));
    if let Some(arena) = arena {
        port.bench_pool_ring(arena);
    }
    port
}

fn bench_port_ring_churn(c: &mut Criterion) {
    let mut g = c.benchmark_group("cache_pressure");
    g.sample_size(40);
    let n = 40_000u64;
    g.throughput(Throughput::Elements(n));
    g.bench_function("port_ring_churn_40k_fifo", |b| {
        b.iter_batched(
            || ring_port(None),
            |mut port| {
                let mut arena = RingArena::new();
                black_box(ring_churn(&mut port, &mut arena, black_box(n)))
            },
            BatchSize::SmallInput,
        )
    });
    g.bench_function("port_ring_churn_40k_pooled", |b| {
        b.iter_batched(
            || {
                let mut arena = RingArena::new();
                (ring_port(Some(&mut arena)), arena)
            },
            |(mut port, mut arena)| black_box(ring_churn(&mut port, &mut arena, black_box(n))),
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

/// An event payload the size of the engine's own (88-byte queue entries).
type FatEvent = [u64; 9];

/// Closed loop over the calendar: `pending` events in flight, every pop
/// schedules one successor 10 or 30 µs ahead (alternating, so a lane
/// fills as two ascending runs — the linear-merge refill), `pops` pops in
/// all. Events per 1 µs bucket in steady state: `pending / 20`.
fn calendar_steady_state(pending: u64, pops: u64) -> u64 {
    let mut q: EventQueue<FatEvent> = EventQueue::new();
    let mut rng = Rng::seed_from_u64(0xCA1E);
    for i in 0..pending {
        q.schedule(SimTime::from_nanos(rng.range_u64(0, 20_000)), [i; 9]);
    }
    let mut sum = 0u64;
    for n in 0..pops {
        let Some((t, e)) = q.pop() else { break };
        sum = sum.wrapping_add(e[0]);
        q.schedule(t + Duration::from_micros(10 + 20 * (n & 1)), e);
    }
    sum
}

fn bench_calendar_density(c: &mut Criterion) {
    let mut g = c.benchmark_group("event_queue");
    g.sample_size(10);
    // 5 000 buckets at 200 per bucket: almost five lane-ring revolutions.
    let pops = 1_000_000u64;
    g.throughput(Throughput::Elements(pops));
    for (name, pending) in [("sparse_bucket_8", 160u64), ("dense_bucket_200", 4_000)] {
        g.bench_function(name, |b| {
            b.iter(|| black_box(calendar_steady_state(black_box(pending), pops)))
        });
    }
    g.finish();
}

/// `n` packets through `ports` pooled ports of one switch, round-robin,
/// each transmitted before the next arrives: one packet in flight per
/// port, the regime ECN# keeps a lightly loaded fabric in.
fn bench_port_ring_sparse(c: &mut Criterion) {
    let mut g = c.benchmark_group("cache_pressure");
    g.sample_size(20);
    let n = 200_000u64;
    g.throughput(Throughput::Elements(n));
    for (name, count) in [
        ("port_ring_sparse_16", 16usize),
        ("port_ring_sparse_384", 384),
    ] {
        g.bench_function(name, |b| {
            b.iter_batched(
                || {
                    let mut arena = RingArena::new();
                    let ports: Vec<_> = (0..count).map(|_| ring_port(Some(&mut arena))).collect();
                    (ports, arena)
                },
                |(mut ports, mut arena)| {
                    let (src, dst) = (NodeId(0), NodeId(1));
                    let mut sub = ecnsharp_net::NoopSubscriber;
                    let mut now = SimTime::ZERO;
                    let mut sent = 0u64;
                    for i in 0..n {
                        let port = &mut ports[i as usize % count];
                        let pkt = Packet::data(FlowId(i % 512), src, dst, i * 1_460, 1_460);
                        port.bench_enqueue(now, pkt, &mut arena, &mut sub);
                        if let Some((_, tx)) = port.bench_next_tx(now, || 0.5, &mut arena, &mut sub)
                        {
                            now += tx;
                            sent += 1;
                        }
                    }
                    black_box(sent)
                },
                BatchSize::SmallInput,
            )
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_leaf_spine_working_set,
    bench_packet_clone_churn,
    bench_port_ring_churn,
    bench_calendar_density,
    bench_port_ring_sparse
);
criterion_main!(benches);
