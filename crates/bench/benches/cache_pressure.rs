//! Working-set pairs: equal work, wider footprint. Each pair runs the
//! same operation count at two footprints and `cargo xtask bench` gates
//! the wide side against the narrow one measured seconds earlier, so a
//! working-set regression is caught without trusting an absolute
//! baseline.
//!
//! - `event_queue/{sparse_bucket_8,dense_bucket_200}` push the same
//!   number of fig9-sized events through the calendar at ~8 and ~200
//!   events per 1 µs bucket, for several revolutions of the lane ring.
//!   Lane buffers follow occupancy, so the dense run's working set is
//!   the few dozen occupied lanes and its per-event cost stays at or
//!   below the sparse run's (which pays a refill every 8 events). Were
//!   buffers parked per lane, all 1 024 would grow to peak-bucket
//!   size and every dense push would land on a cold line.
//! - `cache_pressure/port_ring_sparse_{16,384}` forward the same number
//!   of packets, one in flight per port, round-robin over 16 and over 384
//!   pooled ports. A ring that drains rewinds to slot 0, so 384 ports
//!   touch 384 lines, not 384 buffer-sized windows.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use ecnsharp_aqm::DctcpRed;
use ecnsharp_net::{FlowId, NodeId, Packet, PortConfig, RingArena};
use ecnsharp_sim::{Duration, EventQueue, Rng, SimTime};
use std::hint::black_box;

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

/// A standalone 1 MB DCTCP-RED port whose ring lives on `arena`.
fn pooled_port(arena: &mut RingArena) -> ecnsharp_net::EgressPort {
    let mut port = ecnsharp_net::port::bench_port(PortConfig::fifo(
        1_000_000,
        Box::new(DctcpRed::with_threshold(65_000)),
    ));
    port.bench_pool_ring(arena);
    port
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
                    let ports: Vec<_> = (0..count).map(|_| pooled_port(&mut arena)).collect();
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

criterion_group!(benches, bench_calendar_density, bench_port_ring_sparse);
criterion_main!(benches);
