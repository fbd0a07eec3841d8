//! Simulator-core throughput: how many events/packets per second the
//! engine sustains. These set the wall-clock budget of the full-fidelity
//! figure runs (millions of packets each).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use ecnsharp_aqm::{DctcpRed, DropTail};
use ecnsharp_net::topology::{dumbbell, Dumbbell};
use ecnsharp_net::{FlowCmd, FlowId, PortConfig};
use ecnsharp_sim::{Duration, EventQueue, Rate, Rng, SimTime};
use ecnsharp_transport::{TcpConfig, TcpStack};
use std::hint::black_box;

fn bench_event_queue(c: &mut Criterion) {
    let mut g = c.benchmark_group("event_queue");
    let n = 10_000u64;
    g.throughput(Throughput::Elements(n));
    g.bench_function("push_pop_10k", |b| {
        let mut rng = Rng::seed_from_u64(1);
        let times: Vec<u64> = (0..n).map(|_| rng.range_u64(0, 1_000_000)).collect();
        b.iter_batched(
            || times.clone(),
            |times| {
                let mut q = EventQueue::new();
                for (i, t) in times.into_iter().enumerate() {
                    q.schedule(SimTime::from_nanos(t), i);
                }
                let mut sum = 0usize;
                while let Some((_, e)) = q.pop() {
                    sum += e;
                }
                black_box(sum)
            },
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

fn bench_timer_wheel(c: &mut Criterion) {
    let mut g = c.benchmark_group("timer_wheel");
    let n = 10_000u64;
    g.throughput(Throughput::Elements(n));
    // The RTO pattern: every flow re-arms its timer on each ACK, and almost
    // no deadline ever fires. Measures the O(1) cancel+re-arm path.
    g.bench_function("rearm_churn_10k", |b| {
        let mut rng = Rng::seed_from_u64(2);
        let deadlines: Vec<u64> = (0..n).map(|_| rng.range_u64(1_000, 10_000_000)).collect();
        b.iter_batched(
            || deadlines.clone(),
            |deadlines| {
                let mut q: EventQueue<usize> = EventQueue::new();
                const FLOWS: usize = 64;
                let mut tokens = [None; FLOWS];
                for (i, after) in deadlines.into_iter().enumerate() {
                    let slot = i % FLOWS;
                    tokens[slot] =
                        Some(q.rearm_timer(tokens[slot], SimTime::from_nanos(after), slot));
                }
                let mut sum = 0usize;
                while let Some((_, e)) = q.pop() {
                    sum += e;
                }
                black_box(sum)
            },
            BatchSize::SmallInput,
        )
    });
    // Same-tick incast burst: thousands of events landing in one bucket,
    // exercising the refill fast path (single-run reverse, no sort).
    g.bench_function("same_tick_burst_10k", |b| {
        b.iter_batched(
            || (),
            |()| {
                let mut q: EventQueue<usize> = EventQueue::new();
                let t = SimTime::from_nanos(2_000);
                for i in 0..n as usize {
                    q.schedule(t, i);
                }
                let mut sum = 0usize;
                while let Some((_, e)) = q.pop() {
                    sum += e;
                }
                black_box(sum)
            },
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

/// Drive an egress port through `n` enqueue/drain cycles with the given
/// subscriber attached — the telemetry hot path in isolation. The port
/// arrives from `iter_batched` setup so its construction never lands
/// inside the timed region.
fn port_churn<S: ecnsharp_net::Subscriber>(
    port: &mut ecnsharp_net::EgressPort,
    arena: &mut ecnsharp_net::RingArena,
    sub: &mut S,
    n: u64,
) -> u64 {
    let (src, dst) = (ecnsharp_net::NodeId(0), ecnsharp_net::NodeId(1));
    let flow = FlowId(1);
    let mut now = SimTime::ZERO;
    let mut popped = 0u64;
    for i in 0..n {
        port.bench_enqueue(
            now,
            ecnsharp_net::Packet::data(flow, src, dst, i * 1_500, 1_500),
            arena,
            sub,
        );
        // Drain in small batches so both the enqueue and dequeue emission
        // sites run with a non-trivial standing queue.
        if i % 8 == 7 {
            while let Some((_, tx)) = port.bench_next_tx(now, || 0.5, arena, sub) {
                now += tx;
                popped += 1;
            }
        }
        now += Duration::from_nanos(100);
    }
    while let Some((_, tx)) = port.bench_next_tx(now, || 0.5, arena, sub) {
        now += tx;
        popped += 1;
    }
    popped
}

fn churn_port() -> ecnsharp_net::EgressPort {
    ecnsharp_net::port::bench_port(PortConfig::fifo(
        1_000_000,
        Box::new(DctcpRed::with_threshold(65_000)),
    ))
}

/// The zero-cost claim of OBSERVABILITY.md: with telemetry compiled in
/// but only the no-op subscriber attached, the port fast path must cost
/// what it costs with telemetry compiled out. `bench-diff --check` holds
/// this group to a 3% budget (vs 25% for the engine groups), so the
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
            |mut port| {
                black_box(port_churn(
                    &mut port,
                    &mut ecnsharp_net::RingArena::new(),
                    &mut ecnsharp_net::NoopSubscriber,
                    black_box(n),
                ))
            },
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

/// Same workload with a real `MetricsAggregator` attached: prices the
/// O(1) counter bumps. Lives in its own group on the routine 25% budget
/// — the 3% gate belongs to the no-op claim, not the aggregator.
fn bench_telemetry_cost(c: &mut Criterion) {
    let mut g = c.benchmark_group("telemetry_cost");
    g.sample_size(40);
    let n = 40_000u64;
    g.throughput(Throughput::Elements(n));
    g.bench_function("port_churn_40k_metrics", |b| {
        b.iter_batched(
            churn_port,
            |mut port| {
                let mut sub = ecnsharp_telemetry::MetricsAggregator::new();
                let mut arena = ecnsharp_net::RingArena::new();
                let popped = port_churn(&mut port, &mut arena, &mut sub, black_box(n));
                black_box((popped, sub))
            },
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

fn transfer(d: &mut Dumbbell, bytes: u64) {
    let (a, b) = (d.a, d.b);
    d.net.schedule_flow(
        d.net.now(),
        FlowCmd {
            flow: FlowId(d.net.records().len() as u64 + 1),
            src: a,
            dst: b,
            size: bytes,
            class: 0,
            extra_delay: Duration::ZERO,
        },
    );
    d.net.run_until_idle();
}

fn bench_end_to_end(c: &mut Criterion) {
    let mut g = c.benchmark_group("end_to_end");
    g.sample_size(10);
    let mb = 10_000_000u64;
    g.throughput(Throughput::Bytes(mb));
    g.bench_function("dctcp_10mb_transfer", |b| {
        b.iter_batched(
            || {
                dumbbell(
                    1,
                    Rate::from_gbps(40),
                    Rate::from_gbps(10),
                    Duration::from_micros(5),
                    TcpStack::boxed(TcpConfig::dctcp()),
                    TcpStack::boxed(TcpConfig::dctcp()),
                    || PortConfig::fifo(4_000_000, Box::new(DropTail::new())),
                    PortConfig::fifo(1_000_000, Box::new(DctcpRed::with_threshold(65_000))),
                )
            },
            |mut d| {
                transfer(&mut d, mb);
                black_box(d.net.steps())
            },
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_event_queue,
    bench_timer_wheel,
    bench_telemetry_noop,
    bench_telemetry_cost,
    bench_end_to_end
);
criterion_main!(benches);
