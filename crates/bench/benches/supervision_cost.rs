//! Run-supervision overhead: the same 10 MB DCTCP dumbbell transfer with
//! guards off vs every watchdog and memory guard armed (but untriggered).
//! The armed path pays one branch and a counter per popped event
//! (`ProgressGuard::on_event`) plus the memory-breach poll per dispatch;
//! the claim (DESIGN.md "Run supervision") is that this stays within
//! measurement noise, so `cargo xtask bench` holds armed within 3% of
//! off — as a same-run pair ratio on per-sample minima, because
//! co-tenant bursts on a shared box move absolute medians of a
//! whole-simulation bench far beyond 3%.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use ecnsharp_aqm::{DctcpRed, DropTail};
use ecnsharp_net::topology::{dumbbell, Dumbbell};
use ecnsharp_net::{FlowCmd, FlowId, PortConfig, Supervision};
use ecnsharp_sim::{Duration, Rate};
use ecnsharp_transport::{TcpConfig, TcpStack};
use std::hint::black_box;

fn rig() -> Dumbbell {
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
}

fn schedule_transfer(d: &mut Dumbbell, bytes: u64) {
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
}

fn bench_supervision_cost(c: &mut Criterion) {
    let mut g = c.benchmark_group("supervision_cost");
    g.sample_size(20);
    let mb = 10_000_000u64;
    g.bench_function("dctcp_10mb_guards_off", |b| {
        b.iter_batched(
            rig,
            |mut d| {
                schedule_transfer(&mut d, mb);
                d.net.run_until_idle();
                black_box(d.net.steps())
            },
            BatchSize::SmallInput,
        )
    });
    g.bench_function("dctcp_10mb_guards_armed", |b| {
        b.iter_batched(
            rig,
            |mut d| {
                schedule_transfer(&mut d, mb);
                d.net.set_supervision(Supervision::armed());
                d.net
                    .try_run_until_idle()
                    .expect("armed-untriggered guards must not trip");
                black_box(d.net.steps())
            },
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

criterion_group!(benches, bench_supervision_cost);
criterion_main!(benches);
