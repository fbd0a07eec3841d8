//! Golden regression pins: figure CSVs and a chaos-sweep point are pinned
//! byte-identical to fixtures captured from a reference engine, so the
//! reference is a file on disk, not a second production code path.
//!
//! `fig2_quick.csv`, `fig9_quick.csv` and `chaos_point.txt` were captured
//! *before* the packed `Packet` layout, pooled per-switch rings and
//! wheel-batched delayed ACKs landed. `fig2_quick_delack2.csv` (fig2 at
//! `ECNSHARP_DELACK=2`) was captured at the last commit that still
//! carried the un-batched, epoch-filtered one-shot timer path, where an
//! in-build test proved that path and the wheel produce this exact CSV.
//! `fig10_quick.csv` was captured at the last commit whose engine sampled
//! the queue itself, through a monitor event; the caller-side
//! `run_until` + `backlog` reads reproduce it byte for byte. It pins the
//! ECN♯ standing-queue column (38.7 pkts against the paper's 8,
//! EXPERIMENTS.md D3).
//! The in-build equivalence suite that remains (`shard_equivalence`)
//! compares two modes of the same build, so a behaviour shift that hits
//! both modes equally would slip through it; these fixtures do not.
//!
//! The test also carries the absolute timer-wheel assertions: timers are
//! armed, re-arms suppress stale deadlines in place, and with delayed
//! ACKs one long-lived token serves a whole quiet period.
//!
//! Regenerate only after an *intentional* behaviour change:
//! `ECNSHARP_BLESS_GOLDEN=1 cargo test --release -p ecnsharp-experiments
//! --test golden_figures` — then audit the fixture diff like any other
//! code change.
//!
//! Single test in its own binary: it mutates process environment
//! (`ECNSHARP_SHARDS`, `ECNSHARP_DELACK`, `ECNSHARP_RESULTS`), which
//! would race with any concurrently running test in the same process.

use ecnsharp_experiments::{
    figures, perf, run_chaos_leaf_spine, ChaosResult, Scale, Scheme, DEFAULT_FAULT_SEED,
};
use ecnsharp_net::Supervision;
use ecnsharp_sim::Duration;
use ecnsharp_stats::FctSummary;
use std::path::PathBuf;

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
}

/// Render every field of a chaos result with bit-exact floats (`{:?}` on
/// f64 is the shortest round-trip form): two renders match iff the
/// underlying bits match.
fn render_chaos(r: &ChaosResult) -> String {
    let s = |x: &Option<FctSummary>| match x {
        Some(s) => format!("{},{:?},{:?},{:?}", s.count, s.avg, s.p50, s.p99),
        None => "-".to_string(),
    };
    format!(
        "{},{:?},{:?},{:?}|{}|{}|{}|{},{},{},{},{},{}\n",
        r.fct.overall.count,
        r.fct.overall.avg,
        r.fct.overall.p50,
        r.fct.overall.p99,
        s(&r.fct.short),
        s(&r.fct.medium),
        s(&r.fct.large),
        r.completed,
        r.failed,
        r.timeouts,
        r.ce_marks,
        r.burst_drops,
        r.no_route_drops,
    )
}

#[test]
fn engine_output_matches_prepass_golden() {
    // Keep the figure CSV side effect out of the working tree.
    let dir = std::env::temp_dir().join("ecnsharp_golden_figures");
    std::fs::create_dir_all(&dir).expect("temp results dir");
    std::env::set_var("ECNSHARP_RESULTS", &dir);
    std::env::remove_var("ECNSHARP_SHARDS");

    // The pinned outputs: fig2 (testbed star threshold sweep) with
    // per-segment and with delayed ACKs, fig9 serial and under the sharded
    // engine (leaf-spine grid — the pooled rings' main consumer), fig10
    // (the incast queue microscope's summary), and one
    // adversarial chaos point (flapping link + 1% GE burst loss crossing
    // shard cuts).
    let mut outputs: Vec<(&str, String)> = Vec::new();
    let fig2 = perf::timed(|| figures::fig2(Scale::Quick));
    outputs.push(("fig2_quick.csv", fig2.result.to_csv()));
    // Every RTO lives on the wheel: timers were armed, and re-arms
    // replaced stale deadlines in place instead of letting them pop.
    assert!(fig2.perf.counters.timers_armed > 0);
    assert!(fig2.perf.counters.timers_stale_suppressed > 0);
    assert!(fig2.perf.counters.timers_fired <= fig2.perf.counters.timers_armed);

    std::env::set_var("ECNSHARP_DELACK", "2");
    let delack2 = perf::timed(|| figures::fig2(Scale::Quick));
    std::env::remove_var("ECNSHARP_DELACK");
    outputs.push(("fig2_quick_delack2.csv", delack2.result.to_csv()));
    assert!(delack2.perf.counters.timers_armed > 0);
    assert!(delack2.perf.counters.timers_fired <= delack2.perf.counters.timers_armed);
    // One long-lived token per receiver quiet period, not one arm per
    // in-order packet: arms must be far rarer than forwarded packets.
    assert!(
        delack2.perf.counters.timers_armed * 4 < delack2.perf.counters.packets_forwarded,
        "batched delack armed {} timers for {} packets",
        delack2.perf.counters.timers_armed,
        delack2.perf.counters.packets_forwarded
    );
    outputs.push(("fig9_quick.csv", figures::fig9(Scale::Quick).to_csv()));
    for shards in [2u32, 4] {
        std::env::set_var("ECNSHARP_SHARDS", shards.to_string());
        let csv = figures::fig9(Scale::Quick).to_csv();
        std::env::remove_var("ECNSHARP_SHARDS");
        // Sharding is pinned against the *same* serial fixture: one file,
        // three engine configurations.
        outputs.push(("fig9_quick.csv", csv));
    }
    outputs.push(("fig10_quick.csv", figures::fig10(Scale::Quick).to_csv()));
    let chaos = run_chaos_leaf_spine(
        Scheme::EcnSharp(None),
        0.01,
        Some(Duration::from_micros(200)),
        40,
        DEFAULT_FAULT_SEED,
        1,
        Supervision::default(),
        false,
    )
    .expect("chaos point");
    outputs.push(("chaos_point.txt", render_chaos(&chaos)));

    if std::env::var("ECNSHARP_BLESS_GOLDEN").is_ok() {
        std::fs::create_dir_all(golden_dir()).expect("golden dir");
        for (name, got) in &outputs {
            std::fs::write(golden_dir().join(name), got).expect("write fixture");
        }
        eprintln!(
            "blessed {} fixtures into {}",
            outputs.len(),
            golden_dir().display()
        );
        return;
    }

    for (i, (name, got)) in outputs.iter().enumerate() {
        let path = golden_dir().join(name);
        let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!(
                "missing golden fixture {} ({e}); run with ECNSHARP_BLESS_GOLDEN=1 \
                 on a known-good engine to capture it",
                path.display()
            )
        });
        assert_eq!(
            got, &want,
            "output #{i} ({name}) drifted from its golden fixture; \
             if the change is intentional, re-bless and audit the diff"
        );
    }
}
