//! Ablation of ECN♯'s two components (the §3.3 "why it works" argument,
//! measured):
//!
//! - **full ECN♯** — instantaneous + persistent marking;
//! - **instantaneous-only** — ECN♯ with the persistent detector disabled
//!   (equivalent to TCN at the same threshold): keeps throughput and burst
//!   tolerance but tolerates standing queues;
//! - **persistent-only** — ECN♯ with the instantaneous threshold pushed out
//!   of reach (CoDel-like): drains standing queues but nothing tames
//!   bursts.
//!
//! Each variant runs the testbed FCT scenario and the incast microscope.

use ecnsharp_core::EcnSharpConfig;
use ecnsharp_experiments::{
    run_incast_micro_with, run_testbed_star, FctScenario, IncastTimeline, Scale, Scheme,
    SchemeParams,
};
use ecnsharp_sim::{Duration, Rate};
use ecnsharp_stats::Table;
use ecnsharp_workload::{dists, RttVariation};

fn variants(params: &SchemeParams) -> Vec<(&'static str, Scheme)> {
    let base = params.ecnsharp();
    let ins_only = EcnSharpConfig::new(base.ins_target, base.ins_target, base.pst_interval);
    let pst_only = EcnSharpConfig::new(
        Duration::from_millis(100), // out of reach: never fires
        base.pst_target,
        base.pst_interval,
    );
    vec![
        ("full", Scheme::EcnSharp(Some(base))),
        ("instantaneous-only", Scheme::EcnSharp(Some(ins_only))),
        ("persistent-only", Scheme::EcnSharp(Some(pst_only))),
    ]
}

fn run() {
    let scale = Scale::from_env_or_exit();
    let (flows, fanout, timeline) = match scale {
        Scale::Full => (1_200, 100, IncastTimeline::Paper),
        Scale::Mid => (600, 100, IncastTimeline::Compressed),
        Scale::Quick => (150, 40, IncastTimeline::Compressed),
    };
    let params = SchemeParams::derive(&RttVariation::paper_3x(), Rate::from_gbps(10));

    println!("ECN# component ablation (testbed FCT @60% web search + incast microscope)\n");
    let mut t = Table::new(&[
        "variant",
        "short_avg_us",
        "short_p99_us",
        "large_avg_us",
        "standing_pkts",
        "burst_drops",
    ]);
    for (name, scheme) in variants(&params) {
        let sc = FctScenario::testbed(scheme.clone(), dists::web_search(), 0.6, flows, 314);
        let (fct, _) = run_testbed_star(&sc);
        let inc = run_incast_micro_with(scheme, fanout, 314, timeline);
        t.row(&[
            name.into(),
            format!("{:.1}", fct.short.map(|s| s.avg * 1e6).unwrap_or(f64::NAN)),
            format!("{:.1}", fct.short.map(|s| s.p99 * 1e6).unwrap_or(f64::NAN)),
            format!("{:.1}", fct.large.map(|s| s.avg * 1e6).unwrap_or(f64::NAN)),
            format!("{:.1}", inc.standing_pkts),
            inc.drops.to_string(),
        ]);
    }
    print!("{}", t.render());
    let _ = t.write_csv(ecnsharp_experiments::results_dir().join("ablation.csv"));
}

fn main() -> std::process::ExitCode {
    // Supervision exit contract: a panic anywhere above becomes one
    // structured JSONL error line and exit 1 (see `runner::guarded_run`).
    ecnsharp_experiments::guarded_run("ablation", run)
}
