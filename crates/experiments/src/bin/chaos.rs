//! Chaos sweep: FCT robustness under injected faults — Gilbert–Elliott
//! burst loss (swept mean rate) crossed with a flapping leaf–spine link
//! (swept flap period) on the small leaf-spine fabric, DCTCP+ECN♯ vs
//! CoDel. Emits three CSVs (FCT, marking/drop ledger, abort ledger).
//!
//! First consumer of the run-supervision stack ([`runner::supervised_map`]):
//! every point runs with watchdogs and memory guards armed at their
//! default budgets, which are constants, not knobs (byte-identical
//! when untriggered — the supervision suite pins this), completed points
//! are journaled as they finish, `ECNSHARP_RESUME=1` skips journaled
//! points on restart, and points failing with a retryable error are
//! re-run with the same seed. A failing point is reported as structured
//! JSONL on stderr, the rest of the sweep still completes, partial CSVs
//! are written, and the process exits nonzero.
//!
//! Knobs (all strict — a typo is an error, never a silent default; the
//! sweep's share of the 14 `ECNSHARP_*` names inventoried in `env.rs`):
//! - `ECNSHARP_SCALE=quick|mid|full` — grid size and flow count;
//! - `ECNSHARP_FAULT_SEED=<u64|0xhex>` — base seed for every point;
//! - `ECNSHARP_SHARDS=<n>` — shard count per point (clamped to 2 here);
//! - `ECNSHARP_RESUME=1` — skip points already in the journal;
//! - `ECNSHARP_RETRIES=<n>` — same-seed retry budget (default 1);
//! - `ECNSHARP_INJECT_PANIC=worker` — crash the first sweep point;
//! - `ECNSHARP_INJECT_STALL=window` — freeze the first point's shard
//!   windows so the barrier-stall detector must trip (needs shards ≥ 2);
//! - `ECNSHARP_INJECT_LIVELOCK=engine` — schedule a zero-delay event
//!   cycle on the first point so the progress guard must trip.

// Host-side binary: env/exit/printing never feed the simulation.
#![allow(clippy::disallowed_methods)]

use ecnsharp_experiments::{env, perf, runner, ChaosResult, PointStatus, Scale, Scheme};
use ecnsharp_net::Supervision;
use ecnsharp_sim::Duration;
use ecnsharp_stats::{us, Table};
use std::process::ExitCode;

/// One sweep point. The integer `idx` doubles as the drill-injection key
/// (the determinism lint forbids float comparisons, and an index is the
/// honest identity of a grid point anyway).
type Point = (usize, f64, Option<Duration>, Scheme);

fn flap_label(flap: &Option<Duration>) -> String {
    match flap {
        Some(d) => format!("{}", d.as_nanos() / 1_000),
        None => "-".into(),
    }
}

fn main() -> ExitCode {
    let scale = Scale::from_env_or_exit();
    let seed = runner::fault_seed_or_exit();
    let inject_panic = env::or_exit(env::inject_panic());
    let inject_stall = env::or_exit(env::inject_stall());
    let inject_livelock = env::or_exit(env::inject_livelock());
    let shards = env::or_exit(env::shards());
    let cfg = runner::SweepConfig {
        journal: Some(runner::results_dir().join("chaos.journal.jsonl")),
        resume: env::or_exit(env::resume()),
        retries: env::or_exit(env::retries()),
    };

    let (losses, flap_us, n_flows): (Vec<f64>, Vec<Option<u64>>, usize) = match scale {
        Scale::Full => (
            vec![0.0, 0.002, 0.005, 0.01, 0.02, 0.05],
            vec![None, Some(100), Some(200), Some(1_000)],
            400,
        ),
        Scale::Mid => (
            vec![0.0, 0.005, 0.01, 0.02],
            vec![None, Some(200), Some(1_000)],
            200,
        ),
        Scale::Quick => (vec![0.0, 0.01], vec![None, Some(200)], 40),
    };
    let schemes = [Scheme::EcnSharp(None), Scheme::CoDel];
    let mut jobs: Vec<Point> = Vec::new();
    for &loss in &losses {
        for &f in &flap_us {
            for s in &schemes {
                let idx = jobs.len();
                jobs.push((idx, loss, f.map(Duration::from_micros), s.clone()));
            }
        }
    }
    let meta: Vec<(f64, Option<Duration>, String)> = jobs
        .iter()
        .map(|(_, loss, flap, s)| (*loss, *flap, s.label()))
        .collect();
    let point_id = |(idx, loss, flap, s): &Point| {
        format!(
            "chaos-{idx}-loss{loss:?}-flap{}-{}",
            flap_label(flap),
            s.label()
        )
    };
    let point_seed = |(idx, ..): &Point| seed.wrapping_add(*idx as u64 * 7919);
    let ids: Vec<String> = jobs.iter().map(point_id).collect();
    let seeds: Vec<u64> = jobs.iter().map(point_seed).collect();

    println!(
        "Chaos sweep — leaf-spine 2x2x4, web search @50% load, {} points (seed {seed:#x})",
        jobs.len()
    );
    println!("loss = GE mean burst-loss rate; flap_us = leaf0-spine0 flap period (- = no flap)\n");

    let t = perf::timed(|| {
        runner::supervised_map(jobs, &cfg, point_id, point_seed, |p| {
            let (idx, loss, flap, scheme) = p;
            if inject_panic && *idx == 0 {
                panic!("injected worker panic (ECNSHARP_INJECT_PANIC=worker)");
            }
            let point_sup = Supervision {
                inject_stall: inject_stall && *idx == 0,
                ..Supervision::armed()
            };
            ecnsharp_experiments::try_run_chaos_leaf_spine_sharded(
                scheme.clone(),
                *loss,
                *flap,
                n_flows,
                point_seed(p),
                shards,
                point_sup,
                inject_livelock && *idx == 0,
            )
        })
    });
    let perf_line = t.report("chaos");
    let report = t.result;

    let mut fct_t = Table::new(&[
        "loss",
        "flap_us",
        "scheme",
        "completed",
        "failed",
        "overall_avg_us",
        "overall_p99_us",
        "short_p99_us",
        "timeouts",
    ]);
    let mut marks_t = Table::new(&[
        "loss",
        "flap_us",
        "scheme",
        "ce_marks",
        "fault_drops",
        "corrupt_drops",
        "burst_drops",
        "no_route_drops",
    ]);
    let mut aborts_t = Table::new(&["loss", "flap_us", "scheme", "failed", "timeouts"]);
    for ((loss, flap, label), p) in meta.iter().zip(&report.points) {
        // Failed and resumed-skipped points are reported below and absent
        // from this run's CSVs.
        let PointStatus::Done(r): &PointStatus<ChaosResult> = p else {
            continue;
        };
        let loss_s = format!("{loss:?}");
        let flap_s = flap_label(flap);
        fct_t.row(&[
            loss_s.clone(),
            flap_s.clone(),
            label.clone(),
            r.completed.to_string(),
            r.failed.to_string(),
            us(r.fct.overall.avg),
            us(r.fct.overall.p99),
            us(r.fct.short.map(|s| s.p99).unwrap_or(f64::NAN)),
            r.timeouts.to_string(),
        ]);
        marks_t.row(&[
            loss_s.clone(),
            flap_s.clone(),
            label.clone(),
            r.ce_marks.to_string(),
            r.fault_drops.to_string(),
            r.corrupt_drops.to_string(),
            r.burst_drops.to_string(),
            r.no_route_drops.to_string(),
        ]);
        aborts_t.row(&[
            loss_s,
            flap_s,
            label.clone(),
            r.failed.to_string(),
            r.timeouts.to_string(),
        ]);
    }
    let dir = runner::results_dir();
    for (table, name) in [
        (&fct_t, "chaos_fct"),
        (&marks_t, "chaos_marks"),
        (&aborts_t, "chaos_aborts"),
    ] {
        let path = dir.join(format!("{name}.csv"));
        if let Err(e) = table.write_csv(&path) {
            eprintln!("warning: could not write {}: {e}", path.display());
        }
    }
    print!("{}", fct_t.render());
    println!();
    print!("{}", marks_t.render());
    eprintln!("{perf_line}");

    runner::report_failures(&report, &ids, &seeds);
    println!("{}", report.summary_line());
    if report.failed > 0 {
        eprintln!(
            "chaos: {} of {} points failed; partial CSVs written to {}",
            report.failed,
            meta.len(),
            dir.display()
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
