//! Chaos sweep: FCT robustness under injected faults — Gilbert–Elliott
//! burst loss (swept mean rate) crossed with a flapping leaf–spine link
//! (swept flap period) on the small leaf-spine fabric, DCTCP+ECN♯ vs
//! CoDel. Emits three CSVs (FCT, marking/drop ledger, abort ledger).
//!
//! The sweep is a map over independent, seeded points
//! ([`try_parallel_map`]). Every point runs with watchdogs and memory
//! guards armed at their default budgets, which are constants, not knobs
//! (byte-identical when untriggered — the supervision suite pins this),
//! and returns `Result<ChaosResult, SimError>`; a panicking point becomes
//! a `WorkerPanic` whose message carries its point id and seed. A point
//! is never retried: the simulator is deterministic, so a failure
//! reproduces byte for byte from its id and seed. Each failed point is
//! reported as one JSONL line on stderr, the rest of the sweep still
//! completes, partial CSVs are written, and the process exits nonzero.
//!
//! Knobs (all strict — a typo is an error, never a silent default; the
//! sweep's share of the 12 `ECNSHARP_*` names inventoried in `env.rs`):
//! - `ECNSHARP_SCALE=quick|mid|full` — grid size and flow count;
//! - `ECNSHARP_FAULT_SEED=<u64|0xhex>` — base seed for every point;
//! - `ECNSHARP_SHARDS=<n>` — shard count per point (clamped to 2 here);
//! - `ECNSHARP_INJECT_PANIC=worker` — crash the first sweep point;
//! - `ECNSHARP_INJECT_STALL=window` — freeze the first point's shard
//!   windows so the barrier-stall detector must trip (needs shards ≥ 2);
//! - `ECNSHARP_INJECT_LIVELOCK=engine` — schedule a zero-delay event
//!   cycle on the first point so the progress guard must trip.

use ecnsharp_experiments::{
    env, perf, results_dir, run_chaos_leaf_spine, try_parallel_map, ChaosResult, Scale, Scheme,
    SweepOutcome,
};
use ecnsharp_net::{SimError, Supervision};
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
    let seed = env::or_exit(env::fault_seed());
    let inject_panic = env::or_exit(env::inject_panic());
    let inject_stall = env::or_exit(env::inject_stall());
    let inject_livelock = env::or_exit(env::inject_livelock());
    let shards = env::or_exit(env::shards());

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
    let point_seed = |idx: usize| seed.wrapping_add(idx as u64 * 7919);
    let point_id = |&(idx, loss, flap, ref scheme): &Point| {
        format!(
            "chaos-{idx}-loss{loss:?}-flap{}-{}",
            flap_label(&flap),
            scheme.label()
        )
    };

    println!(
        "Chaos sweep — leaf-spine 2x2x4, web search @50% load, {} points (seed {seed:#x})",
        jobs.len()
    );
    println!("loss = GE mean burst-loss rate; flap_us = leaf0-spine0 flap period (- = no flap)\n");

    let t = perf::timed(|| {
        try_parallel_map(jobs.iter().collect(), |&&(idx, loss, flap, ref scheme)| {
            if inject_panic && idx == 0 {
                panic!("injected worker panic (ECNSHARP_INJECT_PANIC=worker)");
            }
            let point_sup = Supervision {
                inject_stall: inject_stall && idx == 0,
                ..Supervision::armed()
            };
            run_chaos_leaf_spine(
                scheme.clone(),
                loss,
                flap,
                n_flows,
                point_seed(idx),
                shards,
                point_sup,
                inject_livelock && idx == 0,
            )
        })
    });
    let perf_line = t.report("chaos");
    let SweepOutcome { results, panics } = t.result;
    // A panicked point leaves its slot empty; its error names the point.
    let points: Vec<Result<ChaosResult, SimError>> = results
        .into_iter()
        .zip(&jobs)
        .map(|(slot, p)| {
            slot.unwrap_or_else(|| {
                let msg = panics
                    .iter()
                    .find(|(i, _)| *i == p.0)
                    .map_or("", |(_, m)| m);
                Err(SimError::WorkerPanic {
                    msg: format!("point {} (seed {:#x}): {msg}", point_id(p), point_seed(p.0)),
                })
            })
        })
        .collect();

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
    for ((_, loss, flap, scheme), res) in jobs.iter().zip(&points) {
        // Failed points are reported below and absent from the CSVs.
        let Ok(r) = res else { continue };
        let label = scheme.label();
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
            label,
            r.failed.to_string(),
            r.timeouts.to_string(),
        ]);
    }
    let dir = results_dir();
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

    let mut failed = 0;
    for (p, res) in jobs.iter().zip(&points) {
        if let Err(e) = res {
            failed += 1;
            eprintln!(
                "{{\"point\":\"{}\",\"seed\":{},\"error\":{}}}",
                point_id(p),
                point_seed(p.0),
                e.to_jsonl()
            );
        }
    }
    println!(
        "sweep: {} completed, {failed} failed",
        points.len() - failed
    );
    if failed > 0 {
        eprintln!(
            "chaos: {failed} of {} points failed; partial CSVs written to {}",
            points.len(),
            dir.display()
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
