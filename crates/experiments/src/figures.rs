//! One function per paper table/figure. Each returns a [`Table`] whose
//! rows mirror what the paper plots, writes a CSV under the results
//! directory, and (where the paper states numbers) includes the paper's
//! value next to the measured one.

use crate::env::{self, results_dir};
use crate::runner::{parallel_map, Scale};
use crate::scenario::{run_dwrr, run_leaf_spine_sharded, run_testbed_star, FctScenario};
use crate::scheme::{Scheme, SchemeParams};
use ecnsharp_core::EcnSharpConfig;
use ecnsharp_sim::{Duration, Rate, Rng};
use ecnsharp_stats::{average_breakdowns, ratio, us, FctBreakdown, Table};
use ecnsharp_tofino::{reference_ticks, RegisterFile, TimeEmulator, TofinoEcnSharp, WrapCmp};
use ecnsharp_workload::{dists, measure_case, RttVariation, Table1Case};

fn save(table: &Table, name: &str) {
    let path = results_dir().join(format!("{name}.csv"));
    if let Err(e) = table.write_csv(&path) {
        eprintln!("warning: could not write {}: {e}", path.display());
    }
}

/// Average an FCT scenario over `seeds` seeds.
fn averaged_fct(base: &FctScenario, seeds: u64) -> FctBreakdown {
    let runs: Vec<FctBreakdown> = parallel_map((0..seeds).collect::<Vec<u64>>(), |&s| {
        let mut sc = base.clone();
        sc.seed = base.seed + s * 7919;
        run_testbed_star(&sc).0
    });
    average_breakdowns(&runs)
}

// ─────────────────────────────────────────────────────────────────────────
// Table 1 / Figure 1
// ─────────────────────────────────────────────────────────────────────────

/// Table 1: RTT statistics per processing-component combination, measured
/// vs paper. Also covers Fig. 1 (the same data as a box plot).
pub fn table1(scale: Scale) -> Table {
    let samples = match scale {
        Scale::Full => 30_000,
        Scale::Mid => 10_000,
        Scale::Quick => 3_000,
    };
    let mut rng = Rng::seed_from_u64(0x7AB1E1);
    let mut t = Table::new(&[
        "case",
        "mean_us",
        "paper_mean",
        "std_us",
        "paper_std",
        "p90_us",
        "paper_p90",
        "p99_us",
        "paper_p99",
    ]);
    for case in Table1Case::all() {
        let got = measure_case(case, samples, &mut rng);
        let (pm, ps, p90, p99) = case.paper_row();
        t.row(&[
            case.label().to_string(),
            format!("{:.1}", got.mean),
            format!("{pm:.1}"),
            format!("{:.1}", got.std),
            format!("{ps:.1}"),
            format!("{:.1}", got.p90),
            format!("{p90:.1}"),
            format!("{:.1}", got.p99),
            format!("{p99:.1}"),
        ]);
    }
    save(&t, "table1");
    t
}

// ─────────────────────────────────────────────────────────────────────────
// Figure 2: threshold sweep under 3× RTT variation
// ─────────────────────────────────────────────────────────────────────────

/// Fig. 2: no single instantaneous threshold gives both high throughput
/// and low tail latency. Sweeps K ∈ 50..250 KB at 50% web-search load;
/// reports large-flow avg FCT (throughput proxy) and short-flow p99,
/// normalized to the K = 50 KB run.
pub fn fig2(scale: Scale) -> Table {
    let ks: Vec<u64> = vec![50_000, 100_000, 150_000, 200_000, 250_000];
    let rows = parallel_map(ks.clone(), |&k| {
        let sc = FctScenario::testbed(
            Scheme::DctcpRedK(k),
            dists::web_search(),
            0.5,
            scale.flows(),
            11,
        );
        averaged_fct(&sc, scale.seeds())
    });
    let base = &rows[0];
    let mut t = Table::new(&[
        "K_KB",
        "large_avg_us",
        "short_p99_us",
        "norm_large_avg",
        "norm_short_p99",
    ]);
    for (k, r) in ks.iter().zip(&rows) {
        let large = r.large.map(|s| s.avg).unwrap_or(f64::NAN);
        let short = r.short.map(|s| s.p99).unwrap_or(f64::NAN);
        let base_large = base.large.map(|s| s.avg).unwrap_or(f64::NAN);
        let base_short = base.short.map(|s| s.p99).unwrap_or(f64::NAN);
        t.row(&[
            format!("{}", k / 1000),
            us(large),
            us(short),
            ratio(large / base_large),
            ratio(short / base_short),
        ]);
    }
    save(&t, "fig2");
    t
}

// ─────────────────────────────────────────────────────────────────────────
// Figure 3: growing RTT variation widens the avg-vs-tail gap
// ─────────────────────────────────────────────────────────────────────────

/// Fig. 3: sweep the RTT variation 2×–5×; for each, run thresholds from
/// the average and the 90th-percentile RTT; report large-flow avg and
/// short-flow p99 normalized to the average-RTT threshold run.
pub fn fig3(scale: Scale) -> Table {
    let variations: Vec<u64> = vec![2, 3, 4, 5];
    let rows = parallel_map(variations.clone(), |&n| {
        let rtt = RttVariation::paper_nx(n);
        let run = |scheme: Scheme| {
            let mut sc =
                FctScenario::testbed(scheme, dists::web_search(), 0.5, scale.flows(), 23 + n);
            sc.rtt = rtt;
            averaged_fct(&sc, scale.seeds())
        };
        (run(Scheme::DctcpRedAvg), run(Scheme::DctcpRedTail))
    });
    let mut t = Table::new(&[
        "variation",
        "tail_vs_avg:large_avg",
        "avg_vs_tail:short_p99",
        "large_avg(avg)_us",
        "large_avg(tail)_us",
        "short_p99(avg)_us",
        "short_p99(tail)_us",
    ]);
    for (n, (avg_run, tail_run)) in variations.iter().zip(&rows) {
        let la = avg_run.large.map(|s| s.avg).unwrap_or(f64::NAN);
        let lt = tail_run.large.map(|s| s.avg).unwrap_or(f64::NAN);
        let sa = avg_run.short.map(|s| s.p99).unwrap_or(f64::NAN);
        let st = tail_run.short.map(|s| s.p99).unwrap_or(f64::NAN);
        t.row(&[
            format!("{n}x"),
            // >1 means the avg-threshold hurts large flows (throughput).
            ratio(la / lt),
            // >1 means the tail-threshold hurts short-flow latency.
            ratio(st / sa),
            us(la),
            us(lt),
            us(sa),
            us(st),
        ]);
    }
    save(&t, "fig3");
    t
}

// ─────────────────────────────────────────────────────────────────────────
// Figure 5: the workload CDFs
// ─────────────────────────────────────────────────────────────────────────

/// Fig. 5: flow-size CDF points for both workloads.
pub fn fig5() -> Table {
    let mut t = Table::new(&["workload", "size_bytes", "cdf"]);
    for (name, cdf) in [
        ("web_search", dists::web_search()),
        ("data_mining", dists::data_mining()),
    ] {
        for &(v, p) in cdf.points() {
            t.row(&[name.into(), format!("{v:.0}"), format!("{p:.3}")]);
        }
    }
    save(&t, "fig5");
    t
}

// ─────────────────────────────────────────────────────────────────────────
// Figures 6 & 7: testbed FCT vs load, four schemes
// ─────────────────────────────────────────────────────────────────────────

fn testbed_fct_figure(
    name: &str,
    cdf: ecnsharp_workload::PiecewiseCdf,
    flows: usize,
    scale: Scale,
) -> Table {
    let loads = scale.loads();
    let schemes = Scheme::testbed_set();
    let mut jobs = Vec::new();
    for &load in &loads {
        for scheme in &schemes {
            jobs.push((load, scheme.clone()));
        }
    }
    let results = parallel_map(jobs.clone(), |(load, scheme)| {
        let sc = FctScenario::testbed(scheme.clone(), cdf.clone(), *load, flows, 37);
        averaged_fct(&sc, scale.seeds())
    });
    let mut t = Table::new(&[
        "load",
        "scheme",
        "overall_avg_us",
        "short_avg_us",
        "short_p99_us",
        "large_avg_us",
        "norm_overall_avg",
        "norm_short_avg",
        "norm_short_p99",
        "norm_large_avg",
    ]);
    for (li, &load) in loads.iter().enumerate() {
        // Normalize to DCTCP-RED-Tail at the same load (schemes[0]).
        let base = &results[li * schemes.len()];
        for (si, scheme) in schemes.iter().enumerate() {
            let r = &results[li * schemes.len() + si];
            let get = |b: &FctBreakdown, f: &dyn Fn(&FctBreakdown) -> Option<f64>| {
                f(b).unwrap_or(f64::NAN)
            };
            let overall = r.overall.avg;
            let short_avg = get(r, &|b| b.short.map(|s| s.avg));
            let short_p99 = get(r, &|b| b.short.map(|s| s.p99));
            let large_avg = get(r, &|b| b.large.map(|s| s.avg));
            t.row(&[
                format!("{:.0}%", load * 100.0),
                scheme.label(),
                us(overall),
                us(short_avg),
                us(short_p99),
                us(large_avg),
                ratio(overall / base.overall.avg),
                ratio(short_avg / get(base, &|b| b.short.map(|s| s.avg))),
                ratio(short_p99 / get(base, &|b| b.short.map(|s| s.p99))),
                ratio(large_avg / get(base, &|b| b.large.map(|s| s.avg))),
            ]);
        }
    }
    save(&t, name);
    t
}

/// Fig. 6: testbed FCT with the web-search workload, loads 10–90%,
/// DCTCP-RED-Tail / DCTCP-RED-AVG / CoDel / ECN♯ (normalized to RED-Tail).
pub fn fig6(scale: Scale) -> Table {
    testbed_fct_figure("fig6", dists::web_search(), scale.flows(), scale)
}

/// Fig. 7: same as Fig. 6 with the data-mining workload. Quick-scale runs
/// cap the flow count: the heavy tail makes even 60 data-mining flows the
/// slowest smoke run by far, and the smoke sweep only checks plumbing.
pub fn fig7(scale: Scale) -> Table {
    let flows = scale.cap_quick(scale.flows_dm(), 40);
    testbed_fct_figure("fig7", dists::data_mining(), flows, scale)
}

// ─────────────────────────────────────────────────────────────────────────
// Figure 8: ECN♯ vs RED-Tail as variation grows
// ─────────────────────────────────────────────────────────────────────────

/// Fig. 8: normalized FCT of ECN♯ to DCTCP-RED-Tail under 3×/4×/5× RTT
/// variation (web search): overall average and short-flow p99.
pub fn fig8(scale: Scale) -> Table {
    let loads = scale.loads();
    let variations: Vec<u64> = vec![3, 4, 5];
    let mut jobs = Vec::new();
    for &n in &variations {
        for &load in &loads {
            for scheme in [Scheme::DctcpRedTail, Scheme::EcnSharp(None)] {
                jobs.push((n, load, scheme));
            }
        }
    }
    let results = parallel_map(jobs.clone(), |(n, load, scheme)| {
        let mut sc = FctScenario::testbed(
            scheme.clone(),
            dists::web_search(),
            *load,
            scale.flows(),
            41 + n,
        );
        sc.rtt = RttVariation::paper_nx(*n);
        averaged_fct(&sc, scale.seeds())
    });
    let mut t = Table::new(&[
        "variation",
        "load",
        "NFCT_overall_avg",
        "NFCT_short_p99",
        "ecnsharp_overall_us",
        "redtail_overall_us",
    ]);
    let mut idx = 0;
    for &n in &variations {
        for &load in &loads {
            let red = &results[idx];
            let sharp = &results[idx + 1];
            idx += 2;
            let nshort = sharp.short.map(|s| s.p99).unwrap_or(f64::NAN)
                / red.short.map(|s| s.p99).unwrap_or(f64::NAN);
            t.row(&[
                format!("{n}x"),
                format!("{:.0}%", load * 100.0),
                ratio(sharp.overall.avg / red.overall.avg),
                ratio(nshort),
                us(sharp.overall.avg),
                us(red.overall.avg),
            ]);
        }
    }
    save(&t, "fig8");
    t
}

// ─────────────────────────────────────────────────────────────────────────
// Figure 9: large-scale leaf-spine simulation
// ─────────────────────────────────────────────────────────────────────────

/// Fig. 9: leaf-spine fabric (8×8×16 at full scale), web-search workload,
/// ECMP; overall and short-flow average FCT normalized to DCTCP-RED-Tail.
/// `ECNSHARP_SHARDS` picks the shard count per run; the CSV is
/// byte-identical at every count.
pub fn fig9(scale: Scale) -> Table {
    let (spines, leaves, hpl, flows, loads): (usize, usize, usize, usize, Vec<f64>) = match scale {
        Scale::Full => (
            8,
            8,
            16,
            4_000,
            vec![0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9],
        ),
        Scale::Mid => (8, 8, 16, 1_500, vec![0.3, 0.5, 0.7]),
        Scale::Quick => (2, 2, 4, 150, vec![0.3, 0.6]),
    };
    let schemes = [Scheme::DctcpRedTail, Scheme::EcnSharp(None)];
    let mut jobs = Vec::new();
    for &load in &loads {
        for scheme in &schemes {
            jobs.push((load, scheme.clone()));
        }
    }
    let shards = env::or_exit(env::shards());
    let results = parallel_map(jobs, |(load, scheme)| {
        let mut sc = FctScenario::testbed(scheme.clone(), dists::web_search(), *load, flows, 53);
        sc.rtt = RttVariation::sim_3x();
        run_leaf_spine_sharded(&sc, spines, leaves, hpl, shards)
    });
    let mut t = Table::new(&[
        "load",
        "NFCT_overall_avg",
        "NFCT_short_avg",
        "ecnsharp_overall_us",
        "redtail_overall_us",
    ]);
    for (li, &load) in loads.iter().enumerate() {
        let red = &results[li * 2];
        let sharp = &results[li * 2 + 1];
        let nshort = sharp.short.map(|s| s.avg).unwrap_or(f64::NAN)
            / red.short.map(|s| s.avg).unwrap_or(f64::NAN);
        t.row(&[
            format!("{:.0}%", load * 100.0),
            ratio(sharp.overall.avg / red.overall.avg),
            ratio(nshort),
            us(sharp.overall.avg),
            us(red.overall.avg),
        ]);
    }
    save(&t, "fig9");
    t
}

// ─────────────────────────────────────────────────────────────────────────
// Figure 10: queue-occupancy microscope
// ─────────────────────────────────────────────────────────────────────────

/// Fig. 10: queue occupancy over a 5 ms window around a 100-flow incast,
/// per scheme; paper headline: RED-Tail ≈ 182 pkt average vs ECN♯ ≈ 8 pkt,
/// CoDel drops ~125 packets.
pub fn fig10(scale: Scale) -> Table {
    let fanout = match scale {
        Scale::Full | Scale::Mid => 100,
        Scale::Quick => 40,
    };
    let timeline = match scale {
        Scale::Full => crate::scenario::IncastTimeline::Paper,
        Scale::Mid | Scale::Quick => crate::scenario::IncastTimeline::Compressed,
    };
    let schemes = vec![
        Scheme::DctcpRedTail,
        Scheme::CoDelDrop,
        Scheme::EcnSharp(None),
    ];
    let results = parallel_map(schemes.clone(), |scheme| {
        crate::scenario::run_incast_micro_with(scheme.clone(), fanout, 61, timeline)
    });
    let mut t = Table::new(&[
        "scheme",
        "standing_queue_pkts",
        "paper_standing",
        "avg_queue_pkts",
        "max_queue_pkts",
        "drops",
        "query_avg_us",
        "query_p99_us",
    ]);
    for (scheme, r) in schemes.iter().zip(&results) {
        // Dump the raw series for plotting.
        let mut series = Table::new(&["time_s", "backlog_bytes", "backlog_pkts"]);
        for &(ts, b, p) in &r.series {
            series.row(&[
                format!("{:.9}", ts.as_secs_f64()),
                b.to_string(),
                p.to_string(),
            ]);
        }
        save(
            &series,
            &format!("fig10_series_{}", scheme.label().replace('#', "sharp")),
        );
        let paper_standing = match scheme {
            Scheme::DctcpRedTail => "182",
            Scheme::EcnSharp(_) => "8",
            _ => "-",
        };
        t.row(&[
            scheme.label(),
            format!("{:.1}", r.standing_pkts),
            paper_standing.into(),
            format!("{:.1}", r.queue.avg_pkts),
            r.queue.max_pkts.to_string(),
            r.drops.to_string(),
            us(r.query_fct.overall.avg),
            us(r.query_fct.overall.p99),
        ]);
    }
    save(&t, "fig10");
    t
}

// ─────────────────────────────────────────────────────────────────────────
// Figure 11: query FCT vs incast fanout
// ─────────────────────────────────────────────────────────────────────────

/// Fig. 11: average and p99 query completion time as the incast fanout
/// grows; CoDel collapses (timeouts) around 100 senders, ECN♯ survives to
/// ~175 (the paper's 1.75× headline).
pub fn fig11(scale: Scale) -> Table {
    let fanouts: Vec<usize> = match scale {
        Scale::Full => vec![25, 50, 75, 100, 125, 150, 175, 200],
        Scale::Mid => vec![50, 100, 150, 200],
        Scale::Quick => vec![25, 75],
    };
    let schemes = vec![
        Scheme::DctcpRedTail,
        Scheme::CoDelDrop,
        Scheme::EcnSharp(None),
    ];
    let mut jobs = Vec::new();
    for &f in &fanouts {
        for s in &schemes {
            jobs.push((f, s.clone()));
        }
    }
    let timeline = match scale {
        Scale::Full => crate::scenario::IncastTimeline::Paper,
        Scale::Mid | Scale::Quick => crate::scenario::IncastTimeline::Compressed,
    };
    let results = parallel_map(jobs, |(f, s)| {
        crate::scenario::run_incast_micro_with(s.clone(), *f, 67, timeline)
    });
    let mut t = Table::new(&[
        "fanout",
        "scheme",
        "query_avg_ms",
        "query_p99_ms",
        "timeouts",
        "drops",
    ]);
    let mut idx = 0;
    for &f in &fanouts {
        for s in &schemes {
            let r = &results[idx];
            idx += 1;
            t.row(&[
                f.to_string(),
                s.label(),
                format!("{:.3}", r.query_fct.overall.avg * 1e3),
                format!("{:.3}", r.query_fct.overall.p99 * 1e3),
                r.query_timeouts.to_string(),
                r.drops.to_string(),
            ]);
        }
    }
    save(&t, "fig11");
    t
}

// ─────────────────────────────────────────────────────────────────────────
// Figure 12: parameter sensitivity
// ─────────────────────────────────────────────────────────────────────────

/// Fig. 12: overall FCT of ECN♯ under swept `pst_interval` (100–250 µs)
/// and `pst_target` values, normalized to the rule-of-thumb setting —
/// the paper reports <1% variation.
pub fn fig12(scale: Scale) -> Table {
    let base_params = SchemeParams::derive(&RttVariation::paper_3x(), Rate::from_gbps(10));
    let base_cfg = base_params.ecnsharp();
    let intervals: Vec<u64> = vec![100, 150, 200, 250];
    let targets: Vec<u64> = vec![6, 10, 14, 18]; // Fig. 12b's axis
    let mut cfgs: Vec<(String, EcnSharpConfig)> = Vec::new();
    cfgs.push(("rule-of-thumb".into(), base_cfg));
    for &i in &intervals {
        cfgs.push((
            format!("pst_interval={i}us"),
            base_cfg.with_pst_interval(Duration::from_micros(i)),
        ));
    }
    for &tg in &targets {
        cfgs.push((
            format!("pst_target={tg}us"),
            base_cfg.with_pst_target(Duration::from_micros(tg)),
        ));
    }
    let jobs: Vec<(String, EcnSharpConfig, &'static str)> = cfgs
        .iter()
        .flat_map(|(n, c)| {
            [
                ("web_search", *c, n.clone()),
                ("data_mining", *c, n.clone()),
            ]
            .into_iter()
            .map(|(w, c, n)| (n, c, w))
        })
        .collect();
    let results = parallel_map(jobs.clone(), |(_, cfg, workload)| {
        // Quick-scale caps: the 18-setting × 2-workload sweep is the widest
        // figure; uncapped it dominates the smoke sweep's wall time.
        let (cdf, flows) = if *workload == "web_search" {
            (dists::web_search(), scale.cap_quick(scale.flows(), 80))
        } else {
            (dists::data_mining(), scale.cap_quick(scale.flows_dm(), 30))
        };
        let sc = FctScenario::testbed(Scheme::EcnSharp(Some(*cfg)), cdf, 0.6, flows, 71);
        averaged_fct(&sc, scale.seeds())
    });
    let mut t = Table::new(&[
        "setting",
        "workload",
        "overall_avg_us",
        "norm_to_rule_of_thumb",
    ]);
    // Index of the baseline rows.
    let base_ws = results[0].overall.avg;
    let base_dm = results[1].overall.avg;
    for ((name, _, workload), r) in jobs.iter().zip(&results) {
        let base = if *workload == "web_search" {
            base_ws
        } else {
            base_dm
        };
        t.row(&[
            name.clone(),
            workload.to_string(),
            us(r.overall.avg),
            ratio(r.overall.avg / base),
        ]);
    }
    save(&t, "fig12");
    t
}

// ─────────────────────────────────────────────────────────────────────────
// Figure 13: packet schedulers
// ─────────────────────────────────────────────────────────────────────────

/// Fig. 13: DWRR (weights 2:1:1) with ECN♯ — goodput staircase per class
/// plus short-probe FCT vs TCN.
pub fn fig13(scale: Scale) -> Table {
    let _ = scale;
    let schemes = vec![
        Scheme::EcnSharp(None),
        Scheme::Tcn(Some(Duration::from_micros(150))),
    ];
    let results = parallel_map(schemes.clone(), |s| run_dwrr(s.clone(), 73));
    // Goodput staircase (ECN♯ run) — Fig. 13a.
    let mut stair = Table::new(&["time_s", "class0_gbps", "class1_gbps", "class2_gbps"]);
    for (ts, g) in results[0].checkpoints.iter().zip(&results[0].goodput) {
        stair.row(&[
            format!("{:.1}", ts.as_secs_f64()),
            format!("{:.2}", g[0]),
            format!("{:.2}", g[1]),
            format!("{:.2}", g[2]),
        ]);
    }
    save(&stair, "fig13a_goodput");
    // Probe FCT comparison — Fig. 13b.
    let mut t = Table::new(&["scheme", "probe_avg_us", "probe_p99_us", "probes"]);
    for (s, r) in schemes.iter().zip(&results) {
        t.row(&[
            s.label(),
            us(r.probe_fct.overall.avg),
            us(r.probe_fct.overall.p99),
            r.probe_fct.overall.count.to_string(),
        ]);
    }
    save(&t, "fig13b_probe_fct");
    // Also print the staircase to stdout via the returned table: merge.
    let mut merged = Table::new(&["section", "row"]);
    for line in stair.render().lines() {
        merged.row(&["goodput".into(), line.to_string()]);
    }
    for line in t.render().lines() {
        merged.row(&["probe_fct".into(), line.to_string()]);
    }
    merged
}

// ─────────────────────────────────────────────────────────────────────────
// §4: Tofino resource/fidelity report
// ─────────────────────────────────────────────────────────────────────────

/// §4 report: pipeline resource usage and the Algorithm-2 time-emulation
/// fidelity (including the `<=` vs `<` wrap-comparison discrepancy).
pub fn tofino_report() -> Table {
    let params = SchemeParams::derive(&RttVariation::paper_3x(), Rate::from_gbps(10));
    let pipe = TofinoEcnSharp::new(params.ecnsharp(), 128, 0, WrapCmp::CorrectedLt);
    let r = pipe.resources();
    let mut t = Table::new(&["item", "ours", "paper"]);
    t.row(&[
        "match-action tables".into(),
        r.match_action_tables.to_string(),
        "7".into(),
    ]);
    t.row(&[
        "register arrays".into(),
        format!("{}x32-bit", r.reg32_arrays),
        "5x32-bit + 2x64-bit".into(),
    ]);
    t.row(&[
        "register memory (128 ports)".into(),
        format!("{} B", r.register_bytes),
        "~37 KB".into(),
    ]);
    t.row(&[
        "per-packet metadata".into(),
        format!("{} bits", r.metadata_bits),
        "124 bits".into(),
    ]);
    t.row(&[
        "sqrt range-match entries".into(),
        r.sqrt_table_entries.to_string(),
        "(n/a: MAT)".into(),
    ]);
    // Algorithm 2 on one pipe: four 10 Gbps ports send back-to-back 64,
    // 590, 1 538 and 64 B frames from offsets past t = 1 ms, merged in time
    // order, so small frames and different ports share 1 024 ns ticks.
    let frames = [64, 590, 1_538].map(|b| Rate::from_gbps(10).tx_time(b).as_nanos());
    let mut stamps: Vec<u64> = (0..100_000u64)
        .map(|k| (k % 4, k / 4))
        .map(|(p, k)| 1_000_000 + p * 317 + k * frames[(p % 3) as usize])
        .collect();
    stamps.sort_unstable();
    let n = stamps.len();
    for (name, cmp, paper) in [
        ("literal '<='", WrapCmp::PaperLe, "(bug as printed)"),
        ("corrected '<'", WrapCmp::CorrectedLt, "0 expected"),
    ] {
        t.row(&[
            format!("Algorithm 2 {name}: spurious wraps in {n} stamps"),
            spurious_wraps(cmp, &stamps).0.to_string(),
            paper.into(),
        ]);
    }
    save(&t, "tofino_report");
    t
}

/// Algorithm 2 with `cmp` over `stamps` (one switch pipe's egress
/// timestamps in ns, in order): the number of high-register bumps with no
/// real 22-bit wrap, and the stamp of the first. Each one adds 2²² ticks
/// (~4.3 s) to every later emulated time.
pub fn spurious_wraps(cmp: WrapCmp, stamps: &[u64]) -> (u64, Option<u64>) {
    let mut rf = RegisterFile::new();
    let emu = TimeEmulator::new(&mut rf, cmp);
    let (mut high, mut real, mut spurious, mut first) = (0u32, 0u32, 0, None);
    for &ts in stamps {
        rf.begin_pass();
        let (h, r) = (emu.emulate(&mut rf, ts) >> 22, reference_ticks(ts) >> 22);
        if h.wrapping_sub(high) > r.wrapping_sub(real) {
            spurious += 1;
            first.get_or_insert(ts);
        }
        (high, real) = (h, r);
    }
    (spurious, first)
}

#[cfg(test)]
mod tests {
    use super::*;

    // Figure smoke tests run at quick scale in the integration suite;
    // here only the cheap ones.

    #[test]
    fn fig5_lists_both_workloads() {
        let t = fig5();
        let csv = t.to_csv();
        assert!(csv.contains("web_search"));
        assert!(csv.contains("data_mining"));
    }

    #[test]
    fn table1_shape() {
        let t = table1(Scale::Quick);
        assert_eq!(t.to_csv().lines().count(), 6); // header + 5 cases
    }

    #[test]
    fn tofino_report_flags_le_bug() {
        let csv = tofino_report().to_csv();
        let wraps = |row: &str| -> u64 {
            let line = csv.lines().find(|l| l.starts_with(row)).expect(row);
            line.split(',')
                .nth(1)
                .and_then(|v| v.parse().ok())
                .expect(line)
        };
        assert_eq!(wraps("Algorithm 2 corrected '<'"), 0);
        assert!(wraps("Algorithm 2 literal '<='") > 0);
    }
}
