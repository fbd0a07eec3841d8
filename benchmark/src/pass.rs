//! The two passes over a workload: the end-to-end pass (tracing off,
//! best and median of repeated runs) and the traced pass (spans, slices, a
//! telemetry subscriber, layer probes).

use crate::host::{calib_ns, loadavg1, nproc, peak_rss_mib, quantile};
use crate::probes;
use crate::report::{json_field, Report, Stat};
use crate::scenario::{build, finish, Outcome, Params, Workload};
use crate::trace::SpanLog;
use ecnsharp_net::NoopSubscriber;
use ecnsharp_sim::SimTime;
use ecnsharp_telemetry::{Metric, MetricsAggregator};
use std::path::Path;
use std::time::Instant;

/// How a pass is run.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// Workload seed.
    pub seed: u64,
    /// Keep taking timed reps until this many seconds have been measured.
    pub seconds: f64,
    /// Smoke mode: sizes ÷20, one rep, all checks on.
    pub quick: bool,
}

/// Timed reps of a full run: at least this many, whatever `seconds` says.
const MIN_REPS: usize = 3;
/// Timed reps of a full run: never more than this many.
const MAX_REPS: usize = 15;
/// Set-up is cheap next to a run, so it is repeated on its own until the
/// median rests on this many samples.
const SETUP_SAMPLES: usize = 25;
/// Simulated-time slices of the traced run.
const SLICES: u64 = 50;

/// Flow-record digests of every workload at one seed, full size.
const GOLDEN: &str = include_str!("../golden.json");

/// The golden digest of `workload` at `seed`, if `golden.json` has one.
fn golden_digest(workload: Workload, seed: u64) -> Option<u64> {
    if json_field(GOLDEN, "seed")?.parse() != Ok(seed) {
        return None;
    }
    u64::from_str_radix(json_field(GOLDEN, workload.name())?, 16).ok()
}

/// Refuse a workload that needs more threads than this machine has cores.
fn check_threads(p: &Params) -> Result<(), String> {
    if p.shards as usize > nproc() {
        return Err(format!(
            "{} runs on {} threads but only {} core(s) are available",
            p.workload.name(),
            p.shards,
            nproc()
        ));
    }
    Ok(())
}

/// One untraced rep: `(setup_s, run_wall_s, outcome)`.
fn rep(p: &Params) -> (f64, f64, Outcome) {
    let mut off = SpanLog::off();
    let t0 = Instant::now();
    let mut built = build(p, NoopSubscriber, &mut off, None);
    let setup_s = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    built.run();
    let run_s = t1.elapsed().as_secs_f64();
    (setup_s, run_s, finish(&built, &mut off, None))
}

/// The exact, per-seed simulated counts of a run on one line.
fn sim_counts(o: &Outcome) -> String {
    let c = &o.perf;
    format!(
        "sim-counts: digest={:016x} flows={} events_popped={} peak_pending={} heap_spills={} \
         timers_armed={} timers_fired={} timers_stale_suppressed={} pkt_hops={} ce_marks={} \
         drops={} fct_avg_ns={} sim_end_ns={}",
        o.digest,
        o.scheduled,
        c.events_popped,
        c.peak_pending,
        c.heap_spills,
        c.timers_armed,
        c.timers_fired,
        c.timers_stale_suppressed,
        c.packets_forwarded,
        c.ce_marks,
        c.drops,
        (o.fct.overall.avg * 1e9).round() as u64,
        o.sim_end.as_nanos(),
    )
}

/// Fold the verdict of one run into `report`. An aborted flow is one
/// failed operation; a failed check fails every flow of the workload.
fn judge(report: &mut Report, o: &Outcome, expect_digest: u64, what: &str) {
    let mut violations = o.violations.clone();
    if o.digest != expect_digest {
        violations.push(format!(
            "sim_digest {:016x} differs from the first run's {expect_digest:016x}",
            o.digest
        ));
    }
    if o.aborted > 0 {
        report.note(&format!(
            "  CHECK FAILED ({what}): {} flows aborted",
            o.aborted
        ));
    }
    for v in &violations {
        report.note(&format!("  CHECK FAILED ({what}): {v}"));
    }
    let failed = if violations.is_empty() {
        o.aborted
    } else {
        o.scheduled
    };
    report.attempted = o.scheduled as u64;
    report.failed = report.failed.max(failed as u64);
    report.correct &= failed == 0;
}

/// The end-to-end pass: timed reps until `opt.seconds` have been
/// measured (three at least), tracing off. No rep is discarded as a
/// warm-up: the run metrics report the best rep, which a cold first rep
/// cannot be.
pub fn end_to_end(workload: Workload, opt: &Options) -> Result<Report, String> {
    let p = workload.params(opt.seed, opt.quick);
    check_threads(&p)?;
    let mut report = Report {
        correct: true,
        ..Report::default()
    };
    report.calib_ns = calib_ns();
    report.note(&format!(
        "{} end-to-end, seed {}{}, host.loadavg1 {:.2}",
        workload.name(),
        opt.seed,
        if opt.quick { ", quick" } else { "" },
        loadavg1()
    ));

    let (min_reps, seconds) = if opt.quick {
        (1, 0.0)
    } else {
        (MIN_REPS, opt.seconds)
    };
    let (mut setup, mut run, mut hops) = (Vec::new(), Vec::new(), Vec::new());
    let mut last: Option<Outcome> = None;
    let measuring = Instant::now();
    while run.len() < min_reps
        || (run.len() < MAX_REPS && measuring.elapsed().as_secs_f64() < seconds)
    {
        let (setup_s, run_s, o) = rep(&p);
        let anchor = last.as_ref().map_or(o.digest, |prev| prev.digest);
        judge(&mut report, &o, anchor, &format!("rep {}", run.len()));
        setup.push(setup_s);
        run.push(run_s);
        hops.push(o.perf.packets_forwarded as f64 / run_s);
        last = Some(o);
    }
    let last = last.expect("at least one timed rep ran");
    while !opt.quick && setup.len() < SETUP_SAMPLES {
        let t0 = Instant::now();
        let built = build(&p, NoopSubscriber, &mut SpanLog::off(), None);
        setup.push(t0.elapsed().as_secs_f64());
        drop(built);
    }

    report.put_samples("setup_s", &setup, Stat::Median);
    report.put_samples("run_wall_s", &run, Stat::Best);
    report.put_samples("pkt_hops_per_s", &hops, Stat::Best);
    report.put("peak_rss_mib", peak_rss_mib());
    report.note(&format!(
        "  flows_attempted {} flows_failed {}",
        report.attempted, report.failed
    ));
    report.sim_counts = sim_counts(&last);
    Ok(report)
}

/// What the traced rep produced.
struct TracedRep {
    spans: SpanLog,
    outcome: Outcome,
    /// Boundary counts from the attached subscriber.
    counts: MetricsAggregator,
    run_s: f64,
    /// Host ns per event of every slice that processed any.
    slice_ns_per_event: Vec<f64>,
}

/// One rep under spans with a `MetricsAggregator` attached. A serial run
/// is cut into [`SLICES`] equal slices of simulated time up to `sim_end`
/// (where the reference rep went idle), each carrying engine-counter
/// deltas; a sharded run is one `run` span.
fn traced_rep(p: &Params, sim_end: SimTime) -> TracedRep {
    let mut spans = SpanLog::on();
    let root = spans.open(p.workload.name(), None);
    let setup_id = spans.open("setup", root);
    let mut built = build(p, MetricsAggregator::new(), &mut spans, setup_id);
    spans.close(setup_id);

    let run_id = spans.open("run", root);
    let run_t = Instant::now();
    let mut slice_ns_per_event = Vec::new();
    if built.plan.is_some() {
        built.run();
    } else {
        let mut before = built.net.perf();
        for i in 1..=SLICES {
            let id = spans.open(&format!("run.slice[{}]", i - 1), run_id);
            if i == SLICES {
                built.net.run_until_idle();
            } else {
                let until = SimTime::from_nanos(sim_end.as_nanos() / SLICES * i);
                built.net.run_until(until);
            }
            spans.close(id);
            let after = built.net.perf();
            let events = after.events_popped - before.events_popped;
            for (key, value) in [
                ("events_popped", events),
                (
                    "pkt_hops",
                    after.packets_forwarded - before.packets_forwarded,
                ),
                ("timers_armed", after.timers_armed - before.timers_armed),
                ("drops", after.drops - before.drops),
            ] {
                spans.count(id, key, value);
            }
            if let (Some(span), true) = (spans.spans().last(), events > 0) {
                slice_ns_per_event.push(span.secs() * 1e9 / events as f64);
            }
            before = after;
        }
    }
    let run_s = run_t.elapsed().as_secs_f64();
    spans.close(run_id);

    let teardown_id = spans.open("teardown", root);
    let outcome = finish(&built, &mut spans, teardown_id);
    spans.close(teardown_id);
    spans.close(root);
    TracedRep {
        spans,
        outcome,
        counts: built.net.into_subscriber(),
        run_s,
        slice_ns_per_event,
    }
}

/// Unit costs from the layer probes, in nanoseconds per operation.
struct UnitCosts {
    queue: f64,
    wheel_rearm: f64,
    port: f64,
    port_pooled: f64,
    packet_clone: f64,
    aqm: f64,
    marker: f64,
    pipeline: f64,
    ack: f64,
    flow_start: f64,
}

/// Run the layer probes, sized from the reference run's own counts
/// (a twentieth of that in quick mode).
fn probe_layers(p: &Params, reference: &Outcome, quick: bool) -> UnitCosts {
    let c = &reference.perf;
    let scale = if quick { 20 } else { 1 };
    let steps = (c.events_popped / 20).clamp(50_000, 2_000_000 / scale);
    let gap_ns = reference.sim_end.as_nanos() / c.events_popped.max(1);
    let flows = reference.concurrent_flows.ceil().max(1.0) as usize;
    let ports = p.switch_ports();
    let decisions = 2_000_000 / scale;
    let (port, port_pooled) = probes::port_ns_per_pkt(&ports, 400_000 / scale);
    // The marker and its pipeline model do not depend on the workload;
    // they are measured once, where ECN♯ carries the most packets.
    let on_star = p.workload == Workload::StarWebsearch;
    UnitCosts {
        queue: probes::queue_ns_per_event(c.peak_pending, gap_ns, steps),
        wheel_rearm: probes::wheel_ns_per_rearm(c.peak_pending, gap_ns, steps, flows),
        port,
        port_pooled,
        packet_clone: probes::packet_ns_per_clone(400_000 / scale),
        aqm: probes::aqm_ns_per_decision(&ports, decisions),
        marker: if on_star {
            probes::marker_ns_per_decision(decisions)
        } else {
            0.0
        },
        pipeline: if on_star {
            probes::pipeline_ns_per_decision(decisions)
        } else {
            0.0
        },
        ack: probes::transport_ns_per_ack(100_000_000 / scale),
        flow_start: probes::transport_ns_per_flow_start(100_000 / scale),
    }
}

/// The traced pass: the serial twin of a sharded workload, one untraced
/// reference rep, one rep under spans, slices and a `MetricsAggregator`,
/// then the layer probes. Writes `trace-<workload>.jsonl` into
/// `out_dir`.
pub fn traced(workload: Workload, opt: &Options, out_dir: &Path) -> Result<Report, String> {
    let p = workload.params(opt.seed, opt.quick);
    check_threads(&p)?;
    let mut report = Report {
        correct: true,
        ..Report::default()
    };
    report.calib_ns = calib_ns();
    let load = loadavg1();
    report.note(&format!(
        "{} traced, seed {}{}",
        workload.name(),
        opt.seed,
        if opt.quick { ", quick" } else { "" }
    ));

    // The serial twin of a sharded workload runs first: it is the wall
    // the shards are measured against, and it warms the process so the
    // sharded reference rep is not the cold one.
    let twin = (p.shards >= 2).then(|| rep(&p.serial_twin()));
    // Reference: the same run with tracing off.
    let (_, ref_run_s, reference) = rep(&p);
    judge(&mut report, &reference, reference.digest, "reference rep");
    let traced = traced_rep(&p, reference.sim_end);
    judge(&mut report, &traced.outcome, reference.digest, "traced rep");

    let (speedup, overhead_cpu_s) = match &twin {
        Some((_, twin_run_s, twin)) => {
            judge(&mut report, twin, reference.digest, "serial twin");
            report.note(&format!(
                "  serial twin run_wall_s {twin_run_s:.4} vs {} shards {ref_run_s:.4}",
                p.shards
            ));
            (
                twin_run_s / ref_run_s,
                f64::from(p.shards) * ref_run_s - twin_run_s,
            )
        }
        None => (1.0, 0.0),
    };

    let golden_match = match golden_digest(workload, opt.seed).filter(|_| !opt.quick) {
        Some(g) if g == reference.digest => 1.0,
        Some(g) => {
            report.note(&format!(
                "  sim_digest {:016x} differs from golden {g:016x} (reported, not failed)",
                reference.digest
            ));
            0.0
        }
        // No golden for this seed or size.
        None => -1.0,
    };

    let unit = probe_layers(&p, &reference, opt.quick);
    // Reconciliation: what the probed unit costs explain of the wall.
    // The port probe already contains the AQM decision and the packet
    // copy, so those two are not counted again; NIC hops ride a private
    // FIFO and switch hops a pooled ring; one ack-clock tick is two host
    // packets (a data segment in, the ACK it triggers back).
    let c = reference.perf;
    let nic_hops = reference.host_tx_pkts as f64;
    let modelled_ns = c.events_popped as f64 * unit.queue
        + c.timers_armed as f64 * unit.wheel_rearm
        + nic_hops * unit.port
        + (c.packets_forwarded as f64 - nic_hops) * unit.port_pooled
        + nic_hops / 2.0 * unit.ack
        + reference.scheduled as f64 * unit.flow_start;
    let wall_ns = ref_run_s * 1e9;
    // A sharded run spreads its events over `shards` threads.
    let busy_ns = wall_ns * f64::from(p.shards);
    let events = c.events_popped as f64;
    let spans = &traced.spans;
    let mut slices = traced.slice_ns_per_event;
    slices.sort_by(f64::total_cmp);

    for (name, value) in [
        ("sim.events_popped", events),
        ("sim.peak_pending", c.peak_pending as f64),
        ("sim.heap_spills", c.heap_spills as f64),
        ("sim.timers_armed", c.timers_armed as f64),
        ("sim.timers_fired", c.timers_fired as f64),
        (
            "sim.timers_stale_suppressed",
            c.timers_stale_suppressed as f64,
        ),
        ("sim.ns_per_event", wall_ns / events),
        ("trace.slice_ns_per_event_p50", quantile(&slices, 0.50)),
        ("trace.slice_ns_per_event_p95", quantile(&slices, 0.95)),
        ("sim.queue.probe_ns_per_event", unit.queue),
        ("sim.wheel.probe_ns_per_rearm", unit.wheel_rearm),
        ("net.pkt_hops", c.packets_forwarded as f64),
        ("net.ce_marks", c.ce_marks as f64),
        ("net.drops", c.drops as f64),
        ("net.topology.build_s", spans.secs("setup.topology")),
        ("net.shard.plan_s", spans.secs("setup.shard_plan")),
        ("net.port.probe_ns_per_pkt", unit.port),
        ("net.port.probe_ns_per_pkt_pooled", unit.port_pooled),
        ("net.packet.probe_ns_per_clone", unit.packet_clone),
        ("net.shard.speedup", speedup),
        ("net.shard.overhead_cpu_s", overhead_cpu_s),
        ("aqm.probe_ns_per_decision", unit.aqm),
        ("core.marker.probe_ns_per_decision", unit.marker),
        ("tofino.pipeline.probe_ns_per_decision", unit.pipeline),
        ("transport.probe_ns_per_ack", unit.ack),
        ("transport.probe_ns_per_flow_start", unit.flow_start),
        (
            "transport.cwnd_updates",
            traced.counts.get(Metric::CwndUpdates) as f64,
        ),
        (
            "transport.rto_firings",
            traced.counts.get(Metric::RtoFirings) as f64,
        ),
        (
            "transport.flows_completed",
            traced.counts.get(Metric::FlowsCompleted) as f64,
        ),
        ("workload.generate_s", spans.secs("setup.traffic")),
        (
            "workload.ns_per_flow",
            spans.secs("setup.traffic") * 1e9 / reference.scheduled as f64,
        ),
        ("stats.fct_breakdown_s", spans.secs("teardown.stats")),
        ("telemetry.traced_overhead_ratio", traced.run_s / ref_run_s),
        ("simstat.fct_avg_us", reference.fct.overall.avg * 1e6),
        (
            "simstat.fct_short_p99_us",
            reference.fct.short.map_or(0.0, |s| s.p99 * 1e6),
        ),
        ("simstat.golden_match", golden_match),
        ("host.calib_ns", report.calib_ns as f64),
        ("host.loadavg1", load),
        ("model.coverage", modelled_ns / busy_ns),
        (
            "net.network.residual_ns_per_event",
            (busy_ns - modelled_ns) / events,
        ),
        ("transport.host_tx_pkts", nic_hops),
        ("transport.concurrent_flows", reference.concurrent_flows),
        ("workload.flows_scheduled", reference.scheduled as f64),
    ] {
        report.put(name, value);
    }
    report.sim_counts = sim_counts(&reference);

    let path = out_dir.join(format!("trace-{}.jsonl", workload.name()));
    spans
        .write_jsonl(&path, workload.name())
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    report.note(&format!(
        "  {} spans written to {}",
        spans.spans().len(),
        path.display()
    ));
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{END_TO_END, PER_LAYER};

    fn quick() -> Options {
        Options {
            seed: 3,
            seconds: 0.0,
            quick: true,
        }
    }

    #[test]
    fn each_pass_reports_exactly_its_registered_metrics() {
        let e2e = end_to_end(Workload::StarWebsearch, &quick()).unwrap();
        let names: Vec<&str> = e2e.metrics.iter().map(|m| m.0).collect();
        assert_eq!(names, END_TO_END.map(|m| m.0));
        assert!(e2e.correct && e2e.attempted > 0 && e2e.failed == 0);

        // Git-ignored, and apart from where the binary writes.
        let out = Path::new(env!("CARGO_MANIFEST_DIR")).join("out/pass-test");
        let layers = traced(Workload::StarWebsearch, &quick(), &out).unwrap();
        let names: Vec<&str> = layers.metrics.iter().map(|m| m.0).collect();
        assert_eq!(names, PER_LAYER.map(|m| m.0));
        assert!(layers.correct);
        assert_eq!(e2e.sim_counts, layers.sim_counts);
        let trace = std::fs::read_to_string(out.join("trace-star_websearch.jsonl")).unwrap();
        for span in [
            "setup.topology",
            "setup.traffic",
            "setup.schedule",
            "run.slice[49]",
            "teardown.stats",
            "teardown.digest",
        ] {
            assert!(trace.contains(&format!("\"name\":\"{span}\"")), "{span}");
        }
    }

    #[test]
    fn golden_is_only_consulted_for_its_own_seed() {
        assert!(golden_digest(Workload::IncastLossy, 1).is_some());
        assert!(golden_digest(Workload::IncastLossy, 2).is_none());
    }
}
