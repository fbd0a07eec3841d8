//! Command line of the benchmark.
//!
//! With `--workload NAME` it runs one pass over one workload in this
//! process and prints the result as one JSON object on the last line
//! (the form the benchmark driver calls). Without it, it runs every
//! workload, each pass in a fresh child process, one at a time.

use ecnsharp_benchmark::host::{nproc, Fingerprint};
use ecnsharp_benchmark::pass::{end_to_end, traced, Options};
use ecnsharp_benchmark::report::{Report, END_TO_END};
use ecnsharp_benchmark::scenario::Workload;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

const USAGE: &str = "usage: ecnsharp-benchmark [--workload NAME] [--seed N] [--seconds S] \
[--trace 0|1] [--quick | --agree | --trace-only]

  --workload NAME  run one pass over star_websearch, leafspine_websearch,
                   incast_lossy or fattree_shard2 in this process
  --seed N         workload seed (default 1)
  --seconds S      measure for at least S seconds per workload (default 20)
  --trace 0|1      with --workload: 0 = end-to-end pass, 1 = traced pass
  --quick          smoke mode: sizes / 20, one rep, all checks on
  --agree          run the end-to-end pass twice and compare the results
  --trace-only     run only the traced pass";

/// `--agree` lets `setup_s` differ by this much even beyond its bound:
/// set-up takes milliseconds, where a relative bound alone is too tight.
const SETUP_ABS_SLACK_S: f64 = 0.05;
/// Warn when `host.calib_ns` drifts by more than this between workloads.
const CALIB_DRIFT: f64 = 0.10;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    Full,
    Agree,
    TraceOnly,
}

struct Cli {
    workload: Option<Workload>,
    opt: Options,
    trace: bool,
    mode: Mode,
}

fn parse_args(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        opt: Options {
            seed: 1,
            seconds: 20.0,
            quick: false,
        },
        trace: false,
        mode: Mode::Full,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or(format!("{arg} needs a value"));
        match arg.as_str() {
            "--workload" => {
                let name = value()?;
                cli.workload =
                    Some(Workload::parse(name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => cli.opt.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(0.0..=3_600.0).contains(&s) {
                    return Err(format!("--seconds {s} is outside 0..=3600"));
                }
                cli.opt.seconds = s;
            }
            "--trace" => {
                cli.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--quick" => cli.opt.quick = true,
            "--agree" => cli.mode = Mode::Agree,
            "--trace-only" => cli.mode = Mode::TraceOnly,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if cli.workload.is_some() && cli.mode != Mode::Full {
        return Err("--agree and --trace-only run every workload; drop --workload".to_string());
    }
    Ok(cli)
}

/// Where the traced pass writes `trace-<workload>.jsonl`: `out/` beside
/// this crate's manifest, which `.gitignore` keeps out of the tree.
fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Run one pass in this process and print it; `Ok(correct)`.
fn run_one(workload: Workload, opt: &Options, trace: bool) -> Result<bool, String> {
    let report = if trace {
        traced(workload, opt, &out_dir())?
    } else {
        end_to_end(workload, opt)?
    };
    print!("{}", report.text);
    println!("{}", report.sim_counts);
    println!("host-calib-ns: {}", report.calib_ns);
    println!("{}", report.json_line());
    Ok(report.correct)
}

/// What the orchestrator keeps of a child's output.
struct ChildResult {
    report: Report,
    sim_counts: String,
    calib_ns: Option<f64>,
}

/// Run one pass in a fresh child process, echo its detail, parse its
/// last line.
fn run_child(workload: Workload, opt: &Options, trace: bool) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload.name()])
        .args(["--seed", &opt.seed.to_string()])
        .args(["--seconds", &opt.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(Stdio::inherit());
    if opt.quick {
        cmd.arg("--quick");
    }
    let out = cmd.output().map_err(|e| format!("spawning child: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let json = lines.pop().unwrap_or("");
    for line in &lines {
        println!("{line}");
    }
    let report = Report::parse_json_line(json)
        .map_err(|e| format!("{} child ({}): {e}", workload.name(), out.status))?;
    if !out.status.success() && report.correct {
        return Err(format!("{} child: {}", workload.name(), out.status));
    }
    let tagged = |tag: &str| lines.iter().find_map(|l| l.trim().strip_prefix(tag));
    Ok(ChildResult {
        sim_counts: tagged("sim-counts:").unwrap_or("").to_string(),
        calib_ns: tagged("host-calib-ns:").and_then(|v| v.trim().parse().ok()),
        report,
    })
}

/// Warn (never fail) when the calibration loop ran >10 % apart between
/// two workloads: the machine changed speed under the benchmark.
fn warn_calib_drift(calibs: &[(Workload, f64)]) {
    let Some(&(_, base)) = calibs.first() else {
        return;
    };
    for &(w, c) in &calibs[1..] {
        if (c / base - 1.0).abs() > CALIB_DRIFT {
            println!(
                "WARNING: host.calib_ns drifted {:+.1} % between {} and {}; timings of this run are suspect",
                (c / base - 1.0) * 100.0,
                calibs[0].0.name(),
                w.name()
            );
        }
    }
}

/// Every workload, one child process per pass, one at a time.
fn run_all(opt: &Options, mode: Mode) -> Result<bool, String> {
    println!("machine: {}", Fingerprint::read());
    let passes: &[bool] = match mode {
        Mode::Full => &[false, true],
        Mode::Agree => &[false],
        Mode::TraceOnly => &[true],
    };
    let rounds = if mode == Mode::Agree { 2 } else { 1 };
    let mut ok = true;
    // results[round][workload] of the end-to-end pass.
    let mut e2e: Vec<Vec<ChildResult>> = Vec::new();
    let mut calibs = Vec::new();
    for _ in 0..rounds {
        let mut round = Vec::new();
        for w in Workload::ALL {
            for &trace in passes {
                let child = run_child(w, opt, trace)?;
                ok &= child.report.correct;
                if let Some(c) = child.calib_ns {
                    calibs.push((w, c));
                }
                if !trace {
                    round.push(child);
                }
            }
        }
        e2e.push(round);
    }
    warn_calib_drift(&calibs);

    if mode != Mode::TraceOnly {
        println!("\nend-to-end values (nproc {}):", nproc());
        for (i, w) in Workload::ALL.into_iter().enumerate() {
            for (name, unit, better, bound) in END_TO_END {
                let a = e2e[0][i].report.get(name).unwrap_or(f64::NAN);
                if mode != Mode::Agree {
                    println!("  {:<20} {name:<16} {a:>16.6} {unit}", w.name());
                    continue;
                }
                let b = e2e[1][i].report.get(name).unwrap_or(f64::NAN);
                let agree = (b / a - 1.0).abs() <= bound
                    || (name == "setup_s" && (b - a).abs() <= SETUP_ABS_SLACK_S);
                ok &= agree;
                println!(
                    "  {:<20} {name:<16} {a:>16.6} {b:>16.6} {unit:<4} ratio {:.4} bound {bound} ({} is better) {}",
                    w.name(),
                    b / a,
                    better.as_str(),
                    if agree { "ok" } else { "DISAGREE" }
                );
            }
            if mode == Mode::Agree && e2e[0][i].sim_counts != e2e[1][i].sim_counts {
                ok = false;
                println!(
                    "  {:<20} simulated counts DIFFER:\n    {}\n    {}",
                    w.name(),
                    e2e[0][i].sim_counts,
                    e2e[1][i].sim_counts
                );
            }
        }
    }
    println!(
        "{}",
        if ok {
            "benchmark: all checks passed"
        } else {
            "benchmark: FAILED"
        }
    );
    Ok(ok)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_args(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = match cli.workload {
        Some(w) => run_one(w, &cli.opt, cli.trace),
        None => run_all(&cli.opt, cli.mode),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(1)
        }
    }
}
