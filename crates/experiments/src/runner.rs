//! Sweep execution: run scenario points in parallel across OS threads
//! (each simulation is single-threaded and deterministic; parallelism is
//! across independent runs only, so results never depend on scheduling).
//!
//! [`supervised_map`] layers run supervision on top: a completed-point
//! journal (JSONL keyed by deterministic point id) written as points
//! finish, resume support that skips journaled points on restart, and a
//! bounded same-seed retry policy for points failing with a *retryable*
//! [`SimError`] (worker panics; deterministic guard trips reproduce
//! byte-identically, so retrying them would waste the sweep's time).

use ecnsharp_net::SimError;
use std::io::Write;
use std::path::PathBuf;
use std::sync::{Mutex, PoisonError};

/// Experiment scale, switchable via `ECNSHARP_SCALE=quick|mid|full`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Full fidelity: paper-like flow counts, multiple seeds per point.
    Full,
    /// Intermediate fidelity for slower machines: fewer flows/seeds and a
    /// coarser load sweep, same mechanisms.
    Mid,
    /// Seconds-scale smoke runs for tests and benches.
    Quick,
}

impl std::str::FromStr for Scale {
    type Err = String;

    fn from_str(s: &str) -> Result<Scale, String> {
        match s {
            "quick" => Ok(Scale::Quick),
            "mid" => Ok(Scale::Mid),
            "full" => Ok(Scale::Full),
            other => Err(format!(
                "unrecognized ECNSHARP_SCALE value {other:?} (expected \"quick\", \"mid\" or \"full\")"
            )),
        }
    }
}

impl Scale {
    /// Read from the `ECNSHARP_SCALE` environment variable (see
    /// [`crate::env::scale`]). Unset means [`Scale::Full`]; anything else
    /// must parse exactly — a typo like `ful` is an error, not a silent
    /// full-scale run.
    pub fn from_env() -> Result<Scale, String> {
        crate::env::scale()
    }

    /// [`Scale::from_env`] for binaries: print the error and exit 2 instead
    /// of silently running at the wrong scale.
    pub fn from_env_or_exit() -> Scale {
        crate::env::or_exit(Scale::from_env())
    }

    /// Flows per FCT run.
    pub fn flows(self) -> usize {
        match self {
            Scale::Full => 1_200,
            Scale::Mid => 600,
            Scale::Quick => 120,
        }
    }

    /// Flows per FCT run for the heavy-tailed data-mining workload (whose
    /// mean flow is ~8× larger).
    pub fn flows_dm(self) -> usize {
        match self {
            Scale::Full => 400,
            Scale::Mid => 200,
            Scale::Quick => 60,
        }
    }

    /// Seeds averaged per point (the paper averages three runs).
    pub fn seeds(self) -> u64 {
        match self {
            Scale::Full => 2,
            Scale::Mid | Scale::Quick => 1,
        }
    }

    /// Cap a flow count at [`Scale::Quick`] only; mid and full scale pass
    /// `n` through untouched. Used by figures whose quick runs would
    /// otherwise dominate the smoke sweep's wall time (fig7's data-mining
    /// load sweep, fig12's fabric comparison).
    pub fn cap_quick(self, n: usize, cap: usize) -> usize {
        match self {
            Scale::Quick => n.min(cap),
            Scale::Mid | Scale::Full => n,
        }
    }

    /// Load sweep for the testbed figures.
    pub fn loads(self) -> Vec<f64> {
        match self {
            Scale::Full => (1..=9).map(|k| k as f64 / 10.0).collect(),
            Scale::Mid => vec![0.2, 0.4, 0.6, 0.8],
            Scale::Quick => vec![0.3, 0.7],
        }
    }
}

/// Outcome of a panic-tolerant sweep: per-item results in input order
/// (`None` where the worker panicked) plus the captured panic messages.
#[derive(Debug)]
pub struct SweepOutcome<R> {
    /// One slot per input item, in order; `None` marks a panicked worker.
    pub results: Vec<Option<R>>,
    /// `(item index, panic message)` for every worker that panicked,
    /// sorted by index.
    pub panics: Vec<(usize, String)>,
}

impl<R> SweepOutcome<R> {
    /// The successful results, dropping panicked slots.
    pub fn successes(self) -> Vec<R> {
        self.results.into_iter().flatten().collect()
    }
}

fn panic_message(e: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = e.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = e.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Map `f` over `items` using up to `available_parallelism` threads,
/// preserving order and surviving worker panics: a panicking item yields
/// `None` in its slot while every other item still runs to completion.
/// This is what lets a figure sweep deliver partial results instead of
/// aborting wholesale when one scenario crashes.
pub fn try_parallel_map<T, R, F>(items: Vec<T>, f: F) -> SweepOutcome<R>
where
    T: Send,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    use std::panic::{catch_unwind, AssertUnwindSafe};
    let n = items.len();
    if n == 0 {
        return SweepOutcome {
            results: Vec::new(),
            panics: Vec::new(),
        };
    }
    let threads = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(4)
        .min(n);
    let work: Mutex<std::vec::IntoIter<(usize, T)>> = Mutex::new(
        items
            .into_iter()
            .enumerate()
            .collect::<Vec<_>>()
            .into_iter(),
    );
    let results: Mutex<Vec<Option<R>>> = Mutex::new((0..n).map(|_| None).collect());
    let panics: Mutex<Vec<(usize, String)>> = Mutex::new(Vec::new());
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| loop {
                let next = work.lock().unwrap().next();
                let Some((idx, item)) = next else { break };
                // The catch wraps only the closure call, never a lock
                // guard, so a panic cannot poison the queues.
                match catch_unwind(AssertUnwindSafe(|| f(&item))) {
                    Ok(r) => results.lock().unwrap()[idx] = Some(r),
                    Err(e) => panics.lock().unwrap().push((idx, panic_message(e))),
                }
            });
        }
    });
    let mut panics = panics.into_inner().unwrap();
    panics.sort_by_key(|&(idx, _)| idx);
    SweepOutcome {
        results: results.into_inner().unwrap(),
        panics,
    }
}

/// Supervisor configuration for [`supervised_map`].
#[derive(Debug, Clone, Default)]
pub struct SweepConfig {
    /// Completed-point journal path (JSONL, one line per finished point).
    /// `None` disables journaling (and therefore resume).
    pub journal: Option<PathBuf>,
    /// Skip points already recorded in the journal (set from
    /// `ECNSHARP_RESUME` by the binaries).
    pub resume: bool,
    /// Same-seed retry budget for points failing with a retryable
    /// [`SimError`]. `0` disables retries.
    pub retries: u32,
}

/// Final state of one sweep point under [`supervised_map`].
#[derive(Debug)]
pub enum PointStatus<R> {
    /// The point produced a result (possibly after retries).
    Done(R),
    /// The point failed; `attempts` runs were made in total.
    Failed {
        /// The final structured error.
        error: SimError,
        /// Total attempts, including retries.
        attempts: u32,
    },
    /// The point was journaled by a previous run and skipped under
    /// resume. Its result is **not** recomputed — consumers emit partial
    /// outputs covering only this run's completed points.
    SkippedResumed,
}

/// Everything a supervised sweep produced, in input order.
#[derive(Debug)]
pub struct SweepReport<R> {
    /// One entry per input item, in order.
    pub points: Vec<PointStatus<R>>,
    /// Points that produced a result this run.
    pub completed: u64,
    /// Points whose final attempt failed.
    pub failed: u64,
    /// Points that needed at least one retry (whatever their outcome).
    pub retried: u64,
    /// Points skipped because the journal already records them.
    pub skipped: u64,
}

impl<R> SweepReport<R> {
    /// The one-line `completed/failed/retried/skipped-resumed` summary
    /// the sweep binaries print at exit.
    pub fn summary_line(&self) -> String {
        format!(
            "sweep: {} completed, {} failed, {} retried, {} skipped-resumed",
            self.completed, self.failed, self.retried, self.skipped
        )
    }
}

/// Extract the `"point"` id from a journal JSONL line (hand-rolled — the
/// workspace carries no serde). Returns `None` for lines without one.
fn journal_point_id(line: &str) -> Option<&str> {
    let rest = line.split_once("\"point\":\"")?.1;
    rest.split_once('"').map(|(id, _)| id)
}

/// Point ids already recorded in `journal` (empty when unreadable —
/// resume then re-runs everything, which is safe because point results
/// are deterministic).
fn journaled_points(journal: &std::path::Path) -> Vec<String> {
    let Ok(text) = std::fs::read_to_string(journal) else {
        return Vec::new();
    };
    text.lines()
        .filter_map(|l| journal_point_id(l).map(str::to_string))
        .collect()
}

/// Run `f` over `items` in parallel under full sweep supervision:
///
/// - **Journal** — every completed point appends one JSONL line
///   (`{"point":"<id>","seed":<seed>,"status":"ok"}`) to `cfg.journal`,
///   flushed as it happens, so an interrupted sweep knows what survived.
/// - **Resume** — with `cfg.resume`, points whose id is already
///   journaled are skipped ([`PointStatus::SkippedResumed`]).
/// - **Retry** — a point failing with a *retryable* error (worker
///   panics) is re-run with the same seed up to `cfg.retries` times;
///   deterministic guard trips fail immediately.
/// - **Identity** — a panicking point's captured message is prefixed
///   with its deterministic id and seed, so journals and logs can key on
///   it.
///
/// Every final failure is also printed to stderr as one JSONL line
/// (`{"point":…,"seed":…,"error":{…}}`), in input order.
///
/// `id_of` must be deterministic and unique per point — it is the
/// journal key that resume matches on across process restarts.
pub fn supervised_map<T, R, F, I, Sd>(
    items: Vec<T>,
    cfg: &SweepConfig,
    id_of: I,
    seed_of: Sd,
    f: F,
) -> SweepReport<R>
where
    T: Send,
    R: Send,
    F: Fn(&T) -> Result<R, SimError> + Sync,
    I: Fn(&T) -> String + Sync,
    Sd: Fn(&T) -> u64 + Sync,
{
    use std::panic::{catch_unwind, AssertUnwindSafe};
    let done: Vec<String> = match (&cfg.journal, cfg.resume) {
        (Some(path), true) => journaled_points(path),
        _ => Vec::new(),
    };
    let journal_file: Option<Mutex<std::fs::File>> = cfg.journal.as_ref().and_then(|path| {
        if let Some(dir) = path.parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        match std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
        {
            Ok(f) => Some(Mutex::new(f)),
            Err(e) => {
                eprintln!("warning: cannot open sweep journal {}: {e}", path.display());
                None
            }
        }
    });

    // Partition into skipped and runnable, remembering input positions.
    let mut skipped_idx = Vec::new();
    let mut jobs = Vec::new();
    for (idx, item) in items.into_iter().enumerate() {
        if cfg.resume && done.iter().any(|d| *d == id_of(&item)) {
            skipped_idx.push(idx);
        } else {
            jobs.push((idx, item));
        }
    }

    let n_total = jobs.len() + skipped_idx.len();
    let journal_file = &journal_file;
    let outcome = try_parallel_map(jobs, |(idx, item)| {
        let id = id_of(item);
        let seed = seed_of(item);
        let mut attempts = 0u32;
        loop {
            attempts += 1;
            // The catch wraps only the point closure, so a panic can
            // never poison the work queue; it becomes a structured,
            // identity-carrying WorkerPanic instead.
            let res = match catch_unwind(AssertUnwindSafe(|| f(item))) {
                Ok(Ok(v)) => {
                    if let Some(j) = journal_file {
                        let mut file = j.lock().unwrap_or_else(PoisonError::into_inner);
                        let _ = writeln!(
                            file,
                            "{{\"point\":\"{id}\",\"seed\":{seed},\"status\":\"ok\"}}"
                        );
                        let _ = file.flush();
                    }
                    return (*idx, PointStatus::Done(v), attempts);
                }
                Ok(Err(e)) => e,
                Err(p) => SimError::WorkerPanic {
                    msg: format!("point {id} (seed {seed:#x}): {}", panic_message(p)),
                },
            };
            if res.retryable() && attempts <= cfg.retries {
                continue;
            }
            return (
                *idx,
                PointStatus::Failed {
                    error: res,
                    attempts,
                },
                attempts,
            );
        }
    });

    // Assemble the report in input order. The outer catch in
    // try_parallel_map never fires (the closure catches its own panics),
    // so every slot is Some.
    let mut points: Vec<Option<PointStatus<R>>> = (0..n_total).map(|_| None).collect();
    let mut completed = 0u64;
    let mut failed = 0u64;
    let mut retried = 0u64;
    for slot in outcome.results.into_iter().flatten() {
        let (idx, status, attempts) = slot;
        if attempts > 1 {
            retried += 1;
        }
        match &status {
            PointStatus::Done(_) => completed += 1,
            PointStatus::Failed { .. } => failed += 1,
            PointStatus::SkippedResumed => {}
        }
        points[idx] = Some(status);
    }
    for idx in skipped_idx {
        points[idx] = Some(PointStatus::SkippedResumed);
    }
    let skipped = points
        .iter()
        .filter(|p| matches!(p, Some(PointStatus::SkippedResumed)))
        .count() as u64;
    let points: Vec<PointStatus<R>> = points
        .into_iter()
        .map(|p| p.unwrap_or(PointStatus::SkippedResumed))
        .collect();
    SweepReport {
        points,
        completed,
        failed,
        retried,
        skipped,
    }
}

/// Print every final failure of `report` as one JSONL line on stderr
/// (`{"point":…,"seed":…,"error":{…}}`), in input order. `ids` and
/// `seeds` are indexed like the report's points.
pub fn report_failures<R>(report: &SweepReport<R>, ids: &[String], seeds: &[u64]) {
    for (idx, p) in report.points.iter().enumerate() {
        if let PointStatus::Failed { error, attempts } = p {
            let id = ids.get(idx).map(String::as_str).unwrap_or("?");
            let seed = seeds.get(idx).copied().unwrap_or(0);
            eprintln!(
                "{{\"point\":\"{id}\",\"seed\":{seed},\"attempts\":{attempts},\"error\":{}}}",
                error.to_jsonl()
            );
        }
    }
}

/// Run a figure binary's body under the supervision exit contract: a
/// panic anywhere in the body (a tripped guard surfacing through an
/// infallible engine API, a scenario invariant, a stats `expect`) is
/// caught, serialized as one structured [`SimError::WorkerPanic`] JSONL
/// line on stderr (`{"bin":"<name>","error":{…}}`) and turned into exit
/// code 1 — so every `fig*` binary fails machine-readably instead of
/// with a bare traceback.
pub fn guarded_run<F: FnOnce()>(name: &str, body: F) -> std::process::ExitCode {
    use std::panic::{catch_unwind, AssertUnwindSafe};
    match catch_unwind(AssertUnwindSafe(body)) {
        Ok(()) => std::process::ExitCode::SUCCESS,
        Err(p) => {
            let err = SimError::WorkerPanic {
                msg: format!("{name}: {}", panic_message(p)),
            };
            eprintln!("{{\"bin\":\"{name}\",\"error\":{}}}", err.to_jsonl());
            std::process::ExitCode::FAILURE
        }
    }
}

/// Map `f` over `items` using up to `available_parallelism` threads,
/// preserving order. Panics (after all items finish) if any worker
/// panicked — callers that want partial results use [`try_parallel_map`].
pub fn parallel_map<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let out = try_parallel_map(items, f);
    if let Some((idx, msg)) = out.panics.first() {
        panic!("parallel_map worker for item {idx} panicked: {msg}");
    }
    out.results
        .into_iter()
        .map(|r| r.expect("worker completed"))
        .collect()
}

/// Results directory (override with `ECNSHARP_RESULTS`; see
/// [`crate::env::results_dir`]).
pub fn results_dir() -> std::path::PathBuf {
    crate::env::results_dir()
}

/// Default base seed for fault-injection sweeps when `ECNSHARP_FAULT_SEED`
/// is unset.
pub const DEFAULT_FAULT_SEED: u64 = 0xFA_017;

/// Parse an `ECNSHARP_FAULT_SEED` value: decimal or `0x`-prefixed hex.
/// Strict: anything else is an error naming the knob, never a silent
/// fallback.
pub fn parse_fault_seed(v: &str) -> Result<u64, String> {
    let parsed = if let Some(hex) = v.strip_prefix("0x").or_else(|| v.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16)
    } else {
        v.parse::<u64>()
    };
    parsed.map_err(|_| {
        format!("unrecognized ECNSHARP_FAULT_SEED value {v:?} (expected a decimal or 0x-hex u64)")
    })
}

/// Read the fault-sweep base seed from `ECNSHARP_FAULT_SEED` (see
/// [`crate::env::fault_seed`]). Unset means [`DEFAULT_FAULT_SEED`];
/// set-but-invalid is an error.
pub fn fault_seed_from_env() -> Result<u64, String> {
    crate::env::fault_seed()
}

/// [`fault_seed_from_env`] for binaries: print the error and exit 2
/// instead of silently running with the wrong seed.
pub fn fault_seed_or_exit() -> u64 {
    crate::env::or_exit(fault_seed_from_env())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_map_preserves_order() {
        let xs: Vec<u64> = (0..100).collect();
        let ys = parallel_map(xs, |&x| x * x);
        assert_eq!(ys, (0..100).map(|x| x * x).collect::<Vec<u64>>());
    }

    #[test]
    fn parallel_map_empty() {
        let ys: Vec<u32> = parallel_map(Vec::<u32>::new(), |_| unreachable!());
        assert!(ys.is_empty());
    }

    #[test]
    fn scale_knobs() {
        assert!(Scale::Full.flows() > Scale::Quick.flows());
        assert!(Scale::Full.seeds() >= 1);
        assert!(!Scale::Quick.loads().is_empty());
    }

    #[test]
    fn cap_quick_only_touches_quick_scale() {
        assert_eq!(Scale::Quick.cap_quick(60, 40), 40);
        assert_eq!(Scale::Quick.cap_quick(30, 40), 30);
        assert_eq!(Scale::Mid.cap_quick(200, 40), 200);
        assert_eq!(Scale::Full.cap_quick(400, 40), 400);
    }

    #[test]
    fn try_parallel_map_survives_worker_panics() {
        let xs: Vec<u64> = (0..20).collect();
        let out = try_parallel_map(xs, |&x| {
            if x % 7 == 3 {
                panic!("boom at {x}");
            }
            x * 10
        });
        assert_eq!(out.results.len(), 20);
        assert_eq!(out.panics.len(), 3, "items 3, 10, 17 panic");
        assert_eq!(
            out.panics.iter().map(|&(i, _)| i).collect::<Vec<_>>(),
            vec![3, 10, 17]
        );
        assert!(out.panics[0].1.contains("boom at 3"));
        for (i, slot) in out.results.iter().enumerate() {
            if i % 7 == 3 {
                assert!(slot.is_none());
            } else {
                assert_eq!(*slot, Some(i as u64 * 10), "order preserved");
            }
        }
        assert_eq!(out.successes().len(), 17);
    }

    #[test]
    #[should_panic(expected = "panicked")]
    fn parallel_map_propagates_worker_panic() {
        let _ = parallel_map(vec![1u64, 2, 3], |&x| {
            if x == 2 {
                panic!("worker died");
            }
            x
        });
    }

    #[test]
    fn fault_seed_parses_decimal_and_hex_and_rejects_junk() {
        assert_eq!(parse_fault_seed("42"), Ok(42));
        assert_eq!(parse_fault_seed("0xFA017"), Ok(0xFA017));
        assert_eq!(parse_fault_seed("0Xff"), Ok(255));
        for bad in ["", "seed", "-1", "0x", "1.5", "42 "] {
            let err = parse_fault_seed(bad).unwrap_err();
            assert!(
                err.contains("ECNSHARP_FAULT_SEED"),
                "error should name the knob: {err}"
            );
        }
    }

    #[test]
    fn scale_parses_known_values_and_rejects_typos() {
        assert_eq!("quick".parse::<Scale>(), Ok(Scale::Quick));
        assert_eq!("mid".parse::<Scale>(), Ok(Scale::Mid));
        assert_eq!("full".parse::<Scale>(), Ok(Scale::Full));
        for bad in ["ful", "QUICK", "", "medium", "quick "] {
            let err = bad.parse::<Scale>().unwrap_err();
            assert!(
                err.contains("ECNSHARP_SCALE"),
                "error should name the knob: {err}"
            );
        }
    }
}
