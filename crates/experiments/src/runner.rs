//! Sweep execution: run scenario points in parallel across OS threads
//! (each simulation is single-threaded and deterministic; parallelism is
//! across independent runs only, so results never depend on scheduling).
//! A sweep is a map: [`try_parallel_map`] hands back every point's result
//! in input order plus the `(index, message)` of each panicked point, and
//! the caller decides what a failure means.

use ecnsharp_net::SimError;
use std::sync::Mutex;

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
    /// Read `ECNSHARP_SCALE` (see [`crate::env::scale`]) for binaries:
    /// unset means [`Scale::Full`]; anything that does not parse exactly —
    /// a typo like `ful` — prints the error and exits 2 instead of
    /// silently running at the wrong scale.
    pub fn from_env_or_exit() -> Scale {
        crate::env::or_exit(crate::env::scale())
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
        assert_eq!(out.results.iter().flatten().count(), 17);
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
