//! # criterion (local benchmark-harness shim)
//!
//! A std-only, registry-free stand-in for the `criterion` crate exposing
//! the subset of its API the `ecnsharp-bench` targets use:
//! [`criterion_group!`]/[`criterion_main!`], [`Criterion::benchmark_group`],
//! [`BenchmarkGroup::throughput`]/[`sample_size`](BenchmarkGroup::sample_size),
//! [`Bencher::iter`] and [`Bencher::iter_batched`].
//!
//! Unlike real criterion there is no statistical analysis: each benchmark
//! is warmed up briefly, timed for a bounded number of samples, and the
//! median ns/iteration (plus derived throughput) is printed. That is
//! enough to compare the two sides of a same-run pair (`cargo xtask
//! bench`) while keeping the workspace free of registry dependencies.
//!
//! This crate is a *host tool*: it measures wall-clock execution of the
//! benchmark body, so `std::time::Instant` is legitimate here (see lint
//! rule R1's whitelist).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// A benchmark harness measures host wall-clock time by definition; this
// crate is not sim-facing (see xtask rule R1's crate scope).
#![allow(clippy::disallowed_methods)]

use std::time::Instant;

/// Throughput annotation for a benchmark group, mirroring criterion's.
#[derive(Debug, Clone, Copy)]
pub enum Throughput {
    /// The benchmark body processes this many logical elements.
    Elements(u64),
}

/// Batch sizing hint for [`Bencher::iter_batched`]; the shim times each
/// routine invocation individually, so the hint only exists for API
/// compatibility.
#[derive(Debug, Clone, Copy)]
pub enum BatchSize {
    /// Small per-iteration inputs.
    SmallInput,
}

/// Top-level benchmark driver handed to every `criterion_group!` function.
#[derive(Debug, Default)]
pub struct Criterion {
    _private: (),
}

impl Criterion {
    /// Start a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        println!("\n== {name} ==");
        BenchmarkGroup {
            _c: self,
            name: name.to_string(),
            throughput: None,
            sample_size: 20,
        }
    }
}

/// A group of benchmarks sharing throughput/sample settings.
pub struct BenchmarkGroup<'a> {
    _c: &'a mut Criterion,
    name: String,
    throughput: Option<Throughput>,
    sample_size: u32,
}

impl BenchmarkGroup<'_> {
    /// Annotate how much work one iteration performs.
    pub fn throughput(&mut self, t: Throughput) -> &mut Self {
        self.throughput = Some(t);
        self
    }

    /// Cap the number of timed samples per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(1) as u32;
        self
    }

    /// Run one benchmark and print its median timing.
    pub fn bench_function(&mut self, id: &str, mut f: impl FnMut(&mut Bencher)) -> &mut Self {
        let mut b = Bencher {
            samples_wanted: self.sample_size,
            samples_ns: Vec::new(),
        };
        f(&mut b);
        b.report(&self.name, id, self.throughput);
        self
    }

    /// End the group (printing is already done per-benchmark).
    pub fn finish(self) {}
}

/// Collects timing samples for one benchmark body.
pub struct Bencher {
    samples_wanted: u32,
    samples_ns: Vec<u128>,
}

impl Bencher {
    /// Time `routine` repeatedly.
    pub fn iter<O>(&mut self, mut routine: impl FnMut() -> O) {
        // One warm-up invocation, then the timed samples.
        let _ = routine();
        for _ in 0..self.samples_wanted {
            let t0 = Instant::now();
            let out = routine();
            self.samples_ns.push(t0.elapsed().as_nanos());
            drop(out);
        }
    }

    /// Time `routine` over fresh inputs from `setup`, excluding setup cost.
    pub fn iter_batched<I, O>(
        &mut self,
        mut setup: impl FnMut() -> I,
        mut routine: impl FnMut(I) -> O,
        _size: BatchSize,
    ) {
        let _ = routine(setup());
        for _ in 0..self.samples_wanted {
            let input = setup();
            let t0 = Instant::now();
            let out = routine(input);
            self.samples_ns.push(t0.elapsed().as_nanos());
            drop(out);
        }
    }

    fn report(&mut self, group: &str, id: &str, throughput: Option<Throughput>) {
        if self.samples_ns.is_empty() {
            println!("{id:<32} (no samples)");
            return;
        }
        self.samples_ns.sort_unstable();
        let median = self.samples_ns[self.samples_ns.len() / 2];
        let rate = match throughput {
            Some(Throughput::Elements(n)) => {
                format!("  {:>10.1} Melem/s", n as f64 / median as f64 * 1e3)
            }
            None => String::new(),
        };
        println!(
            "{id:<32} median {:>12} ns/iter ({} samples){rate}",
            median,
            self.samples_ns.len(),
        );
        self.emit_machine_line(group, id, median);
    }

    /// When `ECNSHARP_BENCH_JSON` names a file, append one JSON object per
    /// benchmark (JSON-lines) so `cargo xtask bench` can gate the pairs
    /// without parsing the human-readable output.
    fn emit_machine_line(&self, group: &str, id: &str, median_ns: u128) {
        let Ok(path) = std::env::var("ECNSHARP_BENCH_JSON") else {
            return;
        };
        if path.is_empty() {
            return;
        }
        // `min_ns` rides along for the same-binary pairs: co-tenant
        // interference only ever adds time, so the per-bench minimum is
        // the stable statistic on a shared box where the median can swing
        // 30%. (`samples_ns` is sorted and non-empty here.)
        let line = format!(
            "{{\"group\":\"{}\",\"bench\":\"{}\",\"median_ns\":{},\"min_ns\":{}}}\n",
            group.escape_default(),
            id.escape_default(),
            median_ns,
            self.samples_ns[0],
        );
        use std::io::Write;
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path);
        match file {
            Ok(mut f) => {
                if let Err(e) = f.write_all(line.as_bytes()) {
                    eprintln!("warning: could not write {path}: {e}");
                }
            }
            Err(e) => eprintln!("warning: could not open {path}: {e}"),
        }
    }
}

/// Define a benchmark group function, mirroring criterion's macro.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        fn $group() {
            let mut c = $crate::Criterion::default();
            $( $target(&mut c); )+
        }
    };
}

/// Define the benchmark binary's `main`, mirroring criterion's macro.
#[macro_export]
macro_rules! criterion_main {
    ($($group:ident),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bencher_collects_requested_samples() {
        let mut b = Bencher {
            samples_wanted: 5,
            samples_ns: Vec::new(),
        };
        let mut calls = 0u32;
        b.iter(|| calls += 1);
        assert_eq!(b.samples_ns.len(), 5);
        assert_eq!(calls, 6, "warm-up plus samples");
    }

    #[test]
    fn iter_batched_separates_setup() {
        let mut b = Bencher {
            samples_wanted: 3,
            samples_ns: Vec::new(),
        };
        let mut setups = 0u32;
        b.iter_batched(
            || {
                setups += 1;
                vec![0u8; 16]
            },
            |v| v.len(),
            BatchSize::SmallInput,
        );
        assert_eq!(setups, 4);
        assert_eq!(b.samples_ns.len(), 3);
    }

    #[test]
    fn machine_readable_lines_when_env_set() {
        let path =
            std::env::temp_dir().join(format!("bench-json-test-{}.jsonl", std::process::id()));
        std::env::set_var("ECNSHARP_BENCH_JSON", &path);
        let mut c = Criterion::default();
        let mut g = c.benchmark_group("mr");
        g.throughput(Throughput::Elements(100)).sample_size(2);
        g.bench_function("noop", |b| b.iter(|| 1 + 1));
        g.finish();
        std::env::remove_var("ECNSHARP_BENCH_JSON");
        let s = std::fs::read_to_string(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        assert!(s.contains("\"group\":\"mr\""), "{s}");
        assert!(s.contains("\"bench\":\"noop\""), "{s}");
        assert!(s.contains("\"median_ns\":"), "{s}");
        assert!(s.contains("\"min_ns\":"), "{s}");
    }

    #[test]
    fn group_api_chains() {
        let mut c = Criterion::default();
        let mut g = c.benchmark_group("shim-test");
        g.throughput(Throughput::Elements(10)).sample_size(2);
        g.bench_function("noop", |b| b.iter(|| 1 + 1));
        g.finish();
    }
}
