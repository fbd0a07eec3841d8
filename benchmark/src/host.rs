//! Host-side measurement helpers: sample statistics, peak memory, the
//! calibration loop and the machine fingerprint.

use std::hint::black_box;
use std::time::Instant;

/// Median, quartiles, extremes and count of a set of samples.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    /// The median.
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
    /// Sample count.
    pub n: usize,
}

/// Linear-interpolation quantile of sorted samples (0 when there are none).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

impl Summary {
    /// Summarize `samples`.
    ///
    /// # Panics
    /// If `samples` is empty.
    pub fn of(samples: &[f64]) -> Summary {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        Summary {
            median: quantile(&sorted, 0.5),
            q1: quantile(&sorted, 0.25),
            q3: quantile(&sorted, 0.75),
            min: sorted[0],
            max: sorted[sorted.len() - 1],
            n: sorted.len(),
        }
    }
}

/// A field of `/proc/self/status` in kB (`VmHWM`, `VmRSS`).
fn proc_status_kb(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Peak resident set size of this process in MiB (`VmHWM`); 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mib() -> f64 {
    proc_status_kb("VmHWM:").unwrap_or(0) as f64 / 1024.0
}

/// One-minute load average; 0 where `/proc` is unavailable.
pub fn loadavg1() -> f64 {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or(0.0)
}

/// Time a fixed integer loop (20 M xorshift steps): a yardstick for how
/// fast this core is right now, taken immediately before each workload.
pub fn calib_ns() -> u64 {
    let start = Instant::now();
    let mut x = black_box(0x9E37_79B9_7F4A_7C15u64);
    for _ in 0..20_000_000u32 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    black_box(x);
    start.elapsed().as_nanos() as u64
}

/// Cores this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// What the numbers were measured on.
#[derive(Debug, Clone)]
pub struct Fingerprint {
    /// `model name` of the first CPU in `/proc/cpuinfo`.
    pub cpu_model: String,
    /// Cores available to this process.
    pub nproc: usize,
    /// `rustc --version` of the toolchain on `PATH`.
    pub rustc: String,
    /// One-minute load average when the fingerprint was taken.
    pub loadavg1: f64,
}

impl Fingerprint {
    /// Read the fingerprint of this machine.
    pub fn read() -> Fingerprint {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                let line = s.lines().find(|l| l.starts_with("model name"))?;
                Some(line.split_once(':')?.1.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        let rustc = std::process::Command::new("rustc")
            .arg("--version")
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".to_string());
        Fingerprint {
            cpu_model,
            nproc: nproc(),
            rustc,
            loadavg1: loadavg1(),
        }
    }
}

impl std::fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "cpu \"{}\", nproc {}, {}, loadavg1 {:.2}",
            self.cpu_model, self.nproc, self.rustc, self.loadavg1
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_matches_hand_computed_quartiles() {
        let s = Summary::of(&[4.0, 1.0, 3.0, 2.0, 5.0]);
        assert!((s.median - 3.0).abs() < 1e-12);
        assert!((s.q1 - 2.0).abs() < 1e-12);
        assert!((s.q3 - 4.0).abs() < 1e-12);
        assert!((s.min - 1.0).abs() < 1e-12 && (s.max - 5.0).abs() < 1e-12);
        assert_eq!(s.n, 5);
        let one = Summary::of(&[7.5]);
        assert!((one.median - 7.5).abs() < 1e-12 && (one.q3 - 7.5).abs() < 1e-12);
    }

    #[test]
    fn calibration_loop_takes_time() {
        assert!(calib_ns() > 0);
        assert!(nproc() >= 1);
    }
}
