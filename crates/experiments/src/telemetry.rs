//! Telemetry plumbing for the harness: strict environment knobs selecting
//! JSON-lines sinks, and helpers the binaries use to attach subscribers.
//!
//! Two knobs, both validated like `ECNSHARP_SCALE` — a set-but-bad value
//! is a hard error (exit 2), never a silent fallback:
//!
//! - `ECNSHARP_TELEMETRY_JSON=<path>` — the `diag` binary streams every
//!   telemetry event of its scenario replay to `<path>` as JSON lines
//!   (see [`ecnsharp_telemetry::JsonlWriter`]).
//! - `ECNSHARP_PERF_JSON=<path>` — every `[perf]` engine-rate report the
//!   figure binaries print is also appended to `<path>` as one JSON
//!   object per line (see [`crate::perf::Timed::report`]).

use ecnsharp_telemetry::JsonlWriter;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};

/// A path-valued knob (see [`crate::env::path_knob`]) for binaries: unset
/// means `None`; set-but-empty (or unreadable) prints the error and exits
/// 2.
fn env_path_or_exit(knob: &'static str) -> Option<PathBuf> {
    crate::env::or_exit(crate::env::path_knob(knob))
}

/// Read `ECNSHARP_TELEMETRY_JSON` for binaries: unset means no sink;
/// set-but-invalid prints the error and exits 2.
pub fn telemetry_json_path_or_exit() -> Option<PathBuf> {
    env_path_or_exit("ECNSHARP_TELEMETRY_JSON")
}

/// Read `ECNSHARP_PERF_JSON` for binaries: unset means no sink;
/// set-but-invalid prints the error and exits 2.
pub fn perf_json_path_or_exit() -> Option<PathBuf> {
    env_path_or_exit("ECNSHARP_PERF_JSON")
}

/// Open (truncate/create) `path` as a buffered JSON-lines event sink,
/// creating parent directories as needed.
pub fn open_jsonl_sink(path: &Path) -> Result<JsonlWriter<BufWriter<File>>, String> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)
                .map_err(|e| format!("cannot create {}: {e}", parent.display()))?;
        }
    }
    let f = File::create(path).map_err(|e| format!("cannot create {}: {e}", path.display()))?;
    Ok(JsonlWriter::new(BufWriter::new(f)))
}

/// The sink `ECNSHARP_TELEMETRY_JSON` selects, opened with
/// [`open_jsonl_sink`]: `None` when the knob is unset, so the caller
/// attaches no JSONL subscriber and formats no events. Exits 2 on a bad
/// value or an unopenable path.
pub fn jsonl_sink_from_env_or_exit() -> Option<JsonlWriter<BufWriter<File>>> {
    let path = telemetry_json_path_or_exit()?;
    match open_jsonl_sink(&path) {
        Ok(w) => Some(w),
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    }
}

/// Append one line to `path`, creating the file (and parents) on first
/// use. Used by the perf JSON sink; errors are returned, not ignored.
pub fn append_line(path: &Path, line: &str) -> Result<(), String> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)
                .map_err(|e| format!("cannot create {}: {e}", parent.display()))?;
        }
    }
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .map_err(|e| format!("cannot open {}: {e}", path.display()))?;
    writeln!(f, "{line}").map_err(|e| format!("cannot write {}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    // Env-var tests poke process-global state; keep them to pure parsing
    // helpers exercised via a private seam instead of set_var races.
    #[test]
    fn append_line_creates_parents_and_appends() {
        let dir = std::env::temp_dir().join("ecnsharp-telemetry-test");
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("nested").join("perf.jsonl");
        append_line(&path, "{\"a\":1}").unwrap();
        append_line(&path, "{\"a\":2}").unwrap();
        let got = std::fs::read_to_string(&path).unwrap();
        assert_eq!(got, "{\"a\":1}\n{\"a\":2}\n");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn open_jsonl_sink_truncates() {
        let dir = std::env::temp_dir().join("ecnsharp-telemetry-test-sink");
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("events.jsonl");
        {
            let w = open_jsonl_sink(&path).unwrap();
            drop(w.into_inner());
        }
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
