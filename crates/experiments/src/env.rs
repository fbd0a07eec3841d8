//! The crate's single blessed environment-knob module (lint rule R10):
//! every `std::env::var` read in `ecnsharp-experiments` lives here, so
//! configuration cannot scatter and every knob shares the strict-knob
//! policy — a set-but-invalid value is a hard error (the binaries print
//! it and exit 2), never a silent fallback.
//!
//! Knob inventory — 12 here; with `ECNSHARP_BLESS_GOLDEN` (read by the
//! golden-figure test) and the lint fixture's `ECNSHARP_FIXTURE`, 14
//! `ECNSHARP_*` names in the tree. Supervision budgets are constants
//! (`Supervision::armed`), not knobs.
//!
//! | knob | values | default |
//! |------|--------|---------|
//! | `ECNSHARP_SCALE` | `quick`/`mid`/`full` | `full` |
//! | `ECNSHARP_RESULTS` | directory path | `results` |
//! | `ECNSHARP_FAULT_SEED` | decimal or `0x`-hex u64 | [`crate::runner::DEFAULT_FAULT_SEED`] |
//! | `ECNSHARP_TELEMETRY_JSON` | writable file path | unset = no sink |
//! | `ECNSHARP_PERF_JSON` | writable file path | unset = no sink |
//! | `ECNSHARP_DELACK` | u32 ≥ 1 | transport default |
//! | `ECNSHARP_INJECT_PANIC` | `worker` | unset = no injection |
//! | `ECNSHARP_SHARDS` | u32 ≥ 1 | `1` (serial) |
//! | `ECNSHARP_INJECT_STALL` | `window` | unset = no injection |
//! | `ECNSHARP_INJECT_LIVELOCK` | `engine` | unset = no injection |
//! | `ECNSHARP_RESUME` | `1`/`0` | `0` (fresh sweep) |
//! | `ECNSHARP_RETRIES` | u32 | `1` |

use crate::runner::{parse_fault_seed, DEFAULT_FAULT_SEED};
use crate::Scale;
use std::path::PathBuf;

/// Read one knob. `Ok(None)` when unset; an unreadable (non-unicode)
/// value is an error naming the knob.
fn read(knob: &'static str) -> Result<Option<String>, String> {
    match std::env::var(knob) {
        Ok(v) => Ok(Some(v)),
        Err(std::env::VarError::NotPresent) => Ok(None),
        Err(e) => Err(format!("unreadable {knob}: {e}")),
    }
}

/// Unwrap a knob result for binaries: print the error and exit 2.
pub fn or_exit<T>(r: Result<T, String>) -> T {
    match r {
        Ok(v) => v,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    }
}

/// `ECNSHARP_SCALE`: experiment scale. Unset means [`Scale::Full`];
/// anything else must parse exactly.
pub fn scale() -> Result<Scale, String> {
    match read("ECNSHARP_SCALE")? {
        Some(v) => v.parse(),
        None => Ok(Scale::Full),
    }
}

/// `ECNSHARP_RESULTS`: the results directory, defaulting to `results`.
/// Deliberately lenient — the figure binaries warn when a CSV cannot be
/// written, which covers a bad path without making smoke runs brittle.
pub fn results_dir() -> PathBuf {
    std::env::var("ECNSHARP_RESULTS")
        .unwrap_or_else(|_| "results".into())
        .into()
}

/// `ECNSHARP_FAULT_SEED`: base seed for fault-injection sweeps. Unset
/// means [`DEFAULT_FAULT_SEED`]; set-but-invalid is an error.
pub fn fault_seed() -> Result<u64, String> {
    match read("ECNSHARP_FAULT_SEED")? {
        Some(v) => parse_fault_seed(&v),
        None => Ok(DEFAULT_FAULT_SEED),
    }
}

/// A path-valued knob (`ECNSHARP_TELEMETRY_JSON` / `ECNSHARP_PERF_JSON`).
/// Unset means `None`; set-but-empty is an error naming the knob.
pub fn path_knob(knob: &'static str) -> Result<Option<PathBuf>, String> {
    match read(knob)? {
        Some(v) if v.trim().is_empty() => Err(format!(
            "empty {knob} value (expected a writable file path)"
        )),
        Some(v) => Ok(Some(PathBuf::from(v))),
        None => Ok(None),
    }
}

/// `ECNSHARP_DELACK`: delayed-ACK count override for the calibration
/// experiments. Unset means the transport default; set values must parse
/// as a u32 ≥ 1.
pub fn delack() -> Result<Option<u32>, String> {
    match read("ECNSHARP_DELACK")? {
        Some(v) => match v.parse::<u32>() {
            Ok(n) if n >= 1 => Ok(Some(n)),
            _ => Err(format!(
                "unrecognized ECNSHARP_DELACK value {v:?} (expected an integer >= 1)"
            )),
        },
        None => Ok(None),
    }
}

/// `ECNSHARP_SHARDS`: shard count for the conservative-PDES engine (see
/// CONCURRENCY.md). Unset or `1` means the serial event loop; `n ≥ 2`
/// makes shard-capable scenarios partition their fabric into `n` shards
/// and run them on `n` worker threads. Outputs are byte-identical either
/// way (the shard-equivalence suite pins this), so the knob is purely a
/// wall-clock trade. Set values must parse as a u32 ≥ 1; scenarios clamp
/// to their topology's natural shard ceiling (e.g. the leaf count).
pub fn shards() -> Result<u32, String> {
    match read("ECNSHARP_SHARDS")? {
        Some(v) => match v.parse::<u32>() {
            Ok(n) if n >= 1 => Ok(n),
            _ => Err(format!(
                "unrecognized ECNSHARP_SHARDS value {v:?} (expected an integer >= 1)"
            )),
        },
        None => Ok(1),
    }
}

/// `ECNSHARP_INJECT_PANIC`: crash-proof-runner drill switch. `worker`
/// crashes the first sweep point; unset means no injection; anything
/// else is an error.
pub fn inject_panic() -> Result<bool, String> {
    match read("ECNSHARP_INJECT_PANIC")? {
        Some(v) if v == "worker" => Ok(true),
        Some(v) => Err(format!(
            "unrecognized ECNSHARP_INJECT_PANIC value {v:?} (expected \"worker\" or unset)"
        )),
        None => Ok(false),
    }
}

/// `ECNSHARP_INJECT_STALL`: barrier-stall drill switch. `window` freezes
/// every shard's window processing on the first sweep point so the
/// barrier-stall detector must trip; unset means no injection; anything
/// else is an error.
pub fn inject_stall() -> Result<bool, String> {
    match read("ECNSHARP_INJECT_STALL")? {
        Some(v) if v == "window" => Ok(true),
        Some(v) => Err(format!(
            "unrecognized ECNSHARP_INJECT_STALL value {v:?} (expected \"window\" or unset)"
        )),
        None => Ok(false),
    }
}

/// `ECNSHARP_INJECT_LIVELOCK`: livelock drill switch. `engine` schedules
/// a self-rescheduling zero-delay event on the first sweep point so the
/// `ProgressGuard` must trip; unset means no injection; anything else is
/// an error.
pub fn inject_livelock() -> Result<bool, String> {
    match read("ECNSHARP_INJECT_LIVELOCK")? {
        Some(v) if v == "engine" => Ok(true),
        Some(v) => Err(format!(
            "unrecognized ECNSHARP_INJECT_LIVELOCK value {v:?} (expected \"engine\" or unset)"
        )),
        None => Ok(false),
    }
}

/// `ECNSHARP_RESUME`: resume an interrupted sweep from its
/// completed-point journal. `1` skips journaled points, `0` (or unset)
/// starts fresh; anything else is an error.
pub fn resume() -> Result<bool, String> {
    match read("ECNSHARP_RESUME")? {
        Some(v) if v == "1" => Ok(true),
        Some(v) if v == "0" => Ok(false),
        Some(v) => Err(format!(
            "unrecognized ECNSHARP_RESUME value {v:?} (expected \"1\", \"0\", or unset)"
        )),
        None => Ok(false),
    }
}

/// `ECNSHARP_RETRIES`: bounded same-seed retry count for sweep points
/// failing with a *retryable* error (worker panics). Unset means `1`;
/// `0` disables retries; set values must parse as a u32.
pub fn retries() -> Result<u32, String> {
    match read("ECNSHARP_RETRIES")? {
        Some(v) => v.parse::<u32>().map_err(|_| {
            format!("unrecognized ECNSHARP_RETRIES value {v:?} (expected an integer >= 0)")
        }),
        None => Ok(1),
    }
}
