//! The crate's single blessed environment-knob module (lint rule R10):
//! every `std::env::var` read in `ecnsharp-experiments` lives here, so
//! configuration cannot scatter and every knob shares the strict-knob
//! policy — a set-but-invalid value is a hard error (the binaries print
//! it and exit 2), never a silent fallback.
//!
//! Knob inventory — 8 here; with `ECNSHARP_BLESS_GOLDEN` (read by the
//! golden-figure test), 9 `ECNSHARP_*` names in the tree. Supervision
//! budgets are constants (`Supervision::armed`), not knobs.
//!
//! | knob | values | default |
//! |------|--------|---------|
//! | `ECNSHARP_SCALE` | `quick`/`mid`/`full` | `full` |
//! | `ECNSHARP_RESULTS` | directory path | `results` |
//! | `ECNSHARP_FAULT_SEED` | decimal or `0x`-hex u64 | [`DEFAULT_FAULT_SEED`] |
//! | `ECNSHARP_TELEMETRY_JSON` | writable file path | unset = no sink |
//! | `ECNSHARP_PERF_JSON` | writable file path | unset = no sink |
//! | `ECNSHARP_DELACK` | u32 ≥ 1 | transport default |
//! | `ECNSHARP_SHARDS` | u32 ≥ 1 | `1` (serial) |
//! | `ECNSHARP_DRILL` | `panic`/`stall` (needs shards ≥ 2)/`livelock` | unset = no drill |

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

/// Default base seed for fault-injection sweeps when `ECNSHARP_FAULT_SEED`
/// is unset.
pub const DEFAULT_FAULT_SEED: u64 = 0xFA_017;

/// `ECNSHARP_FAULT_SEED`: base seed for fault-injection sweeps. Unset
/// means [`DEFAULT_FAULT_SEED`]; set-but-invalid is an error.
pub fn fault_seed() -> Result<u64, String> {
    match read("ECNSHARP_FAULT_SEED")? {
        Some(v) => parse_fault_seed(&v),
        None => Ok(DEFAULT_FAULT_SEED),
    }
}

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

/// A chaos-sweep drill: a fault planted on the first sweep point that one
/// guard must catch, failing that point with a structured error.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Drill {
    /// Crash the point's worker (`WorkerPanic`).
    Panic,
    /// Freeze every shard's window processing (`BarrierStall`).
    Stall,
    /// Schedule a self-rescheduling zero-delay event (`Livelock`).
    Livelock,
}

/// `ECNSHARP_DRILL`: the chaos-sweep drill, checked against the sweep's
/// `shards`. Unset means no drill.
pub fn drill(shards: u32) -> Result<Option<Drill>, String> {
    parse_drill(read("ECNSHARP_DRILL")?.as_deref(), shards)
}

/// Parse an `ECNSHARP_DRILL` value: `panic`, `stall` or `livelock`.
/// Strict: anything else is an error naming the knob, and so is `stall`
/// with fewer than 2 shards, where no barrier exists to stall.
fn parse_drill(v: Option<&str>, shards: u32) -> Result<Option<Drill>, String> {
    match v {
        None => Ok(None),
        Some("panic") => Ok(Some(Drill::Panic)),
        Some("stall") if shards >= 2 => Ok(Some(Drill::Stall)),
        Some("stall") => Err(format!(
            "ECNSHARP_DRILL=stall needs ECNSHARP_SHARDS >= 2, got {shards}"
        )),
        Some("livelock") => Ok(Some(Drill::Livelock)),
        Some(v) => Err(format!(
            "unrecognized ECNSHARP_DRILL value {v:?} (expected panic, stall, livelock or unset)"
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn drill_parses_each_kind_and_rejects_junk_and_a_serial_stall() {
        assert_eq!(parse_drill(None, 1), Ok(None));
        assert_eq!(parse_drill(Some("panic"), 1), Ok(Some(Drill::Panic)));
        assert_eq!(parse_drill(Some("stall"), 2), Ok(Some(Drill::Stall)));
        assert_eq!(parse_drill(Some("livelock"), 4), Ok(Some(Drill::Livelock)));
        for (bad, shards) in [("stall", 1), ("worker", 2), ("", 1), ("Panic", 1)] {
            let err = parse_drill(Some(bad), shards).unwrap_err();
            assert!(
                err.contains("ECNSHARP_DRILL"),
                "error should name the knob: {err}"
            );
        }
    }
}
