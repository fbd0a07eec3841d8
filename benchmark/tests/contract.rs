//! `BENCHMARK.json` at the repository root and the metric registry in
//! `src/report.rs` say the same thing, and `golden.json` covers every
//! workload.

use ecnsharp_benchmark::report::{json_field, END_TO_END, PER_LAYER};
use ecnsharp_benchmark::scenario::Workload;

fn benchmark_json() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root");
    text.split_whitespace().collect()
}

#[test]
fn benchmark_json_lists_the_registry() {
    let json = benchmark_json();
    for (name, unit, better, bound) in END_TO_END {
        let entry = format!(
            "{{\"name\":\"{name}\",\"unit\":\"{unit}\",\"better\":\"{}\",\"bound\":{bound}}}",
            better.as_str()
        );
        assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    for (name, unit, better) in PER_LAYER {
        let entry = format!(
            "{{\"name\":\"{name}\",\"unit\":\"{unit}\",\"better\":\"{}\"}}",
            better.as_str()
        );
        assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    for w in Workload::ALL {
        let entry = format!("{{\"name\":\"{}\",\"why\":\"", w.name());
        assert!(
            json.contains(&entry),
            "BENCHMARK.json lacks workload {}",
            w.name()
        );
    }
    // Nothing listed there that the registry does not know.
    let listed = json.matches("{\"name\":").count();
    assert_eq!(
        listed,
        Workload::ALL.len() + END_TO_END.len() + PER_LAYER.len()
    );
}

#[test]
fn golden_holds_a_digest_per_workload() {
    let golden = include_str!("../golden.json");
    assert_eq!(json_field(golden, "seed"), Some("1"));
    for w in Workload::ALL {
        let hex = json_field(golden, w.name()).expect("a digest per workload");
        assert!(u64::from_str_radix(hex, 16).is_ok(), "{}: {hex}", w.name());
    }
}
