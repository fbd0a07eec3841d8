//! The hand-built scenarios are the figure runners' scenarios: at reduced
//! size, with the fixed-volume cut off, each produces exactly the
//! `FctBreakdown` its `ecnsharp-experiments` runner returns for the same
//! `FctScenario`. This is what lets the benchmark time set-up and run
//! separately and still claim to measure what the figures run.

use ecnsharp_benchmark::scenario::{build, finish, Params, Workload, FAT_TREE_K, LEAF_SPINE};
use ecnsharp_benchmark::trace::SpanLog;
use ecnsharp_experiments::{run_fat_tree_sharded, run_leaf_spine_sharded, run_testbed_star};
use ecnsharp_net::NoopSubscriber;
use ecnsharp_stats::FctBreakdown;

fn params(workload: Workload, flows: usize, shards: u32) -> Params {
    Params {
        workload,
        seed: 7,
        flows,
        fixed_volume: false,
        shards,
    }
}

/// Build, run and check `p` the way the benchmark does.
fn hand_built(p: &Params) -> FctBreakdown {
    let mut spans = SpanLog::off();
    let mut built = build(p, NoopSubscriber, &mut spans, None);
    assert_eq!(built.scheduled, p.flows);
    built.run();
    let outcome = finish(&built, &mut spans, None);
    assert_eq!(outcome.violations, Vec::<String>::new());
    assert_eq!(outcome.aborted, 0);
    outcome.fct
}

fn assert_same(hand_built: FctBreakdown, runner: FctBreakdown) {
    assert_eq!(format!("{hand_built:?}"), format!("{runner:?}"));
}

#[test]
fn star_websearch_is_run_testbed_star() {
    let p = params(Workload::StarWebsearch, 200, 1);
    let sc = p.fct_scenario().expect("web-search workload");
    assert_same(hand_built(&p), run_testbed_star(&sc).0);
}

#[test]
fn leafspine_websearch_is_run_leaf_spine() {
    let p = params(Workload::LeafspineWebsearch, 120, 1);
    let sc = p.fct_scenario().expect("web-search workload");
    let (spines, leaves, hosts_per_leaf) = LEAF_SPINE;
    assert_same(
        hand_built(&p),
        run_leaf_spine_sharded(&sc, spines, leaves, hosts_per_leaf, 1),
    );
}

#[test]
fn fattree_shard2_is_run_fat_tree_on_two_shards() {
    let p = params(Workload::FattreeShard2, 80, 2);
    let sc = p.fct_scenario().expect("web-search workload");
    let sharded = hand_built(&p);
    assert_same(sharded, run_fat_tree_sharded(&sc, FAT_TREE_K, 2));
    // And the sharded engine changes nothing: the serial twin agrees.
    assert_same(sharded, hand_built(&p.serial_twin()));
}
