//! Run supervision must be an observer, never a participant: with every
//! watchdog and memory guard armed but untriggered, supervised runs are
//! byte-identical to guard-free runs — figure output and perf-counter
//! ledger alike, serial and sharded (`ChaosResult`'s `Debug` covers
//! both: bit-exact FCT floats plus the `[perf]` mark/drop counters).
//! And each guard must actually fire: a synthetic zero-delay event
//! cycle trips the `ProgressGuard`, a withheld shard window trips the
//! barrier-stall detector, and a 1-event memory budget trips the
//! admission guard. DESIGN.md "Run supervision" carries the contract;
//! these tests pin it.

use ecnsharp_aqm::DropTail;
use ecnsharp_experiments::runner::{supervised_map, PointStatus, SweepConfig};
use ecnsharp_experiments::{try_run_chaos_leaf_spine_sharded, Scheme};
use ecnsharp_net::topology::leaf_spine;
use ecnsharp_net::{FlowCmd, FlowId, MemComponent, PortConfig, SimError, Supervision};
use ecnsharp_sim::{Duration, Rate, SimTime};
use ecnsharp_transport::{TcpConfig, TcpStack};
use std::sync::atomic::{AtomicU32, Ordering};

/// One chaos point under supervision `sup`, rendered to its bit-exact
/// `Debug` form (floats print shortest-round-trip, so string equality is
/// bit equality).
fn chaos_row(seed: u64, shards: u32, sup: Supervision) -> Result<String, SimError> {
    try_run_chaos_leaf_spine_sharded(
        Scheme::EcnSharp(None),
        0.01,
        Some(Duration::from_micros(200)),
        60,
        seed,
        shards,
        sup,
        false,
    )
    .map(|r| format!("{r:?}"))
}

#[test]
fn armed_untriggered_supervision_is_byte_identical_serial_and_sharded() {
    for shards in [1u32, 2, 4] {
        let bare = chaos_row(0xC0DE, shards, Supervision::default()).expect("unsupervised run");
        let armed = chaos_row(0xC0DE, shards, Supervision::armed()).expect("supervised run");
        assert_eq!(bare, armed, "{shards} shard(s)");
    }
}

mod properties {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4))]

        /// Arming every guard without tripping any must leave the full
        /// chaos ledger bit-identical across seeds, serial and 2/4-shard
        /// (4 clamps to the chaos topology's 2-leaf ceiling — the
        /// documented sweep behaviour, still a distinct code path).
        #[test]
        fn prop_armed_untriggered_runs_are_byte_identical(
            seed in 0u64..1_000_000,
            shards in 1u32..5,
        ) {
            let bare = chaos_row(seed, shards, Supervision::default())
                .expect("unsupervised run");
            let armed = chaos_row(seed, shards, Supervision::armed())
                .expect("supervised run");
            prop_assert_eq!(bare, armed);
        }
    }
}

#[test]
fn progress_guard_trips_on_zero_delay_event_cycle() {
    let mut sup = Supervision::armed();
    sup.livelock_budget = Some(1_000);
    let err = try_run_chaos_leaf_spine_sharded(
        Scheme::EcnSharp(None),
        0.0,
        None,
        20,
        7,
        1,
        sup,
        true, // schedule the self-rescheduling drill event
    )
    .expect_err("the zero-delay cycle must trip the progress guard");
    match err {
        SimError::Livelock {
            events_at_instant,
            budget,
            ..
        } => {
            assert_eq!(budget, 1_000);
            assert!(events_at_instant > budget);
        }
        other => panic!("expected Livelock, got {other:?}"),
    }
    assert!(
        !err.retryable(),
        "guard trips reproduce; retrying wastes time"
    );
    assert!(err.to_jsonl().contains("\"type\":\"Livelock\""));
}

#[test]
fn stall_detector_trips_on_withheld_shard_window() {
    let mut sup = Supervision::armed();
    sup.stall_rounds = Some(4);
    sup.inject_stall = true; // every shard skips window processing
    let err =
        try_run_chaos_leaf_spine_sharded(Scheme::EcnSharp(None), 0.0, None, 20, 7, 2, sup, false)
            .expect_err("frozen windows must trip the barrier-stall detector");
    match &err {
        SimError::BarrierStall { budget, shards, .. } => {
            assert_eq!(*budget, 4);
            assert_eq!(shards.len(), 2, "one diagnostic per shard");
            assert!(shards[0].shard < shards[1].shard, "diags sorted");
            assert!(shards.iter().any(|d| d.pending > 0));
        }
        other => panic!("expected BarrierStall, got {other:?}"),
    }
    assert!(err.to_jsonl().contains("\"type\":\"BarrierStall\""));
}

#[test]
fn mem_budget_trips_on_one_event_ceiling() {
    let sup = Supervision {
        event_ceiling: Some(1),
        ..Supervision::default()
    };
    let err = chaos_row(7, 1, sup).expect_err("a 1-event budget must trip instantly");
    match err {
        SimError::MemBudgetExceeded { breach, .. } => {
            assert_eq!(breach.component, MemComponent::EventQueue);
            assert_eq!(breach.ceiling, 1);
            assert!(breach.live > 1);
        }
        other => panic!("expected MemBudgetExceeded, got {other:?}"),
    }
}

#[test]
fn mem_budget_trips_sharded_too() {
    let sup = Supervision {
        event_ceiling: Some(1),
        ..Supervision::default()
    };
    let err = chaos_row(7, 2, sup).expect_err("the ceiling is distributed to every shard");
    assert!(
        matches!(err, SimError::MemBudgetExceeded { .. }),
        "got {err:?}"
    );
}

/// Four 500 kB flows from leaf 0's hosts into host 4 on leaf 1 (its own
/// shard on a 2-way cut), through 30 kB tail-drop switch buffers, with
/// every receiver's reassembly budget at one out-of-order range. Returns
/// the run's outcome, the clock it stopped at and the flows left open.
fn ooo_incast(shards: u32) -> (Result<SimTime, SimError>, SimTime, usize) {
    let tcp = TcpConfig {
        ooo_budget: Some(1),
        ..TcpConfig::dctcp()
    };
    let ls = leaf_spine(
        9,
        2,
        2,
        4,
        Rate::from_gbps(10),
        Rate::from_gbps(10),
        Duration::from_micros(1),
        |_| TcpStack::boxed(tcp),
        || PortConfig::fifo(4_000_000, Box::new(DropTail::new())),
        || PortConfig::fifo(30_000, Box::new(DropTail::new())),
    );
    let plan = (shards >= 2).then(|| ls.shard_plan(shards));
    let mut net = ls.net;
    for (i, &src) in ls.hosts[..4].iter().enumerate() {
        net.schedule_flow(
            SimTime::ZERO,
            FlowCmd {
                flow: FlowId(1 + i as u64),
                src,
                dst: ls.hosts[4],
                size: 500_000,
                class: 0,
                extra_delay: Duration::ZERO,
            },
        );
    }
    let res = match &plan {
        Some(p) => net.try_run_sharded_until_idle(p),
        None => net.try_run_until_idle(),
    };
    (res, net.now(), net.unfinished_flows())
}

/// A transport budget needs no `Supervision`: under the default, a
/// breach of `TcpConfig::ooo_budget` stops the run at the breaching
/// event with a typed report, serial and on 2 shards alike.
#[test]
fn ooo_budget_breach_stops_the_run_at_the_breaching_event() {
    let (serial, stopped_at, open) = ooo_incast(1);
    let err = serial.expect_err("tail drops must overflow a 1-range reassembly budget");
    let SimError::MemBudgetExceeded { breach, time_ns } = &err else {
        panic!("expected MemBudgetExceeded, got {err:?}");
    };
    assert_eq!(breach.component, MemComponent::TransportOoo);
    assert_eq!((breach.live, breach.ceiling), (2, 1));
    assert_eq!(breach.node, Some(4), "host 4 is the only receiver");
    // Stopped at the event that breached, not at the end of the run.
    assert_eq!(stopped_at.as_nanos(), *time_ns);
    assert!(open > 0, "flows were still in flight");

    let (sharded, ..) = ooo_incast(2);
    assert_eq!(
        sharded,
        Err(err),
        "the shard owning host 4 stops at the same event"
    );
}

/// Resume skips exactly the journaled points and recomputes the rest.
#[test]
fn resume_skips_journaled_points() {
    let dir = std::env::temp_dir().join("ecnsharp_supervision_resume");
    let _ = std::fs::remove_dir_all(&dir);
    let journal = dir.join("sweep.journal.jsonl");
    let items: Vec<u32> = vec![10, 20, 30];
    let id_of = |x: &u32| format!("pt-{x}");
    let seed_of = |x: &u32| u64::from(*x);

    // Interrupted first run: only point 20 made it into the journal.
    std::fs::create_dir_all(&dir).expect("temp dir");
    std::fs::write(
        &journal,
        "{\"point\":\"pt-20\",\"seed\":20,\"status\":\"ok\"}\n",
    )
    .expect("seed journal");

    let cfg = SweepConfig {
        journal: Some(journal.clone()),
        resume: true,
        retries: 0,
    };
    let report = supervised_map(items, &cfg, id_of, seed_of, |x| Ok(*x * 2));
    assert_eq!((report.completed, report.failed, report.skipped), (2, 0, 1));
    assert!(matches!(report.points[0], PointStatus::Done(20)));
    assert!(matches!(report.points[1], PointStatus::SkippedResumed));
    assert!(matches!(report.points[2], PointStatus::Done(60)));
    assert_eq!(
        report.summary_line(),
        "sweep: 2 completed, 0 failed, 1 retried, 1 skipped-resumed"
            .replace("1 retried", "0 retried")
    );

    // The completed points were appended, so a third run skips everything.
    // Any error would count as a failure: a journaled point must not run.
    let rerun = supervised_map(vec![10u32, 20, 30], &cfg, id_of, seed_of, |_| {
        Err::<u32, _>(SimError::BarrierStall {
            rounds: 0,
            budget: 0,
            shards: Vec::new(),
        })
    });
    assert_eq!((rerun.completed, rerun.failed, rerun.skipped), (0, 0, 3));
    let _ = std::fs::remove_dir_all(&dir);
}

/// A retryable failure (worker panic) is re-run with the same seed and
/// can succeed on the second attempt; deterministic guard trips are not
/// retried.
#[test]
fn retry_policy_reruns_retryable_failures_once() {
    let first_attempts = AtomicU32::new(0);
    let cfg = SweepConfig {
        journal: None,
        resume: false,
        retries: 1,
    };
    let report = supervised_map(
        vec![0u32, 1, 2],
        &cfg,
        |x| format!("pt-{x}"),
        |x| u64::from(*x),
        |x| {
            if *x == 1 && first_attempts.fetch_add(1, Ordering::Relaxed) == 0 {
                return Err(SimError::WorkerPanic {
                    msg: "transient".into(),
                });
            }
            Ok(*x)
        },
    );
    assert_eq!((report.completed, report.failed, report.retried), (3, 0, 1));

    // Non-retryable: a guard trip fails on the first attempt despite the
    // retry budget.
    let report = supervised_map(
        vec![0u32],
        &cfg,
        |x| format!("pt-{x}"),
        |x| u64::from(*x),
        |_| {
            Err::<u32, _>(SimError::Livelock {
                time_ns: 0,
                events_at_instant: 2,
                budget: 1,
                pending: 0,
                oldest_key: None,
            })
        },
    );
    assert_eq!((report.completed, report.failed, report.retried), (0, 1, 0));
    match &report.points[0] {
        PointStatus::Failed { attempts, .. } => assert_eq!(*attempts, 1),
        other => panic!("expected Failed, got {other:?}"),
    }
}

/// Panics inside a supervised point become identity-carrying
/// `WorkerPanic` errors (point id + seed in the message).
#[test]
fn point_panics_carry_identity() {
    let cfg = SweepConfig {
        journal: None,
        resume: false,
        retries: 0,
    };
    let report = supervised_map(
        vec![5u32],
        &cfg,
        |x| format!("pt-{x}"),
        |x| 0xABC0 + u64::from(*x),
        |_| -> Result<u32, SimError> { panic!("boom") },
    );
    assert_eq!(report.failed, 1);
    match &report.points[0] {
        PointStatus::Failed { error, .. } => {
            let SimError::WorkerPanic { msg } = error else {
                panic!("expected WorkerPanic, got {error:?}");
            };
            assert!(msg.contains("pt-5"), "id in message: {msg}");
            assert!(msg.contains("0xabc5"), "seed in message: {msg}");
            assert!(msg.contains("boom"), "payload in message: {msg}");
        }
        other => panic!("expected Failed, got {other:?}"),
    }
}
