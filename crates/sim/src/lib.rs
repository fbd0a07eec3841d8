//! # ecnsharp-sim
//!
//! Deterministic discrete-event simulation engine underpinning the ECN♯
//! reproduction: nanosecond time and rate units, a `(time, seq)`-ordered
//! event queue, and a seeded xoshiro256** RNG.
//!
//! Design follows the session's networking guides' emphasis on event-driven
//! simplicity (smoltcp-style): no interior mutability tricks, no async — a
//! packet simulator is CPU-bound and single-threaded determinism is the
//! feature that makes experiments reproducible.
//!
//! ```
//! use ecnsharp_sim::{EventQueue, SimTime, Duration, Rate, Rng};
//!
//! let mut q: EventQueue<&str> = EventQueue::new();
//! q.schedule(SimTime::from_micros(3), "timer");
//! q.schedule(SimTime::from_micros(1), "packet");
//! assert_eq!(q.pop().unwrap().1, "packet");
//!
//! // 1500 B at 10 Gbps serializes in 1.2 us:
//! assert_eq!(Rate::from_gbps(10).tx_time(1500), Duration::from_nanos(1200));
//!
//! let mut rng = Rng::seed_from_u64(42);
//! let sample = rng.exp_duration(Duration::from_micros(100));
//! assert!(sample.as_nanos() > 0);
//! ```

pub mod invariant;
pub mod queue;
pub mod rate;
pub mod rng;
pub mod supervise;
pub mod time;
pub mod wheel;

pub use queue::EventQueue;
pub use rate::{bytes, Rate};
pub use rng::{hash_mix, DetHasher, DetMap, DetState, Rng};
pub use supervise::{MemBreach, MemComponent, ProgressGuard, ShardDiag, SimError, Supervision};
pub use time::{Duration, SimTime};
pub use wheel::{TimerToken, TimerWheel};

// Compile-time shard-safety proofs: the sharded engine (ROADMAP item 1)
// moves these values across worker threads, so losing `Send`/`Sync` must
// be a compile error here, not a runtime surprise there. Lint rule R7
// guards the source text; these assertions guard the types themselves.
const fn assert_send<T: Send>() {}
const fn assert_send_sync<T: Send + Sync>() {}
const _: () = {
    assert_send::<EventQueue<u64>>();
    assert_send::<TimerWheel<u64>>();
    assert_send_sync::<Rng>();
    assert_send_sync::<Duration>();
    assert_send_sync::<SimTime>();
    assert_send_sync::<Rate>();
    assert_send_sync::<Supervision>();
    assert_send_sync::<SimError>();
    // Cache-layout pins: the time types must stay word-sized — they are
    // embedded in every queue entry, wheel cell, and (downstream) packet.
    // The calendar-lane header pin lives next to `Lane` in `queue.rs`
    // (the type is private to the module).
    assert!(std::mem::size_of::<SimTime>() == 8);
    assert!(std::mem::size_of::<Duration>() == 8);
};
