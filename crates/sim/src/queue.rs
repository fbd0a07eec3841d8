//! The event queue at the heart of the discrete-event engine.
//!
//! Events are ordered by `(time, key)`. With [`EventQueue::schedule`] the
//! key is an internal sequence counter, so among events scheduled for the
//! same instant insertion order wins (FIFO). With
//! [`EventQueue::schedule_tagged`] the caller supplies the key — the
//! sharded engine derives it from event provenance so the total order is
//! independent of how the network is partitioned. Either way the total
//! order makes every simulation run deterministic — a property the
//! integration tests assert end-to-end (same seed ⇒ bit-identical flow
//! completion times).
//!
//! # Implementation: calendar lanes in front of a heap
//!
//! Almost every event a packet simulator schedules lands a few link-delays
//! into the future (serialization ≈ 1.2 µs, propagation 1–5 µs). The only
//! things that reach further out are cancellable deadlines (RTOs, delayed
//! ACKs), which live on the timer wheel, and flow arrivals pushed at
//! set-up. The queue exploits that skew with a calendar-queue front end:
//!
//! - the near future (`LANE_COUNT` buckets of `1 << LANE_BITS` ns each,
//!   ≈ 1 ms of horizon) is a ring of *lanes*; scheduling into it is an
//!   O(1) `Vec::push`, and an occupancy bitmap finds the next non-empty
//!   lane with a couple of word scans;
//! - events beyond that horizon wait in a [`BinaryHeap`] (counted as
//!   [`QueuePerf::heap_spills`]);
//! - the lane whose bucket is being drained (the *current* batch) is kept
//!   sorted by `(time, seq)` descending, so popping the earliest event is
//!   a `Vec::pop`. When the batch empties, the next bucket is chosen as
//!   the earlier of the next occupied lane and the heap head; heap events
//!   that have come inside that bucket are merged in before the sort.
//!
//! # Buffers follow occupancy
//!
//! A lane owns a buffer only while it holds events. The buffer of a
//! bucket that has just been drained goes onto a LIFO pool, and a lane
//! that becomes occupied takes the most recently freed one. Two
//! invariants follow:
//!
//! - an empty lane has a zero-capacity `Vec` (nothing is parked in a slot
//!   the cursor will not revisit for a whole ring revolution);
//! - the buffers alive at any time are the occupied lanes plus the pool,
//!   so retained capacity is bounded by (peak simultaneously occupied
//!   lanes + a handful) × peak bucket size rather than by
//!   `LANE_COUNT` × peak bucket — and the buffer a schedule pushes into
//!   was written a few buckets ago, not a ring revolution ago.
//!
//! Recycling only changes *which allocation* a slot's events sit in,
//! never their order.
//!
//! The observable order is exactly the `(time, seq)` total order of the
//! plain-heap implementation — the `strict-invariants` feature rechecks it
//! on every pop — and the unit + property tests below drive lane
//! boundaries, cursor wraparound and the heap fallback explicitly.

// Hot path (per packet or per event): a panic aborts a whole figure run.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable
)]

use crate::time::SimTime;
use crate::wheel::{Cancelled, TimerToken, TimerWheel};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// log2 of the lane width in nanoseconds (1024 ns per lane). Shared with
/// the timer wheel, whose level-0 slots are exactly one lane wide.
pub(crate) const LANE_BITS: u32 = 10;
/// Number of near-future lanes (must be a power of two).
const LANE_COUNT: usize = 1024;
const LANE_MASK: u64 = LANE_COUNT as u64 - 1;
/// Words in the lane-occupancy bitmap.
const WORDS: usize = LANE_COUNT / 64;

/// Absolute calendar bucket of a timestamp.
#[inline]
fn bucket(t: SimTime) -> u64 {
    t.as_nanos() >> LANE_BITS
}

struct Entry<E> {
    time: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the earliest first.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Scheduling/pop counters of one [`EventQueue`].
///
/// Maintained unconditionally — each is a single integer add (plus one
/// compare for the peak) per operation, noise next to the queue work
/// itself — and never read by the engine, so whether a caller looks at
/// them cannot perturb a run. The determinism regression test in
/// `tests/` asserts exactly that.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueuePerf {
    /// Events scheduled over the queue's lifetime.
    pub pushed: u64,
    /// Events popped over the queue's lifetime.
    pub popped: u64,
    /// Highest number of simultaneously pending events observed.
    pub peak_pending: u64,
    /// Timer arms, including re-arms (see [`EventQueue::rearm_timer`]).
    pub timers_armed: u64,
    /// Live timers explicitly cancelled before firing.
    pub timers_cancelled: u64,
    /// Timers that reached their deadline and were delivered as events.
    pub timers_fired: u64,
    /// Live timers displaced by a re-arm — each one a stale event that an
    /// epoch-filtering design would have pushed through (and popped from)
    /// the queue.
    pub timers_stale_suppressed: u64,
    /// Events scheduled beyond the 1 ms lane horizon, which wait in the
    /// `BinaryHeap`.
    pub heap_spills: u64,
}

/// A buffer of `(time, key, event)` entries: one bucket's events, in a
/// lane, the drain batch or the recycle pool.
type Batch<E> = Vec<(SimTime, u64, E)>;

/// The most recently recycled buffer, or a fresh unallocated one.
#[inline]
fn take_buf<E>(pool: &mut Vec<Batch<E>>) -> Batch<E> {
    pool.pop().unwrap_or_default()
}

/// Return an emptied buffer to the pool (unallocated ones are dropped).
#[inline]
fn recycle<E>(pool: &mut Vec<Batch<E>>, buf: Batch<E>) {
    debug_assert!(buf.is_empty(), "recycling a buffer that still holds events");
    if buf.capacity() > 0 {
        pool.push(buf);
    }
}

/// A time-ordered event queue with FIFO tie-breaking.
pub struct EventQueue<E> {
    /// Entries of the bucket currently being drained (`cursor`), sorted
    /// by `(time, seq)` **descending** so the earliest is at the back.
    current: Batch<E>,
    /// Events scheduled *into* the draining bucket mid-drain (the ACK
    /// turnaround pattern: a sub-lane tx-done lands in the same bucket).
    /// A sorted-`Vec::insert` into `current` would memmove O(batch) per
    /// arrival, so these overlay entries live in a small min-heap instead;
    /// [`pop`] takes whichever of `current.last()` / `inbox.peek()` is
    /// earlier, preserving the exact `(time, seq)` total order.
    ///
    /// [`pop`]: EventQueue::pop
    inbox: BinaryHeap<Entry<E>>,
    /// Absolute bucket index `current` belongs to. All pending lane
    /// entries have strictly greater buckets; the heap head's bucket is
    /// also strictly greater whenever `current` is non-empty.
    cursor: u64,
    /// Near-future ring: slot `b & LANE_MASK` holds bucket `b`'s events,
    /// unsorted, for buckets within `(cursor, cursor + LANE_COUNT)`. A
    /// slot has zero capacity whenever it is empty (see "Buffers follow
    /// occupancy" in the module docs).
    lanes: Vec<Batch<E>>,
    /// One bit per lane slot: slot non-empty.
    occupied: [u64; WORDS],
    /// Total entries across all lanes (excluding `current` and the heap).
    lanes_len: usize,
    /// Far-future fallback (beyond the lane horizon at scheduling time);
    /// each push here is counted as a [`QueuePerf::heap_spills`].
    heap: BinaryHeap<Entry<E>>,
    /// Cancellable timers (see [`EventQueue::schedule_timer`]); shares the
    /// global sequence counter so fired timers replay in exactly the
    /// `(time, seq)` order a plain `schedule` would have given them.
    wheel: TimerWheel<E>,
    /// Emptied buffers awaiting reuse, most recently freed last.
    pool: Vec<Batch<E>>,
    next_seq: u64,
    now: SimTime,
    len: usize,
    perf: QueuePerf,
    /// Admission ceiling on live entries (events + armed timers);
    /// `usize::MAX` disarms the guard. Crossing it latches
    /// `mem_breached` — scheduling is never perturbed, so an
    /// armed-but-untriggered ceiling is observation-only.
    mem_ceiling: usize,
    /// Sticky flag: the ceiling was crossed at some admission.
    mem_breached: bool,
    /// `(time, seq)` of the most recent pop, for the strict-invariants
    /// total-order check: pop times never decrease, and among equal times
    /// sequence numbers strictly increase (FIFO).
    last_popped: Option<(SimTime, u64)>,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Create an empty queue positioned at t = 0.
    pub fn new() -> Self {
        EventQueue {
            current: Vec::new(),
            inbox: BinaryHeap::new(),
            cursor: 0,
            lanes: (0..LANE_COUNT).map(|_| Batch::new()).collect(),
            occupied: [0; WORDS],
            lanes_len: 0,
            heap: BinaryHeap::new(),
            wheel: TimerWheel::new(),
            pool: Vec::new(),
            next_seq: 0,
            now: SimTime::ZERO,
            len: 0,
            perf: QueuePerf::default(),
            mem_ceiling: usize::MAX,
            mem_breached: false,
            last_popped: None,
        }
    }

    /// Arm (or, with `None`, disarm) the admission ceiling on live
    /// entries. Crossing the ceiling latches a breach readable through
    /// [`EventQueue::mem_breach`]; scheduling itself is never perturbed,
    /// which keeps armed-but-untriggered runs byte-identical.
    pub fn set_mem_ceiling(&mut self, ceiling: Option<u64>) {
        self.mem_ceiling = match ceiling {
            Some(c) => usize::try_from(c).unwrap_or(usize::MAX),
            None => usize::MAX,
        };
        self.mem_breached = false;
    }

    /// The latched `(live, ceiling)` pair of the first admission that
    /// crossed the ceiling, if any. `live` reports the current count —
    /// by the fail-fast contract the caller stops within a few events of
    /// the breach, so it stays within noise of the crossing value.
    pub fn mem_breach(&self) -> Option<(u64, u64)> {
        if self.mem_breached {
            Some((self.len as u64, self.mem_ceiling as u64))
        } else {
            None
        }
    }

    /// Current simulation time: the timestamp of the last popped event (or
    /// zero before any pop).
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Scheduling/pop/peak counters so far (see [`QueuePerf`]).
    #[inline]
    pub fn perf(&self) -> QueuePerf {
        self.perf
    }

    /// Schedule `event` at absolute time `at`.
    ///
    /// The tie-break key is drawn from the queue's internal sequence
    /// counter, so same-instant events pop in insertion order (FIFO).
    ///
    /// # Panics
    /// Debug-panics when scheduling into the past; the engine never rewinds.
    pub fn schedule(&mut self, at: SimTime, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.schedule_tagged(at, seq, event);
    }

    /// Schedule `event` at `at` with a **caller-supplied** tie-break key.
    ///
    /// Events pop in `(time, key)` order. This is the hook the sharded
    /// engine uses for its canonical content-derived tags (see
    /// `ecnsharp-net`): when the key is a pure function of the simulation
    /// state that produced the event, the pop order is independent of how
    /// the simulation is partitioned, which is what makes sharded replay
    /// byte-identical to serial replay.
    ///
    /// Callers own key discipline: keys must be unique per queue among
    /// in-flight events (the strict-invariants total-order check rejects
    /// duplicates at equal times), and a queue should not interleave
    /// tagged and untagged scheduling for the same run — the internal
    /// sequence counter knows nothing about caller tags.
    ///
    /// ```
    /// use ecnsharp_sim::{EventQueue, SimTime};
    /// let mut q: EventQueue<&str> = EventQueue::new();
    /// let t = SimTime::from_micros(1);
    /// q.schedule_tagged(t, 7, "late");
    /// q.schedule_tagged(t, 3, "early");
    /// assert_eq!(q.pop().unwrap().1, "early"); // (time, key) order, not insertion order
    /// ```
    ///
    /// # Panics
    /// Debug-panics when scheduling into the past; the engine never rewinds.
    pub fn schedule_tagged(&mut self, at: SimTime, key: u64, event: E) {
        crate::invariant!(
            at >= self.now,
            "scheduling into the past: {at} < {}",
            self.now
        );
        let seq = key;
        let b = bucket(at);
        if b <= self.cursor {
            // The bucket being drained (b < cursor is impossible for
            // at >= now; handled identically for robustness): overlay
            // heap, merged with the sorted batch at pop time.
            self.inbox.push(Entry {
                time: at,
                seq,
                event,
            });
        } else if b - self.cursor < LANE_COUNT as u64 {
            self.insert_lane(b, at, seq, event);
        } else {
            self.heap.push(Entry {
                time: at,
                seq,
                event,
            });
            self.perf.heap_spills += 1;
        }
        self.len += 1;
        self.perf.pushed += 1;
        if self.len as u64 > self.perf.peak_pending {
            self.perf.peak_pending = self.len as u64;
        }
        if self.len > self.mem_ceiling {
            self.mem_breached = true;
        }
    }

    /// Insert an entry into its lane, maintaining the occupancy bit.
    /// Caller guarantees `cursor < b < cursor + LANE_COUNT` and owns
    /// `len`/perf attribution.
    #[inline]
    fn insert_lane(&mut self, b: u64, at: SimTime, seq: u64, event: E) {
        let slot = (b & LANE_MASK) as usize;
        let lane = &mut self.lanes[slot];
        if lane.is_empty() {
            self.occupied[slot >> 6] |= 1u64 << (slot & 63);
            *lane = take_buf(&mut self.pool);
        }
        lane.push((at, seq, event));
        self.lanes_len += 1;
    }

    /// Arm a cancellable timer firing `event` at `at`, returning a handle
    /// for [`cancel_timer`]/[`rearm_timer`].
    ///
    /// Timers are ordinary events once they fire: they draw from the same
    /// sequence counter at arm time, so replay order is byte-identical to
    /// a design that `schedule`s the timer and lazily discards stale pops
    /// — except the stale pops never happen.
    ///
    /// [`cancel_timer`]: EventQueue::cancel_timer
    /// [`rearm_timer`]: EventQueue::rearm_timer
    ///
    /// # Panics
    /// Debug-panics when arming into the past; the engine never rewinds.
    pub fn schedule_timer(&mut self, at: SimTime, event: E) -> TimerToken {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.schedule_timer_tagged(at, seq, event)
    }

    /// Arm a cancellable timer with a **caller-supplied** tie-break key —
    /// the timer counterpart of [`schedule_tagged`], with the same key
    /// discipline and the same cancel/re-arm semantics as
    /// [`schedule_timer`].
    ///
    /// [`schedule_tagged`]: EventQueue::schedule_tagged
    /// [`schedule_timer`]: EventQueue::schedule_timer
    ///
    /// # Panics
    /// Debug-panics when arming into the past; the engine never rewinds.
    pub fn schedule_timer_tagged(&mut self, at: SimTime, key: u64, event: E) -> TimerToken {
        crate::invariant!(
            at >= self.now,
            "arming a timer in the past: {at} < {}",
            self.now
        );
        let seq = key;
        let b = bucket(at);
        let tok = if b <= self.cursor {
            // Expiry inside the bucket being drained (sub-lane timers,
            // e.g. zero-delay deadlines): the payload goes straight into
            // the drain overlay; the wheel only keeps a cancel marker.
            self.inbox.push(Entry {
                time: at,
                seq,
                event,
            });
            // Counted as fired on delivery to the pop path (mirroring the
            // refill drain); a cancel that catches it first decrements.
            self.perf.timers_fired += 1;
            self.wheel.arm_external(at, seq)
        } else {
            self.wheel.arm(at, seq, event)
        };
        self.len += 1;
        self.perf.timers_armed += 1;
        if self.len as u64 > self.perf.peak_pending {
            self.perf.peak_pending = self.len as u64;
        }
        if self.len > self.mem_ceiling {
            self.mem_breached = true;
        }
        tok
    }

    /// Cancel a pending timer. Returns `false` when the token is stale
    /// (the timer already fired, was cancelled, or was re-armed).
    pub fn cancel_timer(&mut self, tok: TimerToken) -> bool {
        if self.take_live(tok) {
            self.perf.timers_cancelled += 1;
            true
        } else {
            false
        }
    }

    /// Release the wheel's bookkeeping marker behind a timer that just
    /// popped and fired. Drained-but-unpopped timers keep their slab cell
    /// as an External marker so a cancel racing ahead of the pop can
    /// still remove the batched event; once the event actually fires the
    /// owner calls this to return the cell. No-op on stale tokens.
    pub fn timer_fired(&mut self, tok: TimerToken) {
        self.wheel.release_external(tok);
    }

    /// Cancel-and-re-arm in one step: the timer behind `tok` (if any is
    /// still live) is removed without ever reaching the pop path, and a
    /// fresh timer is armed at `at`. This is the per-ACK RTO pattern.
    pub fn rearm_timer(&mut self, tok: Option<TimerToken>, at: SimTime, event: E) -> TimerToken {
        if let Some(t) = tok {
            if self.take_live(t) {
                self.perf.timers_stale_suppressed += 1;
            }
        }
        self.schedule_timer(at, event)
    }

    /// Cancel-and-re-arm with a caller-supplied tie-break key — the tagged
    /// counterpart of [`rearm_timer`].
    ///
    /// [`rearm_timer`]: EventQueue::rearm_timer
    pub fn rearm_timer_tagged(
        &mut self,
        tok: Option<TimerToken>,
        at: SimTime,
        key: u64,
        event: E,
    ) -> TimerToken {
        if let Some(t) = tok {
            if self.take_live(t) {
                self.perf.timers_stale_suppressed += 1;
            }
        }
        self.schedule_timer_tagged(at, key, event)
    }

    /// Remove a live timer (wheel-resident or already in the drain batch)
    /// without perf attribution; `false` on a stale token.
    fn take_live(&mut self, tok: TimerToken) -> bool {
        match self.wheel.cancel(tok) {
            Cancelled::Stale => false,
            Cancelled::Live(_) => {
                self.len -= 1;
                true
            }
            Cancelled::External(t, s) => {
                // The timer's payload was already delivered to the pop
                // path (armed into the draining batch, or drained from
                // the wheel by an eager refill — the sharded engine's
                // barrier peeks do this routinely). If it is still there
                // (sorted batch or inbox overlay), remove it and undo the
                // delivery-time fired count; otherwise it already popped
                // and the cancel is stale. The batch is sorted
                // descending, so a binary search finds the entry and the
                // order-preserving `remove` shifts only what is due
                // before it — little for a soon-due timer, however large
                // the bucket.
                if let Ok(pos) = self.current.binary_search_by(|e| (t, s).cmp(&(e.0, e.1))) {
                    self.current.remove(pos);
                    self.len -= 1;
                    self.perf.timers_fired -= 1;
                    true
                } else if self.inbox.iter().any(|e| (e.time, e.seq) == (t, s)) {
                    let mut entries = std::mem::take(&mut self.inbox).into_vec();
                    entries.retain(|e| (e.time, e.seq) != (t, s));
                    self.inbox = entries.into();
                    self.len -= 1;
                    self.perf.timers_fired -= 1;
                    true
                } else {
                    false
                }
            }
        }
    }

    /// Absolute bucket of the earliest non-empty lane, scanning the
    /// occupancy bitmap in ring order from just past the cursor. `None`
    /// when every lane is empty.
    fn next_occupied_bucket(&self) -> Option<u64> {
        if self.lanes_len == 0 {
            return None;
        }
        let start = ((self.cursor + 1) & LANE_MASK) as usize;
        let (sw, sb) = (start >> 6, start & 63);
        // Bits at/above `sb` of the start word cover slots start..word end.
        let w = self.occupied[sw] >> sb;
        let slot = if w != 0 {
            start + w.trailing_zeros() as usize
        } else {
            let mut found = None;
            for i in 1..=WORDS {
                let wi = (sw + i) % WORDS;
                let mut word = self.occupied[wi];
                if i == WORDS {
                    // Back at the start word: only slots before `start`.
                    word &= (1u64 << sb).wrapping_sub(1);
                }
                if word != 0 {
                    found = Some((wi << 6) + word.trailing_zeros() as usize);
                    break;
                }
            }
            found?
        };
        // Ring distance from the slot just past the cursor.
        let delta = (slot + LANE_COUNT - start) as u64 & LANE_MASK;
        Some(self.cursor + 1 + delta)
    }

    /// Refill `current` with the earliest pending bucket's events (lanes,
    /// heap and/or timer wheel), advancing the cursor. Caller guarantees
    /// `len > 0`.
    fn refill(&mut self) {
        let heap_bucket = self.heap.peek().map(|e| bucket(e.time));
        let lane_bucket = self.next_occupied_bucket();
        let near = match (lane_bucket, heap_bucket) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        // The wheel's exact minimum can require walking a higher-level
        // slot's cell list, so first rule it out with the bitmap-only
        // lower bound; the exact scan only runs when a timer might
        // actually own this batch (typically: the engine has gone quiet
        // and an RTO is the next thing to happen).
        let resolved = match (near, self.wheel.min_bucket_lower_bound()) {
            (Some(nb), Some(lb)) if nb < lb => Some((nb, false)),
            (near, Some(_)) => match (near, self.wheel.min_bucket()) {
                (Some(nb), Some(wm)) if nb <= wm => Some((nb, nb == wm)),
                (_, Some(wm)) => Some((wm, true)),
                // Unreachable: a Some lower bound means a non-empty wheel.
                (Some(nb), None) => Some((nb, false)),
                (None, None) => None,
            },
            (Some(nb), None) => Some((nb, false)),
            (None, None) => None,
        };
        let Some((b, wheel_due)) = resolved else {
            return;
        };
        self.cursor = b;
        if lane_bucket == Some(b) {
            let slot = (b & LANE_MASK) as usize;
            // The lane's buffer becomes the batch; the drained batch's
            // goes to the pool rather than being parked in this slot.
            let lane = std::mem::take(&mut self.lanes[slot]);
            let drained = std::mem::replace(&mut self.current, lane);
            recycle(&mut self.pool, drained);
            self.occupied[slot >> 6] &= !(1u64 << (slot & 63));
            self.lanes_len -= self.current.len();
        }
        while let Some(head) = self.heap.peek() {
            if bucket(head.time) != b {
                break;
            }
            if let Some(Entry { time, seq, event }) = self.heap.pop() {
                self.current.push((time, seq, event));
            }
        }
        // Keep the wheel's base glued to the cursor (sound: `b` is the
        // global minimum pending bucket), then deliver its due timers.
        self.wheel.advance_to(b);
        if wheel_due {
            let fired = self.wheel.drain_bucket(b, &mut self.current);
            self.perf.timers_fired += fired as u64;
        }
        // Descending, so the earliest (time, seq) pops from the back.
        self.current
            .sort_unstable_by_key(|e| std::cmp::Reverse((e.0, e.1)));
    }

    /// Pop the earliest event, advancing `now` to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.pop_keyed().map(|(t, _, e)| (t, e))
    }

    /// Pop the earliest event together with its tie-break key.
    ///
    /// The sharded engine needs the key of the event being processed (it
    /// seeds the provenance of any records that event produces); plain
    /// [`pop`] discards it.
    ///
    /// [`pop`]: EventQueue::pop
    pub fn pop_keyed(&mut self) -> Option<(SimTime, u64, E)> {
        if self.current.is_empty() && self.inbox.is_empty() {
            if self.len == 0 {
                return None;
            }
            self.refill();
        }
        // Earliest of the sorted batch tail and the overlay top; sequence
        // numbers are unique, so the comparison is never a tie.
        let take_inbox = match (self.current.last(), self.inbox.peek()) {
            (Some(c), Some(i)) => (i.time, i.seq) < (c.0, c.1),
            (None, Some(_)) => true,
            _ => false,
        };
        let (time, seq, event) = if take_inbox {
            let e = self.inbox.pop()?;
            (e.time, e.seq, e.event)
        } else {
            self.current.pop()?
        };
        self.len -= 1;
        self.perf.popped += 1;
        crate::invariant!(time >= self.now, "time went backwards");
        if cfg!(feature = "strict-invariants") {
            if let Some((t, s)) = self.last_popped {
                crate::invariant!(
                    time > t || (time == t && seq > s),
                    "(time, seq) total order violated: popped ({time}, {seq}) after ({t}, {s})"
                );
            }
            self.last_popped = Some((time, seq));
        }
        self.now = time;
        Some((time, seq, event))
    }

    /// Timestamp of the next event without popping it.
    ///
    /// Takes `&mut self` because peeking past an exhausted batch refills
    /// from the earliest pending bucket — the same work the next `pop`
    /// would do, just done early (the observable pop order is unchanged).
    pub fn peek_time(&mut self) -> Option<SimTime> {
        if self.current.is_empty() && self.inbox.is_empty() {
            if self.len == 0 {
                return None;
            }
            self.refill();
        }
        match (self.current.last(), self.inbox.peek()) {
            (Some(c), Some(i)) => Some(if (i.time, i.seq) < (c.0, c.1) {
                i.time
            } else {
                c.0
            }),
            (Some(c), None) => Some(c.0),
            (None, Some(i)) => Some(i.time),
            (None, None) => None,
        }
    }

    /// `(time, key)` of the next event without popping it — the ordering
    /// key the next [`pop`] will honour. The serial engine uses this to
    /// interleave out-of-queue work (fault application) at its exact
    /// `(time, tag)` position; the sharded engine uses it to publish each
    /// shard's next-event time at window barriers.
    ///
    /// Takes `&mut self` for the same refill reason as [`peek_time`].
    ///
    /// [`pop`]: EventQueue::pop
    /// [`peek_time`]: EventQueue::peek_time
    pub fn peek_key(&mut self) -> Option<(SimTime, u64)> {
        if self.current.is_empty() && self.inbox.is_empty() {
            if self.len == 0 {
                return None;
            }
            self.refill();
        }
        match (self.current.last(), self.inbox.peek()) {
            (Some(c), Some(i)) => Some(if (i.time, i.seq) < (c.0, c.1) {
                (i.time, i.seq)
            } else {
                (c.0, c.1)
            }),
            (Some(c), None) => Some((c.0, c.1)),
            (None, Some(i)) => Some((i.time, i.seq)),
            (None, None) => None,
        }
    }

    /// Remove and return **all** pending events as `(time, key, event)`
    /// triples sorted by `(time, key)`, leaving the queue empty but its
    /// clock and counters intact.
    ///
    /// This is the shard-split primitive: setup events scheduled on a
    /// serial network are drained here and re-scheduled (with their keys
    /// preserved) onto the owning shard's queue. Perf counters are not
    /// attributed — a split is bookkeeping, not simulation work.
    ///
    /// # Panics
    /// Panics if any cancellable timer is still armed: timer tokens index
    /// this queue's wheel and cannot be migrated. Shard a network before
    /// arming timers (in practice: before the first `run_*` call).
    pub fn drain_entries(&mut self) -> Vec<(SimTime, u64, E)> {
        let mut out: Vec<(SimTime, u64, E)> = Vec::with_capacity(self.len);
        out.append(&mut self.current);
        out.extend(
            std::mem::take(&mut self.inbox)
                .into_iter()
                .map(|e| (e.time, e.seq, e.event)),
        );
        if self.lanes_len > 0 {
            for lane in &mut self.lanes {
                out.extend(std::mem::take(lane));
            }
        }
        out.extend(
            std::mem::take(&mut self.heap)
                .into_iter()
                .map(|e| (e.time, e.seq, e.event)),
        );
        assert!(
            out.len() == self.len,
            "drain_entries with {} armed timer(s): timers cannot migrate across shards",
            self.len - out.len()
        );
        self.occupied = [0; WORDS];
        self.lanes_len = 0;
        self.len = 0;
        out.sort_unstable_by_key(|e| (e.0, e.1));
        out
    }

    /// Restart the strict-invariants pop-order watermark.
    ///
    /// The `(time, seq)` total-order check assumes keys only ever grow
    /// along the pop stream — true for everything the engine schedules
    /// (strictly future times), but *setup-context* scheduling may
    /// legally land at `now` with a key below ones already popped at
    /// this instant: re-injecting events into a network whose run
    /// already finished, or a manual link-up kick between runs (setup
    /// tags sort below every same-time runtime tag by design, see
    /// CONCURRENCY.md). Callers doing that restart the watermark so the
    /// next pop is checked against the new stream, not the old one.
    /// No-op outside `strict-invariants` builds (the watermark is never
    /// written there).
    pub fn rewind_order_watermark(&mut self) {
        self.last_popped = None;
    }

    /// Advance the queue's clock to `t` without popping anything, so later
    /// `schedule` calls measure "the past" against `t`. Used when a queue
    /// stands for a simulation whose time advanced elsewhere (the shard
    /// coordinator after a parallel phase). `t` earlier than `now` is a
    /// no-op — the clock never rewinds.
    pub fn advance_now(&mut self, t: SimTime) {
        if t > self.now {
            self.now = t;
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Drop all pending events and timers (used when tearing a run down
    /// early); outstanding [`TimerToken`]s go stale.
    pub fn clear(&mut self) {
        self.current.clear();
        self.inbox.clear();
        self.heap.clear();
        if self.lanes_len > 0 {
            for lane in &mut self.lanes {
                *lane = Batch::new();
            }
        }
        self.occupied = [0; WORDS];
        self.lanes_len = 0;
        self.wheel.clear();
        self.len = 0;
    }

    /// Entries' worth of buffer capacity held anywhere in the calendar:
    /// the drain batch, every lane, and the recycle pool.
    #[cfg(test)]
    fn retained_capacity(&self) -> usize {
        self.current.capacity()
            + self.lanes.iter().map(Vec::capacity).sum::<usize>()
            + self.pool.iter().map(Vec::capacity).sum::<usize>()
    }

    /// Lanes currently holding events.
    #[cfg(test)]
    fn occupied_slots(&self) -> usize {
        self.occupied.iter().map(|w| w.count_ones() as usize).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(30), "c");
        q.schedule(SimTime::from_nanos(10), "a");
        q.schedule(SimTime::from_nanos(20), "b");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn fifo_among_equal_times() {
        let mut q = EventQueue::new();
        let t = SimTime::from_nanos(5);
        for i in 0..100 {
            q.schedule(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn now_advances_with_pops() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(7), ());
        q.schedule(SimTime::from_nanos(9), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), SimTime::from_nanos(7));
        q.pop();
        assert_eq!(q.now(), SimTime::from_nanos(9));
    }

    #[test]
    fn interleaved_schedule_and_pop() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(10), 1);
        let (t, e) = q.pop().unwrap();
        assert_eq!((t.as_nanos(), e), (10, 1));
        // schedule relative to the new now
        q.schedule(q.now() + crate::time::Duration::from_nanos(5), 2);
        q.schedule(q.now() + crate::time::Duration::from_nanos(1), 3);
        assert_eq!(q.pop().unwrap().1, 3);
        assert_eq!(q.pop().unwrap().1, 2);
        assert!(q.pop().is_none());
    }

    #[test]
    fn tagged_order_is_key_order_not_insertion_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_nanos(100);
        q.schedule_tagged(t, 30, "c");
        q.schedule_tagged(t, 10, "a");
        q.schedule_tagged(t, 20, "b");
        // Across buckets too: far-future heap entry with a small key.
        q.schedule_tagged(SimTime::from_millis(50), 1, "far");
        let order: Vec<(u64, &str)> =
            std::iter::from_fn(|| q.pop_keyed().map(|(_, k, e)| (k, e))).collect();
        assert_eq!(order, vec![(10, "a"), (20, "b"), (30, "c"), (1, "far")]);
    }

    #[test]
    fn peek_key_matches_next_pop() {
        let mut q = EventQueue::new();
        q.schedule_tagged(SimTime::from_nanos(40), 9, ());
        q.schedule_tagged(SimTime::from_nanos(40), 4, ());
        assert_eq!(q.peek_key(), Some((SimTime::from_nanos(40), 4)));
        let (t, k, ()) = q.pop_keyed().unwrap();
        assert_eq!((t, k), (SimTime::from_nanos(40), 4));
        assert_eq!(q.peek_key(), Some((SimTime::from_nanos(40), 9)));
        q.pop();
        assert_eq!(q.peek_key(), None);
    }

    #[test]
    fn drain_entries_returns_sorted_and_empties_queue() {
        let mut q = EventQueue::new();
        // One in each region: near lane, current bucket, far heap.
        q.schedule_tagged(SimTime::from_nanos(2_000), 3, "lane");
        q.schedule_tagged(SimTime::from_nanos(1), 2, "near");
        q.schedule_tagged(SimTime::from_millis(900), 1, "far");
        // Force a refill so `current`/`inbox` are populated too.
        q.pop_keyed();
        q.schedule_tagged(q.now(), 7, "inbox");
        let drained = q.drain_entries();
        let labels: Vec<&str> = drained.iter().map(|e| e.2).collect();
        assert_eq!(labels, vec!["inbox", "lane", "far"]);
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
        // The queue is reusable after a drain.
        q.schedule_tagged(SimTime::from_millis(901), 5, "again");
        assert_eq!(q.pop().unwrap().1, "again");
    }

    #[test]
    #[should_panic(expected = "armed timer")]
    fn drain_entries_rejects_armed_timers() {
        let mut q = EventQueue::new();
        q.schedule_timer(SimTime::from_micros(10), ());
        let _ = q.drain_entries();
    }

    #[test]
    fn tagged_timer_rearm_replays_like_schedule_timer() {
        let mut q = EventQueue::new();
        let tok = q.schedule_timer_tagged(SimTime::from_micros(5), 11, "old");
        let _tok2 = q.rearm_timer_tagged(Some(tok), SimTime::from_micros(7), 12, "new");
        q.schedule_tagged(SimTime::from_micros(6), 1, "mid");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!["mid", "new"]);
        assert_eq!(q.perf().timers_stale_suppressed, 1);
    }

    #[test]
    fn len_and_clear() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.schedule(SimTime::from_nanos(1), ());
        q.schedule(SimTime::from_nanos(2), ());
        // One near (lane), one at the current bucket, one far (heap).
        q.schedule(SimTime::from_nanos(5_000), ());
        q.schedule(SimTime::from_millis(50), ());
        assert_eq!(q.len(), 4);
        q.clear();
        assert!(q.is_empty());
        assert!(q.pop().is_none());
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    #[should_panic(expected = "scheduling into the past")]
    #[cfg(debug_assertions)]
    fn rejects_past_scheduling() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(10), ());
        q.pop();
        q.schedule(SimTime::from_nanos(5), ());
    }

    #[test]
    fn peek_matches_pop() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(4), ());
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(4)));
        let (t, _) = q.pop().unwrap();
        assert_eq!(t, SimTime::from_nanos(4));
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn perf_counters_track_traffic() {
        let mut q = EventQueue::new();
        for k in 0..10u64 {
            q.schedule(SimTime::from_nanos(k * 100), k);
        }
        assert_eq!(q.perf().pushed, 10);
        assert_eq!(q.perf().peak_pending, 10);
        while q.pop().is_some() {}
        let p = q.perf();
        assert_eq!(p.popped, 10);
        assert_eq!(p.peak_pending, 10);
    }

    // ── calendar-specific edge cases ──────────────────────────────────

    /// One lane is 1024 ns wide: events straddling a lane boundary, in
    /// adversarial insertion order, must still pop in time order.
    #[test]
    fn ordering_across_lane_boundaries() {
        let mut q = EventQueue::new();
        let times = [1023u64, 1025, 1024, 1, 2047, 2048, 0, 1022];
        for (i, &t) in times.iter().enumerate() {
            q.schedule(SimTime::from_nanos(t), i);
        }
        let mut popped: Vec<u64> = Vec::new();
        while let Some((t, _)) = q.pop() {
            popped.push(t.as_nanos());
        }
        let mut want = times.to_vec();
        want.sort_unstable();
        assert_eq!(popped, want);
    }

    /// Same-time events in the same lane keep FIFO order even when other
    /// lanes interleave.
    #[test]
    fn fifo_within_a_lane_bucket() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(2_000), "b0");
        q.schedule(SimTime::from_nanos(1_500), "a0");
        q.schedule(SimTime::from_nanos(1_500), "a1");
        q.schedule(SimTime::from_nanos(2_000), "b1");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!["a0", "a1", "b0", "b1"]);
    }

    /// Advance the cursor many times around the lane ring: slots are
    /// reused for buckets LANE_COUNT apart without mixing them up.
    #[test]
    fn cursor_wraparound_reuses_slots() {
        let mut q = EventQueue::new();
        let width = 1u64 << LANE_BITS;
        let ring_span = width * LANE_COUNT as u64;
        // Three full ring revolutions, two events per revolution that map
        // to the same slot.
        let mut scheduled = Vec::new();
        for rev in 0..3u64 {
            for k in 0..2u64 {
                let t = rev * ring_span + k * width * 7 + 13;
                scheduled.push(t);
            }
        }
        // Schedule the nearest first so every later one is in range of the
        // not-yet-advanced cursor only via the heap, then pop interleaved.
        for &t in &scheduled {
            q.schedule(SimTime::from_nanos(t), t);
        }
        let mut popped = Vec::new();
        while let Some((t, e)) = q.pop() {
            assert_eq!(t.as_nanos(), e);
            popped.push(e);
            // Interleave: schedule one future event mid-drain, still after
            // `now`, exercising in-flight inserts while the ring wraps.
            if popped.len() == 2 {
                let extra = t.as_nanos() + ring_span + 1;
                q.schedule(SimTime::from_nanos(extra), extra);
                scheduled.push(extra);
            }
        }
        scheduled.sort_unstable();
        assert_eq!(popped, scheduled);
    }

    /// Events beyond the lane horizon land in the heap, are counted as
    /// spills, and merge back in time order when the cursor reaches them.
    #[test]
    fn heap_fallback_beyond_horizon() {
        let mut q = EventQueue::new();
        let horizon = (1u64 << LANE_BITS) * LANE_COUNT as u64;
        // Far events first (heap), then near events (lanes).
        q.schedule(SimTime::from_nanos(3 * horizon), "far2");
        q.schedule(SimTime::from_nanos(2 * horizon + 5), "far1");
        q.schedule(SimTime::from_nanos(100), "near1");
        q.schedule(SimTime::from_nanos(horizon - 1), "near2");
        assert_eq!(q.perf().heap_spills, 2);
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!["near1", "near2", "far1", "far2"]);
    }

    /// A heap event and a lane event in the *same* bucket (possible when
    /// the far event was scheduled before the cursor advanced) interleave
    /// correctly, including FIFO on exact ties.
    #[test]
    fn heap_and_lane_merge_within_bucket() {
        let mut q = EventQueue::new();
        let horizon = (1u64 << LANE_BITS) * LANE_COUNT as u64;
        let far = 2 * horizon + 500;
        q.schedule(SimTime::from_nanos(far), "heap-first"); // beyond horizon ⇒ heap
        q.schedule(SimTime::from_nanos(10), "near");
        q.pop(); // "near": cursor at bucket 0 still, heap event pending
                 // Drain to the far bucket via an intermediate event, then add a
                 // lane event in the same bucket as the heap one.
        q.schedule(SimTime::from_nanos(horizon), "mid");
        q.pop(); // "mid": cursor advanced; `far` now within lane horizon
        q.schedule(SimTime::from_nanos(far), "lane-second"); // same time, later seq
        q.schedule(SimTime::from_nanos(far - 1), "lane-earlier");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!["lane-earlier", "heap-first", "lane-second"]);
    }

    /// Far-future events must not populate the calendar's buffers. Steady
    /// traffic of 50 events per bucket, each pop scheduling its successor
    /// 40 buckets ahead, plus one event 5 ms out every 100 µs (a flow
    /// arrival): buffers alive stay at the occupied lanes plus a handful,
    /// and retained capacity is flat once the ring has gone round once.
    #[test]
    fn far_events_do_not_populate_the_buffer_pool() {
        const PER_BUCKET: u64 = 50;
        const AHEAD: u64 = 40;
        const BUCKETS: u64 = 8_000;
        const FAR: u64 = u64::MAX;
        let width = 1u64 << LANE_BITS;
        let mut q: EventQueue<u64> = EventQueue::new();
        for k in 0..AHEAD {
            for j in 0..PER_BUCKET {
                q.schedule(SimTime::from_nanos(k * width + j * 20), j);
            }
        }
        let mut next_far = 0u64;
        let mut peak_slots = 0usize;
        let mut settled = None;
        let mut checked = 0u64;
        while q.cursor < BUCKETS {
            let (t, e) = q.pop().expect("steady traffic never runs dry");
            if e == FAR {
                continue;
            }
            let now = t.as_nanos();
            q.schedule(SimTime::from_nanos(now + AHEAD * width), e);
            if now >= next_far {
                q.schedule(SimTime::from_nanos(now + 5_000_000), FAR);
                next_far += 100_000;
            }
            // Once per bucket is enough: buffers change hands at refill.
            if q.cursor == checked {
                continue;
            }
            checked = q.cursor;
            let slots = q.occupied_slots();
            peak_slots = peak_slots.max(slots);
            let alive = q.pool.len() + slots;
            assert!(
                alive <= peak_slots + 4,
                "{alive} buffers alive at bucket {} for {peak_slots} slots at peak",
                q.cursor
            );
            if q.cursor >= LANE_COUNT as u64 {
                let retained = q.retained_capacity();
                let settled = *settled.get_or_insert(retained);
                assert!(
                    retained <= settled,
                    "retained capacity grew {settled} -> {retained} at bucket {}",
                    q.cursor
                );
            }
        }
        assert!(
            q.perf().heap_spills >= 70,
            "far events never left the lanes"
        );
    }

    /// Scheduling into the bucket currently being drained inserts in
    /// order (the ACK-turnaround pattern: tx_time shorter than one lane).
    #[test]
    fn insert_into_current_bucket_mid_drain() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(100), 1);
        q.schedule(SimTime::from_nanos(300), 3);
        assert_eq!(q.pop().unwrap().1, 1);
        // now = 100; bucket 0 is being drained. Insert between and after.
        q.schedule(SimTime::from_nanos(200), 2);
        q.schedule(SimTime::from_nanos(400), 4);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![2, 3, 4]);
    }

    // ── timer integration ─────────────────────────────────────────────

    #[test]
    fn timers_interleave_with_events_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_micros(10), "event-10us");
        q.schedule_timer(SimTime::from_micros(5), "timer-5us");
        q.schedule(SimTime::from_micros(1), "event-1us");
        q.schedule_timer(SimTime::from_millis(20), "timer-20ms");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(
            order,
            vec!["event-1us", "timer-5us", "event-10us", "timer-20ms"]
        );
        let p = q.perf();
        assert_eq!(p.timers_armed, 2);
        assert_eq!(p.timers_fired, 2);
        assert_eq!(p.timers_cancelled, 0);
        assert_eq!(p.timers_stale_suppressed, 0);
    }

    #[test]
    fn cancelled_timer_never_pops() {
        let mut q: EventQueue<&str> = EventQueue::new();
        let tok = q.schedule_timer(SimTime::from_millis(10), "rto");
        assert_eq!(q.len(), 1);
        assert!(q.cancel_timer(tok));
        assert!(q.is_empty());
        assert!(q.pop().is_none());
        // A second cancel is stale.
        assert!(!q.cancel_timer(tok));
        let p = q.perf();
        assert_eq!(p.timers_cancelled, 1);
        assert_eq!(p.popped, 0);
    }

    #[test]
    fn rearm_suppresses_stale_and_fires_last_deadline() {
        let mut q: EventQueue<u32> = EventQueue::new();
        // The per-ACK RTO pattern: re-arm 5 times, only the last fires.
        let mut tok = None;
        for k in 0..5u64 {
            tok = Some(q.rearm_timer(tok, SimTime::from_millis(10 + k), k as u32));
        }
        assert_eq!(q.len(), 1);
        let fired: Vec<u32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(fired, vec![4]);
        let p = q.perf();
        assert_eq!(p.timers_armed, 5);
        assert_eq!(p.timers_stale_suppressed, 4);
        assert_eq!(p.timers_fired, 1);
        assert_eq!(p.popped, 1, "stale timers never reach the pop path");
    }

    #[test]
    fn timer_into_draining_bucket_is_cancellable() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(100), "a");
        q.schedule(SimTime::from_nanos(900), "b");
        assert_eq!(q.pop().unwrap().1, "a"); // bucket 0 is now draining
        let tok = q.schedule_timer(SimTime::from_nanos(500), "deadline");
        assert!(q.cancel_timer(tok));
        assert!(!q.cancel_timer(tok));
        let rest: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(rest, vec!["b"]);
    }

    #[test]
    fn timer_into_draining_bucket_fires_in_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(100), "a");
        q.schedule(SimTime::from_nanos(900), "c");
        assert_eq!(q.pop().unwrap().1, "a");
        let tok = q.schedule_timer(SimTime::from_nanos(500), "t");
        let rest: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(rest, vec!["t", "c"]);
        // Cancelling after the fire is stale, not a panic or a removal.
        assert!(!q.cancel_timer(tok));
    }

    /// A timer already drained into a large sorted batch is still
    /// cancellable, wherever its key falls in the batch, and the
    /// delivery-time `timers_fired` count is undone.
    #[test]
    fn cancels_a_drained_timer_out_of_a_large_batch() {
        for timer_at in [1_030u64, 1_500, 2_040] {
            let mut q: EventQueue<u64> = EventQueue::new();
            q.schedule(SimTime::from_nanos(10), 0);
            // 500 events across bucket 1 (1024..2047 ns), two per tick.
            for i in 0..500u64 {
                q.schedule(SimTime::from_nanos(1_024 + 2 * i), 1 + i);
            }
            let tok = q.schedule_timer(SimTime::from_nanos(timer_at), u64::MAX);
            let keep = q.schedule_timer(SimTime::from_nanos(timer_at), u64::MAX - 1);
            assert_eq!(q.pop().unwrap().1, 0);
            // Popping the bucket's first event drains both timers into
            // the batch (counted as fired on delivery).
            assert_eq!(q.pop().unwrap().1, 1);
            assert_eq!(q.perf().timers_fired, 2);
            assert_eq!(q.current.len(), 501);
            assert!(q.cancel_timer(tok));
            assert!(!q.cancel_timer(tok), "second cancel is stale");
            assert_eq!(q.len(), 500);
            let p = q.perf();
            assert_eq!((p.timers_fired, p.timers_cancelled), (1, 1));
            // The batch keeps its order and only the cancelled entry is gone.
            let mut rest = Vec::new();
            let mut last = SimTime::ZERO;
            while let Some((t, e)) = q.pop() {
                assert!(t >= last);
                last = t;
                rest.push(e);
            }
            let events: Vec<u64> = rest.iter().copied().filter(|&e| e < u64::MAX - 1).collect();
            assert_eq!(events, (2..=500).collect::<Vec<_>>());
            assert_eq!(rest.iter().filter(|&&e| e == u64::MAX - 1).count(), 1);
            assert!(!rest.contains(&u64::MAX), "cancelled timer popped");
            assert_eq!(q.perf().timers_fired, 1);
            // Cancelling the survivor after it fired is stale.
            assert!(!q.cancel_timer(keep));
        }
    }

    #[test]
    fn timer_keeps_queue_alive_for_run_until_idle_loops() {
        let mut q: EventQueue<&str> = EventQueue::new();
        q.schedule_timer(SimTime::from_secs(2), "rto");
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(2)));
        assert_eq!(q.pop().map(|(_, e)| e), Some("rto"));
    }

    // ── refill order ──────────────────────────────────────────────────

    /// Whatever order one lane bucket (1024..2047 ns) is filled in —
    /// ascending, two interleaved ascending runs, a same-tick burst,
    /// descending, scrambled — it pops in `(time, insertion)` order.
    #[test]
    fn lane_refill_orders_any_insertion_shape() {
        let shapes: [(&str, Vec<u64>); 5] = [
            ("ascending", vec![1100, 1200, 1300]),
            ("two runs", vec![1100, 1200, 1300, 1150, 1250, 1350]),
            ("same-tick burst", vec![2000; 300]),
            ("descending", vec![1300, 1200, 1100]),
            ("scrambled", vec![1300, 1100, 1200, 1050, 1250]),
        ];
        for (shape, times) in shapes {
            let mut q = EventQueue::new();
            for (i, &t) in times.iter().enumerate() {
                q.schedule(SimTime::from_nanos(t), i);
            }
            let popped: Vec<(u64, usize)> =
                std::iter::from_fn(|| q.pop().map(|(t, i)| (t.as_nanos(), i))).collect();
            let mut want: Vec<(u64, usize)> = times.iter().copied().zip(0..).collect();
            want.sort_unstable();
            assert_eq!(popped, want, "{shape}");
        }
    }

    proptest! {
        /// Whatever mix of times goes in, pops come out in nondecreasing
        /// time order and FIFO within equal times.
        #[test]
        fn prop_total_order(times in proptest::collection::vec(0u64..1_000, 1..200)) {
            let mut q = EventQueue::new();
            for (i, &t) in times.iter().enumerate() {
                q.schedule(SimTime::from_nanos(t), i);
            }
            let mut last_time = SimTime::ZERO;
            let mut last_seq_at_time: Option<usize> = None;
            while let Some((t, idx)) = q.pop() {
                prop_assert!(t >= last_time);
                if t == last_time {
                    if let Some(prev) = last_seq_at_time {
                        prop_assert!(idx > prev, "FIFO violated at equal time");
                    }
                } else {
                    last_time = t;
                }
                last_seq_at_time = Some(idx);
            }
        }

        /// Every scheduled event is eventually popped exactly once.
        #[test]
        fn prop_no_loss_no_duplication(times in proptest::collection::vec(0u64..100, 1..300)) {
            let mut q = EventQueue::new();
            for (i, &t) in times.iter().enumerate() {
                q.schedule(SimTime::from_nanos(t), i);
            }
            let mut seen = vec![false; times.len()];
            while let Some((_, idx)) = q.pop() {
                prop_assert!(!seen[idx], "duplicate pop");
                seen[idx] = true;
            }
            prop_assert!(seen.iter().all(|&s| s));
        }

        /// Same properties at calendar scale: times spanning several lane
        /// widths, the full ring, and the heap horizon, with interleaved
        /// pops.
        #[test]
        fn prop_total_order_across_horizons(
            times in proptest::collection::vec(0u64..3_000_000_000, 1..300),
            pop_every in 2usize..6,
        ) {
            let mut q = EventQueue::new();
            let mut popped: Vec<(u64, usize)> = Vec::new();
            for (i, &t) in times.iter().enumerate() {
                // Never schedule into the past relative to `now`.
                let at = t.max(q.now().as_nanos());
                q.schedule(SimTime::from_nanos(at), i);
                if i % pop_every == 0 {
                    if let Some((pt, pi)) = q.pop() {
                        popped.push((pt.as_nanos(), pi));
                    }
                }
            }
            while let Some((pt, pi)) = q.pop() {
                popped.push((pt.as_nanos(), pi));
            }
            prop_assert_eq!(popped.len(), times.len());
            for w in popped.windows(2) {
                prop_assert!(w[0].0 <= w[1].0, "time went backwards");
            }
            let mut seen = vec![false; times.len()];
            for &(_, i) in &popped {
                prop_assert!(!seen[i]);
                seen[i] = true;
            }
        }

        /// Events, timer arms, cancels and re-arms interleaved: surviving
        /// entries pop in exactly the `(time, seq)` order of a naive
        /// sorted-list oracle that mirrors the sequence counter.
        #[test]
        fn prop_timers_and_events_match_oracle(
            ops in proptest::collection::vec((0u8..5, 0u64..3_000_000_000u64, 0usize..8), 1..200),
        ) {
            let mut q: EventQueue<u64> = EventQueue::new();
            // Oracle: (time_ns, seq) of every entry that should pop.
            let mut oracle: Vec<(u64, u64)> = Vec::new();
            // One re-armable timer slot per id, as transport uses them.
            let mut toks: [Option<(TimerToken, u64, u64)>; 8] = [None; 8];
            let mut seq = 0u64;
            for (op, raw_ns, id) in ops {
                let at = raw_ns.max(q.now().as_nanos());
                match op {
                    0 | 1 => {
                        q.schedule(SimTime::from_nanos(at), seq);
                        oracle.push((at, seq));
                        seq += 1;
                    }
                    2 => {
                        let tok = q.schedule_timer(SimTime::from_nanos(at), seq);
                        toks[id] = Some((tok, at, seq));
                        oracle.push((at, seq));
                        seq += 1;
                    }
                    3 => {
                        if let Some((tok, t, s)) = toks[id].take() {
                            if q.cancel_timer(tok) {
                                oracle.retain(|&e| e != (t, s));
                            }
                        }
                    }
                    _ => {
                        let prev = toks[id].take();
                        let before = q.perf().timers_stale_suppressed;
                        let tok = q.rearm_timer(prev.map(|p| p.0), SimTime::from_nanos(at), seq);
                        if q.perf().timers_stale_suppressed > before {
                            // The old timer was still live and got
                            // suppressed; mirror its removal.
                            if let Some((_, t, s)) = prev {
                                oracle.retain(|&e| e != (t, s));
                            }
                        }
                        toks[id] = Some((tok, at, seq));
                        oracle.push((at, seq));
                        seq += 1;
                    }
                }
                // Occasionally pop one to move `now` forward.
                if seq % 7 == 3 {
                    if let Some((t, e)) = q.pop() {
                        let mut want = oracle.clone();
                        want.sort_unstable();
                        prop_assert_eq!((t.as_nanos(), e), want[0]);
                        oracle.retain(|&x| x != want[0]);
                    }
                }
            }
            oracle.sort_unstable();
            let mut got: Vec<(u64, u64)> = Vec::new();
            while let Some((t, e)) = q.pop() {
                got.push((t.as_nanos(), e));
            }
            prop_assert_eq!(got, oracle);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(3))]
        /// Fig9-like density — a steady ~200 events per 1 µs bucket for
        /// over 3 000 buckets — against a plain binary heap: identical
        /// pop order through mid-drain inserts into the draining bucket,
        /// heap spills at two far distances and a mid-run `drain_entries`
        /// + re-schedule, while buffer capacity follows the occupied
        /// slots instead of growing on all `LANE_COUNT` lanes.
        #[test]
        fn prop_dense_buckets_match_heap_order_and_recycle_buffers(
            seed in any::<u64>(),
            spread_us in 20u64..60,
            drain_at in 100_000u64..500_000,
        ) {
            use std::cmp::Reverse;
            const PENDING: u64 = 200;
            const POPS: u64 = 3_300 * PENDING;
            let mut q: EventQueue<u64> = EventQueue::new();
            let mut heap: BinaryHeap<Reverse<(u64, u64)>> = BinaryHeap::new();
            let mut rng = crate::rng::Rng::seed_from_u64(seed);
            let mut seq = 0u64;
            // Steady state: every pop schedules one successor a uniform
            // 0..spread µs ahead (mean spread/2), so `PENDING * spread / 2`
            // events in flight put ~PENDING in every bucket. A sliver of
            // the successors land in the draining bucket (inbox) or past
            // the lane horizon (heap), a few ms and ~80 ms out.
            let delay = |rng: &mut crate::rng::Rng| -> u64 {
                let r = rng.f64();
                if r < 0.02 {
                    (rng.f64() * 300.0) as u64
                } else if r < 0.021 {
                    2_000_000 + (rng.f64() * 20_000_000.0) as u64
                } else if r < 0.0211 {
                    80_000_000 + (rng.f64() * 5_000_000.0) as u64
                } else {
                    (rng.f64() * (spread_us * 1_000) as f64) as u64
                }
            };
            for _ in 0..PENDING * spread_us / 2 {
                let at = delay(&mut rng);
                q.schedule(SimTime::from_nanos(at), seq);
                heap.push(Reverse((at, seq)));
                seq += 1;
            }
            let (mut peak_slots, mut peak_bucket) = (0usize, 0usize);
            let first_bucket = q.cursor;
            for n in 0..POPS {
                let Some(Reverse((at, key))) = heap.pop() else { break };
                let (t, e) = q.pop().expect("queue ran dry before the reference");
                prop_assert_eq!((t.as_nanos(), e), (at, key));
                peak_bucket = peak_bucket.max(q.current.len() + 1);
                let next = at + delay(&mut rng);
                q.schedule(SimTime::from_nanos(next), seq);
                heap.push(Reverse((next, seq)));
                seq += 1;
                peak_slots = peak_slots.max(q.occupied_slots());
                if n == drain_at {
                    // The shard-split primitive, mid-drain: everything
                    // comes out in order and goes back in under its key.
                    let all = q.drain_entries();
                    let mut want: Vec<(u64, u64)> = heap.iter().map(|r| r.0).collect();
                    want.sort_unstable();
                    prop_assert_eq!(
                        all.iter().map(|e| (e.0.as_nanos(), e.2)).collect::<Vec<_>>(),
                        want
                    );
                    prop_assert_eq!(q.occupied_slots(), 0);
                    for (t, k, e) in all {
                        q.schedule_tagged(t, k, e);
                    }
                }
            }
            prop_assert!(q.cursor - first_bucket >= 3_000, "run too short");
            prop_assert!(peak_bucket >= PENDING as usize, "buckets too sparse");
            prop_assert!(q.perf().heap_spills > 0, "no event reached the heap tier");
            // `Vec` growth doubles, so a buffer holds at most twice the
            // largest bucket it ever carried; a handful of buffers beyond
            // the occupied slots are in flight (the batch, the pool).
            let bound = (peak_slots + 4) * 2 * peak_bucket;
            let retained = q.retained_capacity();
            prop_assert!(
                retained <= bound,
                "retained {retained} entries > ({peak_slots} slots + 4) * 2 * {peak_bucket}"
            );
            prop_assert!(
                retained < LANE_COUNT * peak_bucket / 4,
                "retained {retained} entries scales with LANE_COUNT ({peak_slots} slots peak)"
            );
            // And the tail drains in order too.
            while let Some(Reverse((at, key))) = heap.pop() {
                let (t, e) = q.pop().expect("queue ran dry before the reference");
                prop_assert_eq!((t.as_nanos(), e), (at, key));
            }
            prop_assert!(q.pop().is_none());
        }
    }
}
