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
//! # Implementation: calendar lanes in front of a timer wheel
//!
//! Almost every event a packet simulator schedules lands a few link-delays
//! into the future (serialization ≈ 1.2 µs, propagation 1–5 µs). The only
//! things that reach further out are cancellable deadlines (RTOs, delayed
//! ACKs), which live on the timer wheel, and flow arrivals, which the
//! network keeps in a sorted list of its own and merges with the queue
//! through [`EventQueue::pop_keyed_before`]. The queue exploits that skew
//! with a calendar-queue front end:
//!
//! - the near future (`LANE_COUNT` buckets of `1 << LANE_BITS` ns each,
//!   ≈ 1 ms of horizon) is a ring of *lanes*; scheduling into it is an
//!   O(1) `Vec::push`, and an occupancy bitmap finds the next non-empty
//!   lane with a couple of word scans;
//! - an event beyond that horizon waits on the timer wheel as a far
//!   entry, a timer without a token (counted as
//!   [`QueuePerf::heap_spills`]);
//! - the lane whose bucket is being drained (the *current* batch) is
//!   sorted once, descending, when it becomes the batch, so popping the
//!   earliest event is a `Vec::pop`. When the batch empties, the next
//!   bucket is chosen as the earlier of the next occupied lane and the
//!   wheel; wheel entries due in that bucket join the batch before the
//!   sort. A capped refill
//!   ([`EventQueue::pop_keyed_before`]) stops at the caller's next
//!   out-of-queue item: when nothing queued is due by its bucket, the
//!   cursor moves there instead, so what the item schedules lands in the
//!   lanes.
//!
//! # Keys in the lanes, payloads in one slab
//!
//! A lane, the batch, the inbox and the wheel never hold an event
//! itself. Every event and armed timer is parked once in a slab cell when
//! it is scheduled and taken out once when it pops or is cancelled; what
//! gets pushed, sorted and recycled is a 16-byte key, `offset | tag |
//! cell` (the event's offset inside its bucket, its 64-bit tie-break tag,
//! its slab cell), and a wheel entry holds the cell. The lane or the
//! cursor implies the bucket, so within a bucket key order *is* `(time,
//! tag)` order and the sort needs no second pass for ties.
//!
//! # Buffers follow occupancy
//!
//! A lane owns a key buffer only while it holds events. The buffer of a
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
//! The slab reuses its most recently freed cell first, so it is as long
//! as the most events ever parked at once, never longer.
//!
//! Recycling only changes *which allocation* a slot's keys or an event
//! sit in, never their order.
//!
//! The observable order is exactly the `(time, seq)` total order of the
//! plain-heap implementation — the `strict-invariants` feature rechecks it
//! on every pop — and the unit + property tests below drive lane
//! boundaries, cursor wraparound and the far tier explicitly.

// Hot path (per packet or per event): a panic aborts a whole figure run.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable
)]

use crate::time::SimTime;
use crate::wheel::{Cancelled, TimerToken, TimerWheel};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// log2 of the lane width in nanoseconds (1024 ns per lane). Shared with
/// the timer wheel, whose level-0 slots are exactly one lane wide.
pub(crate) const LANE_BITS: u32 = 10;
/// Number of near-future lanes (must be a power of two).
const LANE_COUNT: usize = 1024;
const LANE_MASK: u64 = LANE_COUNT as u64 - 1;
/// Words in the lane-occupancy bitmap.
const WORDS: usize = LANE_COUNT / 64;
/// Bits of a batch key below the tag: the slab cell.
const CELL_BITS: u32 = 32;
/// Position of the bucket offset in a batch key, above the 64-bit tag.
const OFFSET_SHIFT: u32 = 64 + CELL_BITS;
// A batch key holds a bucket offset, a whole tag and a slab cell.
const _: () = assert!(LANE_BITS + 64 + CELL_BITS <= 128);

/// [`EventQueue::refill`]'s cap when the caller has no out-of-queue item.
const NO_CAP: u64 = u64::MAX;

/// Absolute calendar bucket of a timestamp.
#[inline]
fn bucket(t: SimTime) -> u64 {
    t.as_nanos() >> LANE_BITS
}

/// Batch key of an event at `at` with tag `tag`, parked in slab `cell`.
#[inline]
fn key(at: SimTime, tag: u64, cell: u32) -> u128 {
    let offset = at.as_nanos() & ((1 << LANE_BITS) - 1);
    (u128::from(offset) << OFFSET_SHIFT) | (u128::from(tag) << CELL_BITS) | u128::from(cell)
}

/// `(time, tag, cell)` of key `k` in bucket `b`.
#[inline]
fn unkey(b: u64, k: u128) -> (SimTime, u64, u32) {
    let time = SimTime::from_nanos((b << LANE_BITS) | (k >> OFFSET_SHIFT) as u64);
    (time, (k >> CELL_BITS) as u64, k as u32)
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
    /// Events scheduled beyond the 1 ms lane horizon, which wait on the
    /// timer wheel as far entries.
    pub heap_spills: u64,
}

/// A buffer of batch keys (see [`key`]): one bucket's events, in a lane,
/// the drain batch or the recycle pool.
type Batch = Vec<u128>;

/// The most recently recycled buffer, or a fresh unallocated one.
#[inline]
fn take_buf(pool: &mut Vec<Batch>) -> Batch {
    pool.pop().unwrap_or_default()
}

/// Return an emptied buffer to the pool (unallocated ones are dropped).
#[inline]
fn recycle(pool: &mut Vec<Batch>, buf: Batch) {
    debug_assert!(buf.is_empty(), "recycling a buffer that still holds keys");
    if buf.capacity() > 0 {
        pool.push(buf);
    }
}

/// The payloads of every pending event and armed timer.
struct Slab<E> {
    cells: Vec<Option<E>>,
    /// Vacant cells, most recently freed last.
    free: Vec<u32>,
}

impl<E> Slab<E> {
    /// Park `event` in the most recently freed cell (or a new one).
    #[inline]
    fn park(&mut self, event: E) -> u32 {
        if let Some(cell) = self.free.pop() {
            if let Some(slot) = self.cells.get_mut(cell as usize) {
                *slot = Some(event);
            }
            return cell;
        }
        crate::invariant!(self.cells.len() < u32::MAX as usize, "slab cells exhausted");
        self.cells.push(Some(event));
        (self.cells.len() - 1) as u32
    }

    /// Take the event out of `cell`, freeing the cell.
    #[inline]
    fn take(&mut self, cell: u32) -> Option<E> {
        let event = self.cells.get_mut(cell as usize)?.take()?;
        self.free.push(cell);
        Some(event)
    }

    fn clear(&mut self) {
        self.cells.clear();
        self.free.clear();
    }
}

/// A time-ordered event queue with FIFO tie-breaking.
pub struct EventQueue<E> {
    /// Keys of the bucket currently being drained (`cursor`), sorted
    /// **descending** so the earliest is at the back.
    current: Batch,
    /// Events scheduled *into* the draining bucket mid-drain (the ACK
    /// turnaround pattern: a sub-lane tx-done lands in the same bucket),
    /// as `(time, tag, cell)`. A sorted-`Vec::insert` into `current` would
    /// memmove O(batch) per arrival, so these overlay entries live in a
    /// small min-heap instead; [`pop`] takes whichever of
    /// `current.last()` / `inbox.peek()` is earlier, preserving the exact
    /// `(time, seq)` total order. Times are whole, not bucket offsets:
    /// a peek can move the cursor past `now`, and an event then scheduled
    /// at `now` lands here from an earlier bucket.
    ///
    /// [`pop`]: EventQueue::pop
    inbox: BinaryHeap<Reverse<(SimTime, u64, u32)>>,
    /// Absolute bucket index `current` belongs to. All pending lane
    /// entries have strictly greater buckets; so do all wheel entries
    /// whenever `current` is non-empty.
    cursor: u64,
    /// Near-future ring: slot `b & LANE_MASK` holds bucket `b`'s keys,
    /// unsorted, for buckets within `(cursor, cursor + LANE_COUNT)`. A
    /// slot has zero capacity whenever it is empty (see "Buffers follow
    /// occupancy" in the module docs).
    lanes: Vec<Batch>,
    /// One bit per lane slot: slot non-empty.
    occupied: [u64; WORDS],
    /// Total entries across all lanes (excluding `current`).
    lanes_len: usize,
    /// Cancellable timers (see [`EventQueue::rearm_timer`]) and events
    /// beyond the lane horizon at scheduling time (each counted as a
    /// [`QueuePerf::heap_spills`]). Timers share the global sequence
    /// counter, so they replay in exactly the `(time, seq)` order a plain
    /// `schedule` would have given them.
    wheel: TimerWheel,
    /// Payloads behind the keys of `current`, the inbox and the lanes, and
    /// behind the wheel's entries.
    slab: Slab<E>,
    /// Emptied buffers awaiting reuse, most recently freed last.
    pool: Vec<Batch>,
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
            wheel: TimerWheel::new(),
            slab: Slab {
                cells: Vec::new(),
                free: Vec::new(),
            },
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
            // The bucket being drained, or (after a peek moved the cursor
            // past `now`) an earlier one: overlay heap, merged with the
            // sorted batch at pop time.
            let cell = self.slab.park(event);
            self.inbox.push(Reverse((at, seq, cell)));
        } else if b - self.cursor < LANE_COUNT as u64 {
            self.insert_lane(b, at, seq, event);
        } else {
            let cell = self.slab.park(event);
            self.wheel.arm_far(at, seq, cell);
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

    /// Park an event and push its key into its lane, maintaining the
    /// occupancy bit. Caller guarantees `cursor < b < cursor + LANE_COUNT`
    /// and owns `len`/perf attribution.
    #[inline]
    fn insert_lane(&mut self, b: u64, at: SimTime, seq: u64, event: E) {
        let cell = self.slab.park(event);
        let slot = (b & LANE_MASK) as usize;
        let lane = &mut self.lanes[slot];
        if lane.is_empty() {
            self.occupied[slot >> 6] |= 1u64 << (slot & 63);
            *lane = take_buf(&mut self.pool);
        }
        lane.push(key(at, seq, cell));
        self.lanes_len += 1;
    }

    /// Arm a cancellable timer firing `event` at `at`, returning a handle
    /// for [`cancel_timer`]/[`rearm_timer`]. The timer behind `tok` (if
    /// any is still live) is first removed without ever reaching the pop
    /// path: cancel-and-re-arm in one step, the per-ACK RTO pattern.
    /// `tok = None` arms a fresh timer.
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
    pub fn rearm_timer(&mut self, tok: Option<TimerToken>, at: SimTime, event: E) -> TimerToken {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.rearm_timer_tagged(tok, at, seq, event)
    }

    /// [`rearm_timer`] with a **caller-supplied** tie-break key — the
    /// timer counterpart of [`schedule_tagged`], with the same key
    /// discipline.
    ///
    /// [`rearm_timer`]: EventQueue::rearm_timer
    /// [`schedule_tagged`]: EventQueue::schedule_tagged
    ///
    /// # Panics
    /// Debug-panics when arming into the past; the engine never rewinds.
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
            let cell = self.slab.park(event);
            self.inbox.push(Reverse((at, seq, cell)));
            // Counted as fired on delivery to the pop path (mirroring the
            // refill drain); a cancel that catches it first decrements.
            self.perf.timers_fired += 1;
            self.wheel.arm_external(at, seq)
        } else {
            let cell = self.slab.park(event);
            self.wheel.arm(at, seq, cell)
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

    /// Remove a live timer (wheel-resident or already in the drain batch)
    /// without perf attribution; `false` on a stale token.
    fn take_live(&mut self, tok: TimerToken) -> bool {
        match self.wheel.cancel(tok) {
            Cancelled::Stale => false,
            Cancelled::Live(cell) => {
                self.slab.take(cell);
                self.len -= 1;
                true
            }
            Cancelled::External(t, s) => {
                // The timer's payload was already delivered to the pop
                // path (armed into the draining batch, or drained from
                // the wheel by an eager refill — the sharded engine's
                // barrier peeks do this routinely). If it is still there
                // (sorted batch or inbox overlay), remove it, free its
                // cell and undo the delivery-time fired count; otherwise
                // it already popped and the cancel is stale.
                let Some(cell) = self.unbatch(t, s) else {
                    return false;
                };
                self.slab.take(cell);
                self.len -= 1;
                self.perf.timers_fired -= 1;
                true
            }
        }
    }

    /// Remove the batch or inbox entry of `(t, s)`, returning its cell.
    fn unbatch(&mut self, t: SimTime, s: u64) -> Option<u32> {
        if bucket(t) == self.cursor {
            // The batch is sorted descending, so a binary search finds
            // the key and the order-preserving `remove` shifts only what
            // is due before it — little for a soon-due timer, however
            // large the bucket.
            let want = key(t, s, 0) >> CELL_BITS;
            if let Ok(pos) = self
                .current
                .binary_search_by(|&k| want.cmp(&(k >> CELL_BITS)))
            {
                return Some(self.current.remove(pos) as u32);
            }
        }
        let mut entries = std::mem::take(&mut self.inbox).into_vec();
        let cell = entries
            .iter()
            .position(|&Reverse((et, es, _))| (et, es) == (t, s))
            .map(|i| entries.swap_remove(i).0 .2);
        self.inbox = entries.into();
        cell
    }

    /// Absolute bucket that lane `slot` holds: the one in
    /// `(cursor, cursor + LANE_COUNT)` congruent to it.
    #[inline]
    fn slot_bucket(&self, slot: usize) -> u64 {
        let first = self.cursor + 1;
        first + ((slot as u64).wrapping_sub(first) & LANE_MASK)
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
        Some(self.slot_bucket(slot))
    }

    /// Refill `current` with the earliest pending bucket's events (a lane
    /// and/or the timer wheel), advancing the cursor — but never past
    /// bucket `cap` ([`NO_CAP`]: no limit). When nothing queued is due by
    /// `cap`, the caller's out-of-queue item is next: the cursor and the
    /// wheel's base move to `cap`, as a refill would move them if that item
    /// were queued, so what it schedules lands in the lanes. Kept out of
    /// line: [`head`](EventQueue::head) is its only caller and runs on
    /// every pop, so inlining this once-a-bucket body there would put its
    /// stack frame on every pop.
    #[inline(never)]
    fn refill(&mut self, cap: u64) {
        let near = self.next_occupied_bucket();
        // The wheel's exact minimum can require walking a higher-level
        // slot's entry list, so first rule it out with the bitmap-only
        // lower bound; the exact scan only runs when a wheel entry might
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
        let Some((b, wheel_due)) = resolved.filter(|&(b, _)| b <= cap) else {
            if cap != NO_CAP && cap > self.cursor {
                // Sound: every pending bucket is past `cap`.
                self.cursor = cap;
                self.wheel.advance_to(cap);
            }
            return;
        };
        self.cursor = b;
        if near == Some(b) {
            let slot = (b & LANE_MASK) as usize;
            // The lane's buffer becomes the batch; the drained batch's
            // goes to the pool rather than being parked in this slot.
            let lane = std::mem::take(&mut self.lanes[slot]);
            let drained = std::mem::replace(&mut self.current, lane);
            recycle(&mut self.pool, drained);
            self.occupied[slot >> 6] &= !(1u64 << (slot & 63));
            self.lanes_len -= self.current.len();
        }
        // Keep the wheel's base glued to the cursor (sound: `b` is the
        // global minimum pending bucket), then key its due entries where
        // they are parked.
        self.wheel.advance_to(b);
        if wheel_due {
            let current = &mut self.current;
            let fired = self
                .wheel
                .drain_bucket(b, |time, seq, cell| current.push(key(time, seq, cell)));
            self.perf.timers_fired += fired as u64;
        }
        // Descending, so the earliest key pops from the back.
        self.current.sort_unstable_by(|a, b| b.cmp(a));
    }

    /// `(time, tag)` of the next event, when it is below `limit`, and
    /// whether it waits in the inbox. When the batch and the inbox are
    /// empty, refills the batch first from no bucket past `limit`'s.
    #[inline]
    fn head(&mut self, limit: Option<(SimTime, u64)>) -> Option<(SimTime, u64, bool)> {
        if self.current.is_empty() && self.inbox.is_empty() {
            match limit {
                None if self.len == 0 => return None,
                None => self.refill(NO_CAP),
                Some((t, _)) => self.refill(bucket(t)),
            }
        }
        let batch = self.current.last().map(|&k| unkey(self.cursor, k));
        // Tags are unique, so the comparison is never a tie.
        let head = match (batch, self.inbox.peek()) {
            (Some((t, s, _)), Some(&Reverse((it, is, _)))) if (it, is) < (t, s) => {
                Some((it, is, true))
            }
            (Some((t, s, _)), _) => Some((t, s, false)),
            (None, Some(&Reverse((it, is, _)))) => Some((it, is, true)),
            (None, None) => None,
        };
        head.filter(|&(t, s, _)| limit.is_none_or(|l| (t, s) < l))
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
        self.pop_keyed_before(None)
    }

    /// [`pop_keyed`], but only an event whose `(time, key)` is below
    /// `limit`: the key of the caller's next out-of-queue item (the
    /// network's next flow arrival or fault), which the two merge by.
    /// `None` when nothing queued sorts before it — the caller then
    /// applies its own item, and the queue has moved its cursor up to
    /// that item's bucket if nothing else was due by then (see the module
    /// docs), so what the item schedules lands in the lanes, not the far
    /// tier. `limit = None` is [`pop_keyed`].
    ///
    /// [`pop_keyed`]: EventQueue::pop_keyed
    pub fn pop_keyed_before(&mut self, limit: Option<(SimTime, u64)>) -> Option<(SimTime, u64, E)> {
        let (time, seq, in_inbox) = self.head(limit)?;
        let cell = if in_inbox {
            self.inbox.pop()?.0 .2
        } else {
            self.current.pop()? as u32
        };
        let event = self.slab.take(cell)?;
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

    /// `(time, key)` of the next event without popping it — the ordering
    /// key the next [`pop`] will honour.
    ///
    /// Takes `&mut self` because peeking past an exhausted batch refills
    /// from the earliest pending bucket — the same work the next `pop`
    /// would do, just done early (the observable pop order is unchanged).
    ///
    /// [`pop`]: EventQueue::pop
    pub fn peek_key(&mut self) -> Option<(SimTime, u64)> {
        self.peek_key_before(None)
    }

    /// [`peek_key`], but only a key below `limit`, refilling no further
    /// than [`pop_keyed_before`] with the same `limit` would: the key the
    /// next such pop returns, or `None` when the caller's own item is next.
    ///
    /// [`peek_key`]: EventQueue::peek_key
    /// [`pop_keyed_before`]: EventQueue::pop_keyed_before
    pub fn peek_key_before(&mut self, limit: Option<(SimTime, u64)>) -> Option<(SimTime, u64)> {
        self.head(limit).map(|(time, seq, _)| (time, seq))
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
        let mut parked: Vec<(SimTime, u64, u32)> = Vec::with_capacity(self.len);
        parked.extend(self.current.drain(..).map(|k| unkey(self.cursor, k)));
        parked.extend(std::mem::take(&mut self.inbox).into_iter().map(|r| r.0));
        if self.lanes_len > 0 {
            for slot in 0..LANE_COUNT {
                let b = self.slot_bucket(slot);
                parked.extend(
                    std::mem::take(&mut self.lanes[slot])
                        .into_iter()
                        .map(|k| unkey(b, k)),
                );
            }
        }
        self.wheel.drain_far(|t, s, cell| parked.push((t, s, cell)));
        let mut out: Vec<(SimTime, u64, E)> = parked
            .into_iter()
            .filter_map(|(t, s, cell)| Some((t, s, self.slab.take(cell)?)))
            .collect();
        assert!(
            out.len() == self.len,
            "drain_entries with {} armed timer(s): timers cannot migrate across shards",
            self.len - out.len()
        );
        self.slab.clear();
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
        if self.lanes_len > 0 {
            for lane in &mut self.lanes {
                *lane = Batch::new();
            }
        }
        self.slab.clear();
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

    /// Events parked in the slab right now.
    #[cfg(test)]
    fn parked(&self) -> usize {
        self.slab.cells.len() - self.slab.free.len()
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
        // Across buckets too: a far entry on the wheel with a small key.
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
        // One in each region: near lane, current bucket, far (wheel).
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
        assert_eq!(
            (q.wheel.live(), q.parked()),
            (0, 0),
            "the far entry left the wheel"
        );
        assert_eq!(q.pop(), None);
        // The queue is reusable after a drain.
        q.schedule_tagged(SimTime::from_millis(901), 5, "again");
        assert_eq!(q.pop().unwrap().1, "again");
    }

    #[test]
    #[should_panic(expected = "armed timer")]
    fn drain_entries_rejects_armed_timers() {
        let mut q = EventQueue::new();
        q.rearm_timer(None, SimTime::from_micros(10), ());
        let _ = q.drain_entries();
    }

    /// A far entry next to an armed timer on the same wheel does not hide
    /// the timer: the drain still refuses.
    #[test]
    #[should_panic(expected = "1 armed timer")]
    fn drain_entries_rejects_a_timer_beside_far_entries() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(50), ());
        q.rearm_timer(None, SimTime::from_millis(50), ());
        q.schedule(SimTime::from_secs(200), ());
        let _ = q.drain_entries();
    }

    #[test]
    fn tagged_timer_rearm_suppresses_the_old_arm() {
        let mut q = EventQueue::new();
        let tok = q.rearm_timer_tagged(None, SimTime::from_micros(5), 11, "old");
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
        // One near (lane), one at the current bucket, one far (wheel).
        q.schedule(SimTime::from_nanos(5_000), ());
        q.schedule(SimTime::from_millis(50), ());
        assert_eq!(q.len(), 4);
        q.clear();
        assert!(q.is_empty());
        assert_eq!((q.wheel.live(), q.parked()), (0, 0));
        assert!(q.pop().is_none());
        assert_eq!(q.peek_key().map(|k| k.0), None);
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
        assert_eq!(q.peek_key().map(|k| k.0), Some(SimTime::from_nanos(4)));
        let (t, _) = q.pop().unwrap();
        assert_eq!(t, SimTime::from_nanos(4));
        assert_eq!(q.peek_key().map(|k| k.0), None);
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
        // not-yet-advanced cursor only via the wheel, then pop interleaved.
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

    /// Events beyond the lane horizon wait on the wheel, are counted as
    /// spills, and merge back in time order when the cursor reaches them.
    #[test]
    fn far_tier_beyond_horizon() {
        let mut q = EventQueue::new();
        let horizon = (1u64 << LANE_BITS) * LANE_COUNT as u64;
        // Far events first (wheel), then near events (lanes).
        q.schedule(SimTime::from_nanos(3 * horizon), "far2");
        q.schedule(SimTime::from_nanos(2 * horizon + 5), "far1");
        q.schedule(SimTime::from_nanos(100), "near1");
        q.schedule(SimTime::from_nanos(horizon - 1), "near2");
        assert_eq!(q.perf().heap_spills, 2);
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!["near1", "near2", "far1", "far2"]);
    }

    /// A far event and a lane event in the *same* bucket (possible when
    /// the far event was scheduled before the cursor advanced) interleave
    /// correctly, including FIFO on exact ties.
    #[test]
    fn far_and_lane_merge_within_bucket() {
        let mut q = EventQueue::new();
        let horizon = (1u64 << LANE_BITS) * LANE_COUNT as u64;
        let far = 2 * horizon + 500;
        q.schedule(SimTime::from_nanos(far), "far-first"); // beyond horizon ⇒ wheel
        q.schedule(SimTime::from_nanos(10), "near");
        q.pop(); // "near": cursor at bucket 0 still, far event pending
                 // Move the cursor to within a horizon of the far bucket through an
                 // intermediate (also far) event, then add lane events in the same
                 // bucket as the far one.
        q.schedule(SimTime::from_nanos(horizon + 1024), "mid");
        q.pop(); // "mid": cursor advanced; `far` now within lane horizon
        q.schedule(SimTime::from_nanos(far), "lane-second"); // same time, later seq
        q.schedule(SimTime::from_nanos(far - 1), "lane-earlier");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!["lane-earlier", "far-first", "lane-second"]);
        assert_eq!(q.perf().heap_spills, 2, "the lane events spilled");
    }

    /// A far event that pops is no fired timer, and it leaves nothing
    /// behind: its wheel entry and its slab cell are free again (a timer
    /// keeps a marker until its owner releases it).
    #[test]
    fn far_event_pops_without_firing_a_timer() {
        for far in [
            SimTime::from_millis(50), // wheel level 1
            SimTime::from_secs(20),   // level 2
            SimTime::from_secs(200),  // past level 2: the overflow list
        ] {
            let mut q = EventQueue::new();
            q.schedule(far, "far");
            assert_eq!((q.wheel.live(), q.parked()), (1, 1));
            assert_eq!(q.pop(), Some((far, "far")));
            let p = q.perf();
            assert_eq!((p.heap_spills, p.timers_fired, p.popped), (1, 0, 1));
            assert_eq!((q.wheel.live(), q.parked()), (0, 0), "{far}");
            // A timer on the same path keeps its marker once it pops.
            let later = SimTime::from_nanos(2 * far.as_nanos());
            let tok = q.rearm_timer(None, later, "timer");
            assert_eq!(q.pop(), Some((later, "timer")));
            assert_eq!((q.perf().timers_fired, q.wheel.live()), (1, 1));
            q.timer_fired(tok);
            assert_eq!((q.wheel.live(), q.parked()), (0, 0));
        }
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
        q.rearm_timer(None, SimTime::from_micros(5), "timer-5us");
        q.schedule(SimTime::from_micros(1), "event-1us");
        q.rearm_timer(None, SimTime::from_millis(20), "timer-20ms");
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
        let tok = q.rearm_timer(None, SimTime::from_millis(10), "rto");
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
        let tok = q.rearm_timer(None, SimTime::from_nanos(500), "deadline");
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
        let tok = q.rearm_timer(None, SimTime::from_nanos(500), "t");
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
            let tok = q.rearm_timer(None, SimTime::from_nanos(timer_at), u64::MAX);
            let keep = q.rearm_timer(None, SimTime::from_nanos(timer_at), u64::MAX - 1);
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
        q.rearm_timer(None, SimTime::from_secs(2), "rto");
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
        assert_eq!(q.peek_key().map(|k| k.0), Some(SimTime::from_secs(2)));
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
        /// widths, the full ring, and the wheel's far tier, with interleaved
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
                        let tok = q.rearm_timer(None, SimTime::from_nanos(at), seq);
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
        /// far events on every wheel level past the lane horizon and on
        /// its overflow list, a mid-run `drain_entries`
        /// + re-schedule, and a sorted stream of external keys (flow
        /// arrivals, in the dense stretch and across the sparse tail's
        /// quiet gaps) merged in through `pop_keyed_before`, while buffer
        /// capacity follows the occupied slots instead of growing on all
        /// `LANE_COUNT` lanes.
        #[test]
        fn prop_dense_buckets_match_heap_order_and_recycle_buffers(
            seed in any::<u64>(),
            spread_us in 20u64..60,
            drain_at in 100_000u64..500_000,
        ) {
            use std::cmp::Reverse;
            const PENDING: u64 = 200;
            const POPS: u64 = 3_300 * PENDING;
            /// The wheel's three levels span 2^27 buckets.
            const LEVEL2_SPAN: u64 = 1 << (27 + LANE_BITS);
            let mut q: EventQueue<u64> = EventQueue::new();
            let mut heap: BinaryHeap<Reverse<(u64, u64)>> = BinaryHeap::new();
            let mut rng = crate::rng::Rng::seed_from_u64(seed);
            let mut seq = 0u64;
            // Steady state: every pop schedules one successor a uniform
            // 0..spread µs ahead (mean spread/2), so `PENDING * spread / 2`
            // events in flight put ~PENDING in every bucket. A sliver of
            // the successors land in the draining bucket (inbox) or past
            // the lane horizon on the wheel: a few ms and ~80 ms out
            // (level 1), 1–100 s out (level 2), and past its 137 s span
            // (the overflow list).
            let delay = |rng: &mut crate::rng::Rng| -> u64 {
                let r = rng.f64();
                if r < 0.02 {
                    (rng.f64() * 300.0) as u64
                } else if r < 0.021 {
                    2_000_000 + (rng.f64() * 20_000_000.0) as u64
                } else if r < 0.0211 {
                    80_000_000 + (rng.f64() * 5_000_000.0) as u64
                } else if r < 0.0213 {
                    1_000_000_000 + (rng.f64() * 99e9) as u64
                } else if r < 0.0215 {
                    LEVEL2_SPAN + (rng.f64() * 60e9) as u64
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
            // External keys, tagged above every queue key: half inside the
            // dense stretch, half out to 30 ms.
            let mut ext: Vec<(u64, u64)> = (0..400u64)
                .map(|j| {
                    let span = if j % 2 == 0 { 3_500_000.0 } else { 30_000_000.0 };
                    ((rng.f64() * span) as u64, (1 << 63) | j)
                })
                .collect();
            ext.sort_unstable();
            heap.extend(ext.iter().map(|&k| Reverse(k)));
            let mut next_ext = 0;
            let (mut peak_slots, mut peak_bucket) = (0usize, 0usize);
            let first_bucket = q.cursor;
            for n in 0..POPS {
                let Some(Reverse((at, key))) = heap.pop() else { break };
                let got = merged_pop(&mut q, &ext, &mut next_ext);
                prop_assert_eq!(got, Some((at, key)));
                peak_bucket = peak_bucket.max(q.current.len() + 1);
                let next = at + delay(&mut rng);
                q.schedule(SimTime::from_nanos(next), seq);
                heap.push(Reverse((next, seq)));
                seq += 1;
                peak_slots = peak_slots.max(q.occupied_slots());
                if n == drain_at {
                    // The shard-split primitive, mid-drain: every queued
                    // event comes out in order and goes back in under its
                    // key; the external keys stay where they are.
                    let all = q.drain_entries();
                    let mut want: Vec<(u64, u64)> =
                        heap.iter().map(|r| r.0).filter(|&(_, k)| k < 1 << 63).collect();
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
            let far_at = |lo: u64, hi: u64| heap.iter().filter(|r| (lo..hi).contains(&r.0 .0)).count();
            prop_assert!(far_at(1_000_000_000, LEVEL2_SPAN) > 0, "no event on wheel level 2");
            prop_assert!(far_at(LEVEL2_SPAN, u64::MAX) > 0, "no event past the wheel's levels");
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
                let got = merged_pop(&mut q, &ext, &mut next_ext);
                prop_assert_eq!(got, Some((at, key)));
            }
            prop_assert!(q.pop().is_none());
            prop_assert_eq!(next_ext, ext.len());
        }
    }

    /// The next `(time ns, key)` of `q` merged with the sorted external
    /// keys `ext[*next..]`, the way the network merges its arrival list:
    /// a queued event below the next external key pops, otherwise that
    /// key is taken and the clock moves to it.
    fn merged_pop(
        q: &mut EventQueue<u64>,
        ext: &[(u64, u64)],
        next: &mut usize,
    ) -> Option<(u64, u64)> {
        let limit = ext.get(*next).map(|&(t, k)| (SimTime::from_nanos(t), k));
        if let Some((t, k, e)) = q.pop_keyed_before(limit) {
            assert_eq!(e, k, "payload and key travel together");
            return Some((t.as_nanos(), k));
        }
        let (t, k) = *ext.get(*next)?;
        *next += 1;
        q.advance_now(SimTime::from_nanos(t));
        Some((t, k))
    }

    // ── keys and the slab ─────────────────────────────────────────────

    /// Pop everything, checking each `(time, tag, payload)` against a
    /// plain binary heap fed the same schedule.
    fn drain_against(
        q: &mut EventQueue<u64>,
        mut oracle: BinaryHeap<std::cmp::Reverse<(u64, u64, u64)>>,
    ) {
        while let Some(std::cmp::Reverse(want)) = oracle.pop() {
            let (t, k, e) = q.pop_keyed().expect("queue ran dry before the oracle");
            assert_eq!((t.as_nanos(), k, e), want);
        }
        assert!(q.pop().is_none());
        assert_eq!(q.parked(), 0);
    }

    /// The key's fields do not bleed into each other: both ends of a
    /// bucket's offset range, the extreme tags at one instant (in the
    /// lanes, the batch and the inbox), and more cells than 16 bits hold.
    #[test]
    fn key_packing_edges_match_heap_oracle() {
        use std::cmp::Reverse;
        const TAGS: [u64; 4] = [u64::MAX, 1 << 63, 1, 0];
        let mut q: EventQueue<u64> = EventQueue::new();
        let mut oracle = BinaryHeap::new();
        let mut id = 0u64;
        let mut push = |q: &mut EventQueue<u64>, oracle: &mut BinaryHeap<_>, at: u64, tag: u64| {
            q.schedule_tagged(SimTime::from_nanos(at), tag, id);
            oracle.push(Reverse((at, tag, id)));
            id += 1;
        };
        // Bucket 5, first and last nanosecond, tags at the extremes, in
        // scrambled order; bucket 6 holds a tag-0 event that must sort
        // after bucket 5's `u64::MAX` tag.
        for &at in &[5 * 1024 + 1023, 5 * 1024, 6 * 1024] {
            for &tag in &TAGS {
                push(&mut q, &mut oracle, at, tag);
            }
        }
        // More than 65 536 live cells, tags counting down from the top.
        for i in 0..70_000u64 {
            push(&mut q, &mut oracle, 7 * 1024 + i * 13, u64::MAX - 4 - i);
        }
        assert!(q.parked() > 65_536);
        // Pop into bucket 5, then schedule into it: the inbox's extreme
        // tags race the batch's at one instant.
        let Reverse(first) = oracle.pop().expect("scheduled above");
        let (t, k, e) = q.pop_keyed().expect("scheduled above");
        assert_eq!((t.as_nanos(), k, e), first);
        assert_eq!(t.as_nanos(), 5 * 1024);
        for &tag in &[2, (1 << 63) + 1, u64::MAX - 1] {
            push(&mut q, &mut oracle, 5 * 1024 + 1023, tag);
            push(&mut q, &mut oracle, 5 * 1024, tag);
        }
        assert!(!q.inbox.is_empty());
        drain_against(&mut q, oracle);
    }

    /// At a steady 8 000 pending over 1 M pops (a sliver into the
    /// draining bucket, a sliver past the horizon), the slab stays as
    /// long as the most events ever pending, and the pop order matches
    /// the heap. `clear` and `drain_entries` leave nothing parked.
    #[test]
    fn slab_follows_occupancy() {
        use std::cmp::Reverse;
        const PENDING: u64 = 8_000;
        let run = |q: &mut EventQueue<u64>, pops: u64| {
            let mut rng = crate::rng::Rng::seed_from_u64(0x51AB);
            let mut oracle = BinaryHeap::new();
            let delay = |rng: &mut crate::rng::Rng| match rng.below(64) {
                0..=3 => rng.below(500),
                4 => rng.range_u64(2_000_000, 3_000_000),
                _ => rng.range_u64(1_000, 40_000),
            };
            for id in 0..PENDING {
                let at = delay(&mut rng);
                q.schedule(SimTime::from_nanos(at), id);
                oracle.push(Reverse((at, id)));
            }
            for id in PENDING..PENDING + pops {
                let Reverse(want) = oracle.pop().expect("steady state");
                let (t, e) = q.pop().expect("steady state");
                assert_eq!((t.as_nanos(), e), want);
                let at = t.as_nanos() + delay(&mut rng);
                q.schedule(SimTime::from_nanos(at), id);
                oracle.push(Reverse((at, id)));
                assert!(q.slab.cells.len() as u64 <= q.perf().peak_pending);
            }
            // Every pending event, far ones too, holds exactly one cell.
            assert!(q.perf().heap_spills > 0 && q.slab.cells.len() as u64 == PENDING);
        };
        let mut q: EventQueue<u64> = EventQueue::new();
        run(&mut q, 1_000_000);
        // One slab: far events are parked like near ones.
        assert_eq!(q.parked() as u64, PENDING);
        q.clear();
        assert_eq!(q.parked(), 0);
        let mut q: EventQueue<u64> = EventQueue::new();
        run(&mut q, 50_000);
        assert_eq!(q.drain_entries().len() as u64, PENDING);
        assert_eq!(q.parked(), 0);
    }

    /// A cancel that catches a timer already drained into the batch, or
    /// already armed into the inbox, frees the timer's cell for the next
    /// event.
    #[test]
    fn cancelling_a_batched_timer_frees_its_cell() {
        let mut q: EventQueue<u64> = EventQueue::new();
        q.schedule(SimTime::from_nanos(10), 0);
        q.schedule(SimTime::from_nanos(1_100), 1);
        q.schedule(SimTime::from_nanos(1_900), 2);
        let in_batch = q.rearm_timer(None, SimTime::from_nanos(1_500), 3);
        assert_eq!(q.pop().map(|(_, e)| e), Some(0));
        // Bucket 0 is draining: this timer goes straight to the inbox.
        let in_inbox = q.rearm_timer(None, SimTime::from_nanos(500), 4);
        assert_eq!(q.inbox.len(), 1);
        assert!(q.cancel_timer(in_inbox));
        // Events 1 and 2, and the wheel timer's payload.
        assert_eq!((q.parked(), q.inbox.len()), (3, 0));
        // Popping into bucket 1 drains the wheel's timer into the batch.
        assert_eq!(q.pop().map(|(_, e)| e), Some(1));
        assert_eq!((q.parked(), q.current.len()), (2, 2));
        assert!(q.cancel_timer(in_batch));
        assert_eq!((q.parked(), q.current.len()), (1, 1));
        // The freed cells are reused before the slab grows.
        let cells = q.slab.cells.len();
        q.schedule(SimTime::from_nanos(1_950), 5);
        q.schedule(SimTime::from_nanos(2_000), 6);
        assert_eq!(q.slab.cells.len(), cells);
        let rest: Vec<u64> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(rest, vec![2, 5, 6]);
        assert_eq!(q.parked(), 0);
    }

    // ── out-of-queue items ────────────────────────────────────────────

    /// What an out-of-queue item (a flow arrival) schedules must land in a
    /// lane however far the queue's own next event is. After a quiet gap
    /// longer than the lane horizon, with a wheel timer armed behind the
    /// item, the capped pop leaves the timer in the wheel and moves the
    /// cursor to the item's bucket, so an event 10 µs past the item lands
    /// in a lane, not the far heap. With a lane event behind the item, the
    /// capped pop must not pull that lane into the batch either: a push
    /// between the two would then land in the inbox.
    #[test]
    fn capped_pop_glues_the_cursor_to_an_out_of_queue_item() {
        let mut q: EventQueue<&str> = EventQueue::new();
        q.schedule(SimTime::from_nanos(10), "first");
        q.rearm_timer(None, SimTime::from_millis(5), "timer");
        assert_eq!(q.pop().map(|(_, e)| e), Some("first"));
        let arrival = (SimTime::from_millis(3), 1 << 40);
        assert_eq!(q.peek_key_before(Some(arrival)), None);
        assert!(q.pop_keyed_before(Some(arrival)).is_none());
        assert_eq!(q.cursor, bucket(arrival.0));
        q.advance_now(arrival.0);
        q.schedule(arrival.0 + crate::time::Duration::from_micros(10), "sent");
        assert_eq!(q.occupied_slots(), 1);
        assert_eq!((q.inbox.len(), q.perf().heap_spills), (0, 0));

        // A lane event 300 µs behind the next item.
        q.schedule(SimTime::from_micros(3_310), "behind");
        let arrival = (SimTime::from_micros(3_020), 1 << 41);
        assert_eq!(q.pop().map(|(_, e)| e), Some("sent"));
        assert!(q.pop_keyed_before(Some(arrival)).is_none());
        assert_eq!(q.cursor, bucket(arrival.0));
        q.advance_now(arrival.0);
        q.schedule(arrival.0 + crate::time::Duration::from_micros(10), "sent2");
        assert_eq!((q.occupied_slots(), q.inbox.len()), (2, 0));
        let rest: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(rest, ["sent2", "behind", "timer"]);
        let p = q.perf();
        assert_eq!((p.heap_spills, p.timers_fired), (0, 1));
    }
}
