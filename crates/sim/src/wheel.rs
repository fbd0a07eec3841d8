//! Hierarchical timing wheel: O(1) arm and **true O(1) cancel/re-arm**
//! for the engine's timer population, and the home of every event
//! scheduled past the calendar's lane horizon.
//!
//! The calendar queue in [`crate::queue`] is ideal for events that always
//! fire (packet arrivals, tx-done), but timers are different: a TCP RTO is
//! re-armed on every ACK and almost never expires, so a queue that can
//! only *add* events is forced into lazy cancellation — pushing a fresh
//! ~10 ms–1 s event per packet and discarding the stale ones as they pop.
//! Varghese & Lauck's hierarchical timing wheels solve exactly this: slot
//! the timer by expiry into a level whose resolution matches its distance,
//! keep each slot as a doubly-linked list so removal is O(1), and cascade
//! entries down a level as time advances.
//!
//! # Shape
//!
//! Three levels of `SLOTS` slots each, with slot widths of 1, `SLOTS`,
//! and `SLOTS`² calendar buckets (a bucket is `1 << LANE_BITS` ns, the
//! calendar queue's lane width — the wheel deliberately shares that
//! granularity so a level-0 slot drains into exactly one refill batch):
//!
//! - level 0: 512 × 1.024 µs ≈ 524 µs of horizon (pacing, delayed ACKs)
//! - level 1: 512 × 524 µs ≈ 268 ms (RTOs, backed-off RTOs)
//! - level 2: 512 × 268 ms ≈ 137 s (max-RTO tail, experiment bookkeeping)
//! - overflow list beyond that (never hit by the shipped experiments)
//!
//! Entries live in a slab of their own; a [`TimerToken`] is `(index,
//! generation)`, and the generation is bumped every time an entry is
//! freed, so a stale token can never cancel an unrelated later timer (ABA
//! guard). Slots are intrusive doubly-linked lists threaded through that
//! slab, so cancel unlinks in O(1).
//!
//! # Cells, not payloads
//!
//! An entry holds `(time, seq, cell)`: `seq` comes from the owning
//! queue's global sequence counter and `cell` is where the queue parked
//! the payload in its one slab. A refill drains a due entry into the
//! queue's sorted batch as a key, so replay order is exactly the `(time,
//! seq)` total order of a plain event. An entry is either a *timer*, which
//! has a token, or a *far event* (scheduled beyond the lane horizon),
//! which has none: a drained far event frees its entry at once, since no
//! token can come back for it, and it does not count as a fired timer.
//!
//! # Cascading without a tick
//!
//! A discrete-event engine has no periodic tick to drive cascades, and
//! cascading eagerly would be wrong anyway: the wheel may only advance to
//! a bucket `b` once nothing (timer or regular event) can still be
//! scheduled before `b`. The owning [`crate::queue::EventQueue`] therefore
//! calls [`TimerWheel::advance_to`] from its refill path with the chosen
//! global-minimum bucket; the wheel moves its base there and cascades the
//! (provably at most one per level) higher-level slot covering the new
//! window. All skipped slots are provably empty because every live entry
//! expires at or after the global minimum.

// Hot path (per packet or per event): a panic aborts a whole figure run.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable
)]

use crate::time::SimTime;

/// log2 of the number of slots per wheel level.
const SLOT_BITS: u32 = 9;
/// Slots per wheel level.
const SLOTS: usize = 1 << SLOT_BITS;
const SLOT_MASK: u64 = SLOTS as u64 - 1;
/// Words per level in the slot-occupancy bitmaps.
const OCC_WORDS: usize = SLOTS / 64;
/// Wheel levels in front of the overflow list.
const LEVELS: usize = 3;
/// Null link in the slab's intrusive lists.
const NIL: u32 = u32::MAX;

/// Calendar bucket of a timestamp — shared with the calendar queue so a
/// level-0 slot maps 1:1 onto a refill batch.
#[inline]
fn bucket(t: SimTime) -> u64 {
    t.as_nanos() >> crate::queue::LANE_BITS
}

/// Handle to an armed timer: slab index plus an ABA-guarding generation.
///
/// Tokens are cheap `Copy` values. A token goes stale once the timer
/// fires, is cancelled, or is replaced by a re-arm; using a stale token
/// is safe and reports nothing to cancel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimerToken {
    idx: u32,
    gen: u32,
}

/// Where one slab entry currently lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Loc {
    /// On the freelist.
    Free,
    /// In wheel level `.0`, slot `.1`.
    Wheel(u8, u16),
    /// In the overflow list (beyond the level-2 horizon).
    Overflow,
    /// A timer whose payload is already in the queue's batch or inbox
    /// (armed into the draining bucket, or drained by a refill): only this
    /// `(time, seq)` marker remains for cancellation.
    External,
}

/// Concrete slot a bucket maps to under the current base.
enum Placement {
    /// `(level, slot)` within the wheel.
    Slot(usize, usize),
    /// Beyond every level's window.
    Overflow,
}

struct Entry {
    time: SimTime,
    seq: u64,
    gen: u32,
    prev: u32,
    next: u32,
    loc: Loc,
    /// The owning queue's slab cell holding the payload.
    cell: u32,
    /// A timer (it has a token) rather than a far event.
    timer: bool,
}

/// Outcome of [`TimerWheel::cancel`].
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum Cancelled {
    /// The token was stale (timer already fired, cancelled, or re-armed).
    Stale,
    /// The timer was live in the wheel; its payload's slab cell is
    /// returned.
    Live(u32),
    /// The timer's payload is in the queue's batch or inbox, where the
    /// caller can locate it by this `(time, seq)`.
    External(SimTime, u64),
}

/// The hierarchical timing wheel. See the module docs for the design.
pub(crate) struct TimerWheel {
    slab: Vec<Entry>,
    free_head: u32,
    /// Intrusive list heads, `heads[level][slot]`.
    heads: Vec<[u32; SLOTS]>,
    /// Slot-occupancy bitmaps, one per level.
    occ: [[u64; OCC_WORDS]; LEVELS],
    overflow_head: u32,
    /// Current minimum possible bucket: every resident entry expires in a
    /// bucket `>= base`, and the level windows are aligned pages around it.
    base: u64,
    /// Wheel-resident entries, timers and far events (excludes
    /// [`Loc::External`] markers).
    len: usize,
}

impl TimerWheel {
    /// Create an empty wheel based at bucket 0.
    pub(crate) fn new() -> Self {
        TimerWheel {
            slab: Vec::new(),
            free_head: NIL,
            heads: vec![[NIL; SLOTS]; LEVELS],
            occ: [[0; OCC_WORDS]; LEVELS],
            overflow_head: NIL,
            base: 0,
            len: 0,
        }
    }

    fn alloc(&mut self, time: SimTime, seq: u64, cell: u32, timer: bool) -> u32 {
        if self.free_head != NIL {
            let idx = self.free_head;
            let e = &mut self.slab[idx as usize];
            self.free_head = e.next;
            e.time = time;
            e.seq = seq;
            e.prev = NIL;
            e.next = NIL;
            e.cell = cell;
            e.timer = timer;
            idx
        } else {
            let idx = self.slab.len() as u32;
            self.slab.push(Entry {
                time,
                seq,
                gen: 0,
                prev: NIL,
                next: NIL,
                loc: Loc::Free,
                cell,
                timer,
            });
            idx
        }
    }

    /// Return an entry to the freelist, bumping its generation so every
    /// outstanding token for it goes stale.
    fn free(&mut self, idx: u32) {
        let head = self.free_head;
        let e = &mut self.slab[idx as usize];
        e.gen = e.gen.wrapping_add(1);
        e.loc = Loc::Free;
        e.prev = NIL;
        e.next = head;
        self.free_head = idx;
    }

    /// Map a bucket (`>= self.base`) to its level/slot under the aligned
    /// page windows around the current base.
    fn place(&self, b: u64) -> Placement {
        if b >> SLOT_BITS == self.base >> SLOT_BITS {
            Placement::Slot(0, (b & SLOT_MASK) as usize)
        } else if b >> (2 * SLOT_BITS) == self.base >> (2 * SLOT_BITS) {
            Placement::Slot(1, ((b >> SLOT_BITS) & SLOT_MASK) as usize)
        } else if b >> (3 * SLOT_BITS) == self.base >> (3 * SLOT_BITS) {
            Placement::Slot(2, ((b >> (2 * SLOT_BITS)) & SLOT_MASK) as usize)
        } else {
            Placement::Overflow
        }
    }

    /// Push `idx` onto the front of the list its bucket places it in.
    fn link(&mut self, idx: u32) {
        let i = idx as usize;
        let b = bucket(self.slab[i].time).max(self.base);
        let (loc, old) = match self.place(b) {
            Placement::Slot(l, s) => {
                self.occ[l][s >> 6] |= 1u64 << (s & 63);
                let old = self.heads[l][s];
                self.heads[l][s] = idx;
                (Loc::Wheel(l as u8, s as u16), old)
            }
            Placement::Overflow => {
                let old = self.overflow_head;
                self.overflow_head = idx;
                (Loc::Overflow, old)
            }
        };
        self.slab[i].prev = NIL;
        self.slab[i].next = old;
        self.slab[i].loc = loc;
        if old != NIL {
            self.slab[old as usize].prev = idx;
        }
        self.len += 1;
    }

    /// O(1) removal of a wheel-resident entry from its intrusive list.
    fn unlink(&mut self, idx: u32) {
        let i = idx as usize;
        let (prev, next, loc) = (self.slab[i].prev, self.slab[i].next, self.slab[i].loc);
        if next != NIL {
            self.slab[next as usize].prev = prev;
        }
        if prev != NIL {
            self.slab[prev as usize].next = next;
        } else {
            match loc {
                Loc::Wheel(l, s) => {
                    let (l, s) = (l as usize, s as usize);
                    self.heads[l][s] = next;
                    if next == NIL {
                        self.occ[l][s >> 6] &= !(1u64 << (s & 63));
                    }
                }
                Loc::Overflow => self.overflow_head = next,
                // Free/External entries are never linked; nothing to detach.
                Loc::Free | Loc::External => return,
            }
        }
        self.len -= 1;
    }

    /// Link a new entry for `(time, seq, cell)`. The bucket of `time` must
    /// be `>= base` (the owning queue routes earlier arms through
    /// [`arm_external`](TimerWheel::arm_external)).
    fn insert(&mut self, time: SimTime, seq: u64, cell: u32, timer: bool) -> u32 {
        crate::invariant!(
            bucket(time) >= self.base,
            "arming below the wheel base: bucket {} < {}",
            bucket(time),
            self.base
        );
        let idx = self.alloc(time, seq, cell, timer);
        self.link(idx);
        idx
    }

    /// Arm a timer expiring at `time` with the queue-issued sequence
    /// number `seq`, its payload parked in the queue's slab `cell`.
    pub(crate) fn arm(&mut self, time: SimTime, seq: u64, cell: u32) -> TimerToken {
        let idx = self.insert(time, seq, cell, true);
        TimerToken {
            idx,
            gen: self.slab[idx as usize].gen,
        }
    }

    /// Hold a far event — one scheduled beyond the queue's lane horizon —
    /// until its bucket comes due. It has no token and cannot be
    /// cancelled.
    pub(crate) fn arm_far(&mut self, time: SimTime, seq: u64, cell: u32) {
        self.insert(time, seq, cell, false);
    }

    /// Register a timer whose payload the owning queue already placed into
    /// its draining batch (expiry bucket at or before the queue cursor).
    /// Only the `(time, seq)` marker is kept so a later cancel can locate
    /// and remove the batched event.
    pub(crate) fn arm_external(&mut self, time: SimTime, seq: u64) -> TimerToken {
        let idx = self.alloc(time, seq, NIL, true);
        self.slab[idx as usize].loc = Loc::External;
        TimerToken {
            idx,
            gen: self.slab[idx as usize].gen,
        }
    }

    /// Cancel the timer behind `tok`. O(1) for wheel-resident timers.
    pub(crate) fn cancel(&mut self, tok: TimerToken) -> Cancelled {
        let i = tok.idx as usize;
        if i >= self.slab.len() || self.slab[i].gen != tok.gen {
            return Cancelled::Stale;
        }
        match self.slab[i].loc {
            Loc::Free => Cancelled::Stale,
            Loc::Wheel(..) | Loc::Overflow => {
                self.unlink(tok.idx);
                self.free(tok.idx);
                Cancelled::Live(self.slab[i].cell)
            }
            Loc::External => {
                let (t, s) = (self.slab[i].time, self.slab[i].seq);
                self.free(tok.idx);
                Cancelled::External(t, s)
            }
        }
    }

    /// Earliest bucket holding a resident entry, or `None` when empty.
    ///
    /// Exact even when the earliest entry sits in a higher level: level-0
    /// slots map 1:1 onto buckets, and a higher level's first occupied
    /// slot is scanned for its minimum (a short list, and only reached
    /// when no nearer event exists anywhere in the engine).
    pub(crate) fn min_bucket(&self) -> Option<u64> {
        if self.len == 0 {
            return None;
        }
        if let Some(s) = lowest_bit(&self.occ[0]) {
            return Some(((self.base >> SLOT_BITS) << SLOT_BITS) + s as u64);
        }
        for l in 1..LEVELS {
            if let Some(s) = lowest_bit(&self.occ[l]) {
                return self.list_min_bucket(self.heads[l][s]);
            }
        }
        self.list_min_bucket(self.overflow_head)
    }

    /// Cheap lower bound on [`min_bucket`]: exact when the earliest entry
    /// sits in level 0, otherwise the first bucket covered by the first
    /// occupied higher-level slot (or the level-2 page end when only the
    /// overflow list is populated). Costs only occupancy-bitmap word
    /// scans — no list walk — so the owning queue's refill can rule the
    /// wheel out against a nearer lane without touching entries. Never
    /// returns a value greater than [`min_bucket`].
    ///
    /// [`min_bucket`]: TimerWheel::min_bucket
    pub(crate) fn min_bucket_lower_bound(&self) -> Option<u64> {
        if self.len == 0 {
            return None;
        }
        if let Some(s) = lowest_bit(&self.occ[0]) {
            return Some(((self.base >> SLOT_BITS) << SLOT_BITS) + s as u64);
        }
        if let Some(s) = lowest_bit(&self.occ[1]) {
            return Some(
                ((self.base >> (2 * SLOT_BITS)) << (2 * SLOT_BITS)) + ((s as u64) << SLOT_BITS),
            );
        }
        if let Some(s) = lowest_bit(&self.occ[2]) {
            return Some(
                ((self.base >> (3 * SLOT_BITS)) << (3 * SLOT_BITS))
                    + ((s as u64) << (2 * SLOT_BITS)),
            );
        }
        // Only the overflow list is populated: everything there lies past
        // the current level-2 page by construction (see `place`).
        Some(((self.base >> (3 * SLOT_BITS)) + 1) << (3 * SLOT_BITS))
    }

    fn list_min_bucket(&self, mut idx: u32) -> Option<u64> {
        let mut best: Option<u64> = None;
        while idx != NIL {
            let e = &self.slab[idx as usize];
            let b = bucket(e.time);
            best = Some(best.map_or(b, |x| x.min(b)));
            idx = e.next;
        }
        best
    }

    /// Advance the base to bucket `b`, cascading higher-level slots that
    /// now fall inside lower-level windows.
    ///
    /// Caller contract (upheld by the queue's refill): `b` is at most the
    /// engine's global minimum pending bucket, so every resident entry
    /// expires at or after `b` — which is what makes skipping the
    /// intermediate slots sound (they are provably empty).
    pub(crate) fn advance_to(&mut self, b: u64) {
        if b <= self.base {
            return;
        }
        let old = self.base;
        self.base = b;
        if self.len == 0 {
            return;
        }
        let l0_turn = b >> SLOT_BITS != old >> SLOT_BITS;
        let l1_turn = b >> (2 * SLOT_BITS) != old >> (2 * SLOT_BITS);
        let l2_turn = b >> (3 * SLOT_BITS) != old >> (3 * SLOT_BITS);
        // Every slot of a page being turned away from covers only buckets
        // before `b`, so by the caller contract it must already be empty.
        crate::invariant!(
            (!l0_turn || lowest_bit(&self.occ[0]).is_none())
                && (!l1_turn || lowest_bit(&self.occ[1]).is_none())
                && (!l2_turn || lowest_bit(&self.occ[2]).is_none()),
            "wheel advance skipped a non-empty slot (base {old} -> {b})"
        );
        if l2_turn {
            // Re-place the overflow list against the new page windows.
            let head = std::mem::replace(&mut self.overflow_head, NIL);
            self.relink(head);
        }
        if l1_turn {
            // The level-2 slot covering b's level-1 page holds exactly the
            // entries whose bucket >> 18 equals b's; cascade them down.
            self.cascade_slot(2, ((b >> (2 * SLOT_BITS)) & SLOT_MASK) as usize);
        }
        if l0_turn {
            self.cascade_slot(1, ((b >> SLOT_BITS) & SLOT_MASK) as usize);
        }
    }

    /// Detach every entry in `(level, slot)` and re-place it under the
    /// (just-advanced) base.
    fn cascade_slot(&mut self, l: usize, s: usize) {
        let head = std::mem::replace(&mut self.heads[l][s], NIL);
        self.occ[l][s >> 6] &= !(1u64 << (s & 63));
        self.relink(head);
    }

    /// Re-place every entry of the detached list starting at `idx`.
    /// Entries keep their `(time, seq)` identity and generation: cascading
    /// is invisible to tokens and replay order.
    fn relink(&mut self, mut idx: u32) {
        while idx != NIL {
            let next = self.slab[idx as usize].next;
            self.len -= 1; // link() re-increments
            self.link(idx);
            idx = next;
        }
    }

    /// Drain every entry expiring in bucket `b` (which must be inside the
    /// level-0 window, i.e. after `advance_to(b)`), handing each to `fire`
    /// as `(time, seq, cell)`, unordered. Returns the number of *timers*
    /// drained; far events are handed over too but not counted.
    pub(crate) fn drain_bucket(
        &mut self,
        b: u64,
        mut fire: impl FnMut(SimTime, u64, u32),
    ) -> usize {
        if b >> SLOT_BITS != self.base >> SLOT_BITS {
            return 0;
        }
        let s = (b & SLOT_MASK) as usize;
        let mut idx = std::mem::replace(&mut self.heads[0][s], NIL);
        self.occ[0][s >> 6] &= !(1u64 << (s & 63));
        let mut timers = 0usize;
        while idx != NIL {
            let e = &mut self.slab[idx as usize];
            let next = e.next;
            fire(e.time, e.seq, e.cell);
            self.len -= 1;
            if e.timer {
                // Keep a timer as an External marker instead of freeing
                // it: its event now sits in the owning queue's batch, and
                // a cancel/re-arm racing ahead of the pop (the queue
                // peeked into this bucket before a causally-earlier event
                // arrived — the conservative-window engine does exactly
                // that at barriers) must still find and remove it by
                // `(time, seq)`. The marker is freed on cancel or via
                // [`release_external`] once the event pops and fires.
                //
                // [`release_external`]: TimerWheel::release_external
                e.loc = Loc::External;
                e.prev = NIL;
                e.next = NIL;
                timers += 1;
            } else {
                self.free(idx);
            }
            idx = next;
        }
        timers
    }

    /// Take every far event off the wheel, handing each to `take` as
    /// `(time, seq, cell)`, unordered. Timers stay where they are.
    pub(crate) fn drain_far(&mut self, mut take: impl FnMut(SimTime, u64, u32)) {
        for idx in 0..self.slab.len() as u32 {
            let e = &self.slab[idx as usize];
            if !e.timer && matches!(e.loc, Loc::Wheel(..) | Loc::Overflow) {
                take(e.time, e.seq, e.cell);
                self.unlink(idx);
                self.free(idx);
            }
        }
    }

    /// Free the External marker behind `tok` after its drained event
    /// popped and fired. No-op on stale tokens and on wheel-resident
    /// entries.
    pub(crate) fn release_external(&mut self, tok: TimerToken) {
        let i = tok.idx as usize;
        if i < self.slab.len()
            && self.slab[i].gen == tok.gen
            && matches!(self.slab[i].loc, Loc::External)
        {
            self.free(tok.idx);
        }
    }

    /// Drop every entry (resident and external markers), invalidating all
    /// outstanding tokens. The base is kept: it tracks the owning queue's
    /// cursor, which `clear` does not rewind.
    pub(crate) fn clear(&mut self) {
        for idx in 0..self.slab.len() as u32 {
            if !matches!(self.slab[idx as usize].loc, Loc::Free) {
                self.free(idx);
            }
        }
        self.heads = vec![[NIL; SLOTS]; LEVELS];
        self.occ = [[0; OCC_WORDS]; LEVELS];
        self.overflow_head = NIL;
        self.len = 0;
    }
}

#[cfg(test)]
impl TimerWheel {
    /// Entries not on the freelist: resident ones and External markers.
    pub(crate) fn live(&self) -> usize {
        self.slab.iter().filter(|e| e.loc != Loc::Free).count()
    }
}

/// Index of the lowest set bit across a level bitmap.
fn lowest_bit(words: &[u64; OCC_WORDS]) -> Option<usize> {
    for (w, &word) in words.iter().enumerate() {
        if word != 0 {
            return Some((w << 6) + word.trailing_zeros() as usize);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    const BUCKET_NS: u64 = 1 << crate::queue::LANE_BITS;

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    /// Drain the wheel to completion in engine order: repeatedly advance
    /// to the min bucket and drain it, collecting `(time, seq)` pairs
    /// sorted within each bucket (as the queue's refill sort would).
    fn drain_all(w: &mut TimerWheel) -> Vec<(u64, u64, u32)> {
        let mut out = Vec::new();
        while let Some(b) = w.min_bucket() {
            w.advance_to(b);
            let mut batch = Vec::new();
            let n = w.drain_bucket(b, |tt, s, e| batch.push((tt, s, e)));
            assert_eq!(n, batch.len());
            assert!(n > 0, "min_bucket pointed at an empty bucket");
            batch.sort_unstable_by_key(|&(tt, s, _)| (tt, s));
            for (tt, s, e) in batch {
                assert_eq!(bucket(tt), b, "entry drained from the wrong bucket");
                out.push((tt.as_nanos(), s, e));
            }
        }
        assert_eq!(w.len, 0);
        out
    }

    #[test]
    fn fires_in_time_order_across_levels() {
        let mut w = TimerWheel::new();
        // One timer per level plus overflow.
        let times = [
            3 * BUCKET_NS,                               // level 0
            700 * BUCKET_NS,                             // level 1
            SLOTS as u64 * SLOTS as u64 * BUCKET_NS * 3, // level 2
            SLOTS.pow(3) as u64 * BUCKET_NS * 2,         // overflow
        ];
        for (i, &ns) in times.iter().enumerate() {
            w.arm(t(ns), i as u64, i as u32);
        }
        let fired = drain_all(&mut w);
        let got: Vec<u64> = fired.iter().map(|&(ns, _, _)| ns).collect();
        let mut want = times.to_vec();
        want.sort_unstable();
        assert_eq!(got, want);
    }

    #[test]
    fn cancel_is_exact_and_tokens_go_stale() {
        let mut w = TimerWheel::new();
        let a = w.arm(t(10_000), 0, 0);
        let b = w.arm(t(20_000), 1, 1);
        let c = w.arm(t(20_000), 2, 2);
        assert_eq!(w.len, 3);
        assert!(matches!(w.cancel(b), Cancelled::Live(1)));
        assert_eq!(w.len, 2);
        // Double-cancel is stale, not a second removal.
        assert_eq!(w.cancel(b), Cancelled::Stale);
        assert_eq!(w.len, 2);
        let fired = drain_all(&mut w);
        assert_eq!(
            fired.iter().map(|&(_, _, e)| e).collect::<Vec<_>>(),
            vec![0, 2]
        );
        // Drained timers keep an External marker so a cancel racing ahead
        // of the pop can still find the batched event by `(time, seq)`;
        // the cancel itself frees the marker, so a second one is stale.
        assert_eq!(w.cancel(a), Cancelled::External(t(10_000), 0));
        assert_eq!(w.cancel(a), Cancelled::Stale);
        // A timer that actually fires hands its marker back through
        // `release_external`; only then does its token go stale.
        w.release_external(c);
        assert_eq!(w.cancel(c), Cancelled::Stale);
    }

    #[test]
    fn generation_guard_defeats_slot_reuse() {
        let mut w = TimerWheel::new();
        let a = w.arm(t(10_000), 0, 7);
        assert!(matches!(w.cancel(a), Cancelled::Live(7)));
        // The freed cell is reused by the next arm...
        let b = w.arm(t(30_000), 1, 8);
        assert_eq!(a.idx, b.idx, "freelist should reuse the cell");
        // ...but the old token must not be able to cancel the new timer.
        assert_eq!(w.cancel(a), Cancelled::Stale);
        assert!(matches!(w.cancel(b), Cancelled::Live(8)));
    }

    #[test]
    fn external_markers_round_trip() {
        let mut w = TimerWheel::new();
        let tok = w.arm_external(t(500), 42);
        assert_eq!(w.len, 0, "external markers are not wheel-resident");
        assert_eq!(w.min_bucket(), None);
        match w.cancel(tok) {
            Cancelled::External(tt, s) => {
                assert_eq!((tt, s), (t(500), 42));
            }
            other => panic!("expected External, got {other:?}"),
        }
        assert_eq!(w.cancel(tok), Cancelled::Stale);
    }

    #[test]
    fn cascade_boundary_single_bucket_apart() {
        // Two timers one bucket apart straddling a level-0 page boundary:
        // the second must cascade from level 1 when the base crosses.
        let mut w = TimerWheel::new();
        let page_end = SLOTS as u64 * BUCKET_NS;
        w.arm(t(page_end - 1), 0, 0); // last bucket of page 0
        w.arm(t(page_end), 1, 1); // first bucket of page 1 → level 1
        assert_eq!(w.min_bucket(), Some(SLOTS as u64 - 1));
        let fired = drain_all(&mut w);
        assert_eq!(
            fired.iter().map(|&(_, _, e)| e).collect::<Vec<_>>(),
            vec![0, 1]
        );
    }

    #[test]
    fn lower_bound_never_exceeds_min_bucket() {
        // One population per level plus overflow: the bitmap-only lower
        // bound must be exact for level 0 and <= the exact minimum
        // everywhere (the queue's refill relies on that to skip the
        // cell-list scan).
        let far_times = [
            700 * BUCKET_NS,                             // level 1
            SLOTS as u64 * SLOTS as u64 * BUCKET_NS * 3, // level 2
            SLOTS.pow(3) as u64 * BUCKET_NS * 2,         // overflow
        ];
        for &ns in &far_times {
            let mut w = TimerWheel::new();
            assert_eq!(w.min_bucket_lower_bound(), None);
            w.arm(t(ns), 0, 0);
            let lb = w.min_bucket_lower_bound().unwrap();
            let min = w.min_bucket().unwrap();
            assert!(lb <= min, "lower bound {lb} > exact min {min} (ns {ns})");
            // Adding a level-0 timer makes the bound exact again.
            w.arm(t(3 * BUCKET_NS), 1, 1);
            assert_eq!(w.min_bucket_lower_bound(), w.min_bucket());
        }
    }

    #[test]
    fn same_bucket_timers_drain_together() {
        let mut w = TimerWheel::new();
        w.arm(t(5_000), 1, 10);
        w.arm(t(5_100), 0, 11); // same 1024 ns bucket, earlier seq
        let b = w.min_bucket().expect("non-empty");
        w.advance_to(b);
        let mut batch = Vec::new();
        assert_eq!(w.drain_bucket(b, |tt, s, e| batch.push((tt, s, e))), 2);
        assert_eq!(w.len, 0);
    }

    #[test]
    fn advance_far_then_rearm_near() {
        let mut w = TimerWheel::new();
        w.arm(t(2_000_000_000), 0, 0); // 2 s out → level 2
        w.advance_to(bucket(t(1_500_000_000)));
        // Arm close to the new base; it must land ahead of the far timer.
        w.arm(t(1_500_100_000), 1, 1);
        let fired = drain_all(&mut w);
        assert_eq!(
            fired.iter().map(|&(_, _, e)| e).collect::<Vec<_>>(),
            vec![1, 0]
        );
    }

    #[test]
    fn piggybacked_token_rearm_chain_survives_cancel_storm() {
        // Models the wheel-batched delayed-ACK lifecycle: one long-lived
        // logical timer repeatedly fires and is pushed forward by arming a
        // fresh token from the drain handler, while bursts of unrelated
        // timers are armed and cancelled around it. Each deadline must fire
        // exactly once, spent tokens must go stale only after their
        // External marker is released, and the storms must never perturb
        // the live chain.
        let mut w = TimerWheel::new();
        let mut deadline = 10_000u64;
        let mut tok = w.arm(t(deadline), 0, 0u32);
        let mut fired = Vec::new();
        for round in 1..=5u32 {
            // Cancel storm: decoys spread across wheel levels, all gone
            // before the live deadline.
            let decoys: Vec<_> = (0..32u64)
                .map(|i| w.arm(t(deadline + 1 + i * BUCKET_NS * 97), 100 + i, 1_000 + round))
                .collect();
            for d in decoys {
                assert!(matches!(w.cancel(d), Cancelled::Live(_)));
            }
            assert_eq!(w.len, 1, "only the live token remains");
            // Fire the live token.
            let b = w.min_bucket().expect("live token pending");
            w.advance_to(b);
            let mut batch = Vec::new();
            assert_eq!(w.drain_bucket(b, |tt, s, e| batch.push((tt, s, e))), 1);
            let (tt, _, e) = batch[0];
            assert_eq!(tt, t(deadline), "fired at the armed deadline");
            fired.push(e);
            // A cancel racing the pop still resolves via the External
            // marker; releasing the marker makes the token stale.
            w.release_external(tok);
            assert_eq!(w.cancel(tok), Cancelled::Stale, "spent token is stale");
            // Push the chain forward, as the batched receiver does when a
            // token fires early against a later logical deadline.
            deadline += 40_000 * round as u64;
            tok = w.arm(t(deadline), 0, round);
        }
        assert_eq!(fired, vec![0, 1, 2, 3, 4], "one firing per deadline");
        assert!(matches!(w.cancel(tok), Cancelled::Live(5)));
        assert_eq!(w.len, 0);
    }

    #[test]
    fn clear_invalidates_everything() {
        let mut w = TimerWheel::new();
        let a = w.arm(t(10_000), 0, 0);
        let b = w.arm(t(9_000_000_000), 1, 1);
        w.clear();
        assert_eq!(w.len, 0);
        assert_eq!(w.min_bucket(), None);
        assert_eq!(w.cancel(a), Cancelled::Stale);
        assert_eq!(w.cancel(b), Cancelled::Stale);
    }

    // ── property tests: wheel vs. a naive BTreeMap oracle ─────────────

    /// Oracle: timer id → (time_ns, seq). Arm/cancel/re-arm interleavings
    /// must leave wheel and oracle with identical surviving timers, fired
    /// in identical (bucket-grouped, (time, seq)-sorted) order.
    #[derive(Default)]
    struct Oracle {
        live: BTreeMap<u32, (u64, u64)>,
    }

    proptest! {
        #[test]
        fn prop_matches_oracle(ops in proptest::collection::vec((0u8..4, 0u64..4_000_000_000u64, 0u32..24), 1..120)) {
            let mut w = TimerWheel::new();
            let mut oracle = Oracle::default();
            let mut tokens: BTreeMap<u32, TimerToken> = BTreeMap::new();
            let mut seq = 0u64;
            let mut floor = 0u64; // wheel base may only move forward

            for (op, raw_ns, id) in ops {
                let ns = raw_ns.max(floor * BUCKET_NS);
                match op {
                    // Arm (replacing any live timer with the same id —
                    // the RTO re-arm pattern).
                    0 | 1 => {
                        if let Some(tok) = tokens.remove(&id) {
                            let cancelled = matches!(w.cancel(tok), Cancelled::Live(_));
                            prop_assert_eq!(cancelled, oracle.live.remove(&id).is_some());
                        }
                        let tok = w.arm(SimTime::from_nanos(ns), seq, id);
                        oracle.live.insert(id, (ns, seq));
                        tokens.insert(id, tok);
                        seq += 1;
                    }
                    // Cancel.
                    2 => {
                        if let Some(tok) = tokens.remove(&id) {
                            let cancelled = matches!(w.cancel(tok), Cancelled::Live(_));
                            prop_assert_eq!(cancelled, oracle.live.remove(&id).is_some());
                        }
                    }
                    // Advance to the pending minimum and fire one bucket.
                    _ => {
                        let want_min = oracle.live.values().map(|&(ns, _)| ns >> crate::queue::LANE_BITS).min();
                        prop_assert_eq!(w.min_bucket(), want_min);
                        let lb = w.min_bucket_lower_bound();
                        prop_assert_eq!(lb.is_some(), want_min.is_some());
                        if let (Some(lb), Some(min)) = (lb, want_min) {
                            prop_assert!(lb <= min, "lower bound {} > exact min {}", lb, min);
                        }
                        if let Some(b) = want_min {
                            w.advance_to(b);
                            floor = b + 1;
                            let mut batch = Vec::new();
                            w.drain_bucket(b, |tt, s, e| batch.push((tt, s, e)));
                            batch.sort_unstable_by_key(|&(tt, s, _)| (tt, s));
                            let mut want: Vec<(u64, u64, u32)> = oracle
                                .live
                                .iter()
                                .filter(|&(_, &(ns, _))| ns >> crate::queue::LANE_BITS == b)
                                .map(|(&id, &(ns, s))| (ns, s, id))
                                .collect();
                            want.sort_unstable_by_key(|&(ns, s, _)| (ns, s));
                            let got: Vec<(u64, u64, u32)> = batch
                                .iter()
                                .map(|&(tt, s, id)| (tt.as_nanos(), s, id))
                                .collect();
                            prop_assert_eq!(got, want);
                            oracle.live.retain(|_, &mut (ns, _)| ns >> crate::queue::LANE_BITS != b);
                        }
                    }
                }
            }

            // Drain the rest: survivors fire exactly once, in order.
            let fired = drain_all(&mut w);
            let mut want: Vec<(u64, u64, u32)> = oracle
                .live
                .iter()
                .map(|(&id, &(ns, s))| (ns, s, id))
                .collect();
            want.sort_unstable_by_key(|&(ns, s, _)| (ns >> crate::queue::LANE_BITS, ns, s));
            prop_assert_eq!(fired, want);
        }

        /// Pure arm/fire churn across all horizons keeps (time, seq) order.
        #[test]
        fn prop_fire_order_across_horizons(times in proptest::collection::vec(0u64..200_000_000_000u64, 1..80)) {
            let mut w = TimerWheel::new();
            for (i, &ns) in times.iter().enumerate() {
                w.arm(SimTime::from_nanos(ns), i as u64, i as u32);
            }
            let fired = drain_all(&mut w);
            prop_assert_eq!(fired.len(), times.len());
            for pair in fired.windows(2) {
                prop_assert!(
                    (pair[0].0 >> crate::queue::LANE_BITS) <= (pair[1].0 >> crate::queue::LANE_BITS),
                    "bucket order violated"
                );
            }
            let mut seen = vec![false; times.len()];
            for &(ns, s, id) in &fired {
                prop_assert_eq!(ns, times[id as usize]);
                prop_assert_eq!(s, id as u64);
                prop_assert!(!seen[id as usize]);
                seen[id as usize] = true;
            }
        }
    }
}
