//! The flows a network is to start, kept outside its event queue.
//!
//! A run knows its flow arrivals before it starts, and most of them lie
//! far beyond the event queue's 1 ms lane horizon: queued, each would wait
//! on the queue's timer wheel as a whole event. Here each is one packed
//! [`Arrival`] in a list read front to back, and [`crate::Network`] merges
//! the list with the queue by `(time, tag)` — the key a queued arrival
//! would have had, so the total order is the same.

use crate::agent::FlowCmd;
use crate::ids::{FlowId, NodeId};
use ecnsharp_sim::{Duration, SimTime};

/// Bits of [`Arrival::src_class`] that hold the source node.
const SRC_BITS: u32 = 24;

/// One flow still to start: a [`FlowCmd`], its start time and its set-up
/// tag, packed. [`Arrivals::push`] checks every narrowing.
#[derive(Clone, Copy)]
struct Arrival {
    /// Start time, ns.
    at: u64,
    flow: u64,
    size: u64,
    /// `src | class << SRC_BITS`.
    src_class: u32,
    dst: u32,
    /// Set-up tag, as an offset from [`Arrivals::base`].
    tag: u32,
    /// [`FlowCmd::extra_delay`], ns.
    extra_delay: u32,
}

const _: () = assert!(std::mem::size_of::<Arrival>() <= 40);

impl Arrival {
    /// The flow's source node.
    fn src(&self) -> usize {
        (self.src_class & ((1 << SRC_BITS) - 1)) as usize
    }
}

/// A network's unstarted flows, in `(time, tag)` order from a cursor on.
#[derive(Default)]
pub(crate) struct Arrivals {
    list: Vec<Arrival>,
    /// Index of the first unstarted arrival.
    next: usize,
    /// The tag every [`Arrival::tag`] counts from.
    base: u64,
    /// A push came out of `(time, tag)` order since the last sort.
    unsorted: bool,
}

impl Arrivals {
    /// List `cmd` to start at `at` under set-up tag `tag`. Set-up tags only
    /// grow, so a push is out of order only when `at` is earlier than the
    /// last unstarted arrival's; the list is then sorted before it is read.
    ///
    /// # Panics
    /// When a field does not fit its packed width: the source node in 24
    /// bits, the destination node, the tag's offset from the list's base
    /// and the extra delay in nanoseconds in 32 bits.
    pub(crate) fn push(&mut self, at: SimTime, tag: u64, cmd: FlowCmd) {
        if self.len() == 0 {
            // Every listed flow has started: reuse the buffer from the top.
            self.list.clear();
            self.next = 0;
            self.base = tag;
        }
        let flow = cmd.flow;
        let src = u32::try_from(cmd.src.0)
            .ok()
            .filter(|&s| s < 1 << SRC_BITS)
            .unwrap_or_else(|| {
                panic!(
                    "flow {flow}: source node {} does not fit the arrival list's {SRC_BITS} bits",
                    cmd.src
                )
            });
        let dst = u32::try_from(cmd.dst.0).unwrap_or_else(|_| {
            panic!(
                "flow {flow}: destination node {} does not fit the arrival list's 32 bits",
                cmd.dst
            )
        });
        let tag = u32::try_from(tag - self.base).unwrap_or_else(|_| {
            panic!(
                "flow {flow}: set-up tag {tag} is more than 2^32 past the arrival list's base {}",
                self.base
            )
        });
        let extra_delay = u32::try_from(cmd.extra_delay.as_nanos()).unwrap_or_else(|_| {
            panic!(
                "flow {flow}: extra delay {} does not fit the arrival list's 32-bit nanoseconds",
                cmd.extra_delay
            )
        });
        let at = at.as_nanos();
        if self.list.last().is_some_and(|last| at < last.at) {
            self.unsorted = true;
        }
        self.list.push(Arrival {
            at,
            flow: flow.0,
            size: cmd.size,
            src_class: src | (u32::from(cmd.class) << SRC_BITS),
            dst,
            tag,
            extra_delay,
        });
    }

    /// Unstarted arrivals.
    pub(crate) fn len(&self) -> usize {
        self.list.len() - self.next
    }

    /// `(time, tag)` of the next arrival to start.
    #[inline]
    pub(crate) fn next_key(&mut self) -> Option<(SimTime, u64)> {
        if self.unsorted {
            self.sort();
        }
        let a = self.list.get(self.next)?;
        Some((SimTime::from_nanos(a.at), self.base + u64::from(a.tag)))
    }

    /// Take the next arrival to start as `(time, tag, cmd)`.
    pub(crate) fn pop(&mut self) -> Option<(SimTime, u64, FlowCmd)> {
        let key = self.next_key()?;
        let a = self.list[self.next];
        self.next += 1;
        let cmd = FlowCmd {
            flow: FlowId(a.flow),
            src: NodeId(a.src()),
            dst: NodeId(a.dst as usize),
            size: a.size,
            class: (a.src_class >> SRC_BITS) as u8,
            extra_delay: Duration::from_nanos(u64::from(a.extra_delay)),
        };
        Some((key.0, key.1, cmd))
    }

    #[cold]
    fn sort(&mut self) {
        self.list[self.next..].sort_unstable_by_key(|a| (a.at, a.tag));
        self.unsorted = false;
    }

    /// Hand every unstarted arrival, in order, to the list of the shard
    /// that owns its source (`owner[node]`), leaving this list empty.
    pub(crate) fn split(&mut self, owner: &[u32], shards: usize) -> Vec<Arrivals> {
        if self.unsorted {
            self.sort();
        }
        let mut out: Vec<Arrivals> = (0..shards)
            .map(|_| Arrivals {
                base: self.base,
                ..Arrivals::default()
            })
            .collect();
        for a in self.list.drain(self.next..) {
            out[owner[a.src()] as usize].list.push(a);
        }
        *self = Arrivals::default();
        out
    }
}
