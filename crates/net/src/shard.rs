//! Conservative parallel execution: partition a [`Network`] into shards,
//! run them on worker threads, and keep replay byte-identical to the
//! serial engine.
//!
//! # Model
//!
//! A [`ShardPlan`] assigns every node to one shard. Each shard is a full
//! `Network` engine — its own event queue, timer wheel, and forked
//! telemetry subscriber — whose `nodes` vector keeps *placeholders* in the
//! slots it does not own, so node indices stay global and the hot paths
//! need no translation. A packet whose next hop lives on another shard is
//! buffered in the sender's outbox and delivered through a mailbox at the
//! next window barrier.
//!
//! # Conservative lookahead
//!
//! The engine uses classic conservative PDES windows: with `L` the minimum
//! propagation delay over all links that cross a shard boundary, every
//! cross-shard arrival sent from a window starting at `W` lands at
//! `≥ W + L`. All shards therefore process their local events with
//! `time < min(W + L, epoch end)` in parallel, exchange outboxes at a
//! barrier, agree on the next global minimum event time, and jump there
//! (idle stretches cost one barrier round, not simulated time).
//!
//! # Determinism
//!
//! Event order inside each shard is the canonical `(time, tag)` order of
//! the serial engine (see the `network` module docs: tags are derived from
//! the *pushing node*, not from a global counter, so they are identical
//! under any partitioning). Mailbox append order may race; delivery order
//! does not depend on it because the receiving queue re-sorts by
//! `(time, tag)`. Fault-plan entries bound each epoch: at a fault's
//! timestamp the worker threads are joined, stragglers are drained in
//! global key order, every node comes home to the parent network, the
//! serial fault code applies each fault of that instant, the nodes and
//! the events the faults pushed go back out to their owners, and the
//! next epoch starts. A sharded run has no fault code of its own. The
//! result —
//! flow records, port statistics, telemetry aggregates —
//! is byte-identical to a serial run of the same seed; `CONCURRENCY.md`
//! carries the full argument and `tests/shard_equivalence.rs` in
//! `ecnsharp-experiments` pins it in CI.

use crate::ids::NodeId;
use crate::network::{Event, Network, OutMsg};
use crate::node::Node;
use ecnsharp_sim::supervise::{
    ProgressGuard, ShardDiag, SimError, Supervision, DEFAULT_STALL_ROUNDS,
};
use ecnsharp_sim::{EventQueue, SimTime};
use ecnsharp_telemetry::ShardSubscriber;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier, Mutex, MutexGuard, PoisonError};

/// A node-to-shard assignment for [`Network::run_sharded_until_idle`].
///
/// Construct one with [`ShardPlan::new`] from an `owner` vector (`owner[i]`
/// = shard of node `i`), or use the topology helpers
/// ([`crate::topology::Star::shard_plan`],
/// [`crate::topology::LeafSpine::shard_plan`],
/// [`crate::topology::FatTree::shard_plan`]) that cut along natural fabric
/// boundaries.
///
/// ```
/// use ecnsharp_net::ShardPlan;
///
/// // Nodes 0 and 2 on shard 0, nodes 1 and 3 on shard 1.
/// let plan = ShardPlan::new(vec![0, 1, 0, 1]);
/// assert_eq!(plan.shard_count(), 2);
/// assert_eq!(plan.owner_of(ecnsharp_net::NodeId(3)), 1);
/// ```
#[derive(Debug, Clone)]
pub struct ShardPlan {
    owner: Arc<Vec<u32>>,
    shards: u32,
}

impl ShardPlan {
    /// Validate and wrap an owner map. Shard ids must form a contiguous
    /// `0..=max` range with every shard owning at least one node.
    ///
    /// # Panics
    ///
    /// On an empty map or a shard id with no nodes.
    pub fn new(owner: Vec<u32>) -> Self {
        assert!(!owner.is_empty(), "a shard plan needs at least one node");
        let shards = owner.iter().copied().max().unwrap() + 1;
        let mut population = vec![0u64; shards as usize];
        for &s in &owner {
            population[s as usize] += 1;
        }
        for (s, &n) in population.iter().enumerate() {
            assert!(n > 0, "shard {s} owns no nodes (ids must be contiguous)");
        }
        ShardPlan {
            owner: Arc::new(owner),
            shards,
        }
    }

    /// Number of shards (= worker threads).
    pub fn shard_count(&self) -> usize {
        self.shards as usize
    }

    /// The shard owning `node`.
    pub fn owner_of(&self, node: NodeId) -> u32 {
        self.owner[node.0]
    }
}

impl<S: ShardSubscriber> Network<S> {
    /// Run the network to completion on `plan.shard_count()` worker
    /// threads, producing **byte-identical results to
    /// [`Network::run_until_idle`]** for the same seed: flow records, port
    /// statistics and merged telemetry aggregates
    /// all match the serial engine exactly (`steps()` too). Returns the
    /// final simulation time.
    ///
    /// Must be called on a freshly built network (`steps() == 0`):
    /// topology, routes, fault plans and scheduled flows are
    /// installed first, then the run is sharded once.
    ///
    /// The subscriber must implement
    /// [`ShardSubscriber`] — the
    /// order-insensitive fork/merge contract; order-sensitive sinks like
    /// `JsonlWriter` are rejected at compile time.
    ///
    /// # Panics
    ///
    /// If the network already ran (`steps() > 0`), if `plan` does not
    /// cover exactly this network's nodes, if a cross-shard link has
    /// zero propagation delay (no conservative lookahead), or with the
    /// [`SimError`] of a run that fails — a tripped guard or a panicking
    /// worker ([`Network::try_run_sharded_until_idle`], unwrapped).
    ///
    /// ```
    /// use ecnsharp_net::{topology, FlowCmd, FlowId, Network, NullAgent, PortConfig, ShardPlan};
    /// use ecnsharp_net::{Agent, Ctx, Packet};
    /// use ecnsharp_sim::{Duration, Rate, SimTime};
    /// use ecnsharp_aqm::DropTail;
    ///
    /// /// Sends its whole flow as one packet; completes on the echoed ACK.
    /// struct OneShot;
    /// impl Agent for OneShot {
    ///     fn on_packet(&mut self, ctx: &mut Ctx<'_>, pkt: Packet) {
    ///         if pkt.flags().ack {
    ///             ctx.flow_done(pkt.flow, 0);
    ///         } else {
    ///             ctx.send(Packet::ack(pkt.flow, pkt.dst, pkt.src, pkt.seq_end()));
    ///         }
    ///     }
    ///     fn on_timer(&mut self, _: &mut Ctx<'_>, _: u64) {}
    ///     fn on_flow_cmd(&mut self, ctx: &mut Ctx<'_>, cmd: FlowCmd) {
    ///         ctx.send(Packet::data(cmd.flow, cmd.src, cmd.dst, 0, cmd.size));
    ///     }
    /// }
    ///
    /// let cfg = || PortConfig::fifo(1 << 20, Box::new(DropTail::new()));
    /// let star = topology::star(
    ///     7, 4, Rate::from_gbps(10), Duration::from_micros(1),
    ///     |_| Box::new(OneShot), cfg, cfg,
    /// );
    /// let mut net = star.net;
    /// net.schedule_flow(SimTime::ZERO, FlowCmd {
    ///     flow: FlowId(1), src: star.hosts[0], dst: star.hosts[3],
    ///     size: 4000, class: 0, extra_delay: Duration::ZERO,
    /// });
    ///
    /// // Hosts 0/1 on shard 0; hosts 2/3 and the switch on shard 1.
    /// let plan = ShardPlan::new(vec![0, 0, 1, 1, 1]);
    /// net.run_sharded_until_idle(&plan);
    /// assert_eq!(net.records().len(), 1);
    /// assert_eq!(net.unfinished_flows(), 0);
    /// ```
    pub fn run_sharded_until_idle(&mut self, plan: &ShardPlan) -> SimTime {
        self.try_run_sharded_until_idle(plan)
            .expect("run_sharded_until_idle")
    }

    /// Fallible sharded run under this network's [`Supervision`]: like
    /// [`Network::run_sharded_until_idle`], but a tripped guard —
    /// livelock inside a window, a stalled barrier exchange, a memory
    /// ceiling, a transport budget — or a panicking worker returns its
    /// [`SimError`] instead of hanging or unwinding. A worker panic is
    /// caught under every `Supervision`, including the default.
    ///
    /// On `Err` the network is **poisoned**: nodes have been moved into
    /// shard engines that were abandoned mid-window, so the value must be
    /// dropped (every sweep point builds its own network).
    pub fn try_run_sharded_until_idle(&mut self, plan: &ShardPlan) -> Result<SimTime, SimError> {
        assert_eq!(
            plan.owner.len(),
            self.nodes.len(),
            "shard plan covers {} nodes but the network has {}",
            plan.owner.len(),
            self.nodes.len()
        );
        assert_eq!(
            self.steps, 0,
            "sharded runs must start from a fresh network (steps() == 0)"
        );
        if plan.shard_count() == 1 {
            return self.try_run_until_idle();
        }
        let sup = self.supervision();
        let owner = plan.owner.clone();
        let n_shards = plan.shard_count();

        // ── split ─────────────────────────────────────────────────────
        debug_assert!(self.pending.is_empty() && self.records.is_empty());
        let mut shards: Vec<Network<S>> = (0..n_shards)
            .map(|i| {
                let sub = self.subscriber().fork_shard(i);
                self.shard_shell(i as u32, owner.clone(), sub)
            })
            .collect();
        self.scatter(&mut shards, &owner);
        // The pre-run backlog goes to its owners. `drain_entries` rejects
        // armed timers, but none can exist at steps() == 0. The queue it
        // leaves, counts and all, is dropped: each event is counted once,
        // on its owner's queue, as a serial run counts it once.
        let backlog = std::mem::take(&mut self.events).drain_entries();
        self.events.set_mem_ceiling(sup.event_ceiling);
        Self::route(&mut shards, &owner, backlog);
        // Each engine starts, and records, the flows its own hosts send:
        // their arrivals in order, and one reservation for its share, as a
        // serial run makes for the total.
        let lists = self.arrivals.split(&owner, n_shards);
        for (shard, arrivals) in shards.iter_mut().zip(lists) {
            shard.flows_to_record = arrivals.len();
            shard.arrivals = arrivals;
            shard.reserve_records();
        }
        self.flows_to_record = 0;
        // Arm each shard's guards after its nodes and backlog are in
        // place (ceilings attach to the queue and the owned arenas).
        for shard in &mut shards {
            shard.set_supervision(sup);
        }
        // Key of the last step applied anywhere — an event on some shard or
        // a fault here. Serial runs advance the clock through every fault
        // application, even past the last packet event; mirror that for
        // `now()` parity, and leave `cur_tag` where a serial run leaves it.
        let mut last_key = (self.now(), self.cur_tag);
        // Where the faults of one instant push their events until they are
        // routed to their owners. Its counts are never read: each such
        // event is counted once, on its owner's queue, as a serial run
        // counts it once. (The parent's own queue would count it a second
        // time, and past 1 ms as a heap spill too: it never pops, so its
        // lane cursor stays where the split left it.)
        let mut fault_events = EventQueue::new();

        // ── epochs: parallel windows bounded by fault times ───────────
        loop {
            let fault = self.fault_queue.get(self.next_fault).copied();
            let end = fault.map_or(u64::MAX, |(at, _, _)| at.as_nanos());
            let la = lookahead_nanos(&shards, &owner);
            run_windows(&mut shards, la, end, &sup)?;
            let Some((at, ftag, _)) = fault else { break };
            // Stragglers strictly before the fault's global key (usually
            // none: the windows stop at `end` and fault tags sort below
            // every same-time runtime tag).
            drain_serial(&mut shards, (at, ftag))?;
            // Every node comes home and the serial code applies each fault
            // at this instant, in tag order.
            self.gather(&mut shards, &owner);
            std::mem::swap(&mut self.events, &mut fault_events);
            while self.fault_queue.get(self.next_fault).map(|f| f.0) == Some(at) {
                self.step_fault();
            }
            std::mem::swap(&mut self.events, &mut fault_events);
            last_key = (at, self.cur_tag);
            self.scatter(&mut shards, &owner);
            Self::route(&mut shards, &owner, fault_events.drain_entries());
        }

        // ── merge ─────────────────────────────────────────────────────
        self.gather(&mut shards, &owner);
        let mut keyed_records = Vec::with_capacity(shards.iter().map(|s| s.records.len()).sum());
        for mut shard in shards {
            last_key = last_key.max((shard.now(), shard.cur_tag));
            self.counters.absorb(&shard.engine_counters());
            self.steps += shard.steps;
            self.flows_to_record += shard.flows_to_record;
            self.pending.append(&mut shard.pending);
            keyed_records.extend(
                std::mem::take(&mut shard.record_keys)
                    .into_iter()
                    .zip(std::mem::take(&mut shard.records)),
            );
            // Ascending shard order: the merge contract of ShardSubscriber.
            let sub = shard.into_subscriber();
            self.subscriber_mut().merge_shard(sub);
        }
        // Records in exact serial order: the provenance key (finish, tag
        // of the completing event, sub-index) is the serial processing
        // order by construction.
        keyed_records.sort_unstable_by_key(|r| r.0);
        self.records
            .extend(keyed_records.into_iter().map(|(_, record)| record));
        self.events.advance_now(last_key.0);
        self.cur_tag = last_key.1;
        self.check_idle_flow_state();
        Ok(self.now())
    }

    /// Move every node out to its owning shard, leaving `self.nodes`
    /// empty. The shards' slots hold placeholders until then.
    fn scatter(&mut self, shards: &mut [Network<S>], owner: &[u32]) {
        for (i, node) in std::mem::take(&mut self.nodes).into_iter().enumerate() {
            shards[owner[i] as usize].nodes[i] = node;
        }
    }

    /// Bring every node home from its owning shard, with its tag counter,
    /// leaving a placeholder in the shard's slot.
    fn gather(&mut self, shards: &mut [Network<S>], owner: &[u32]) {
        self.nodes = (0..owner.len())
            .map(|i| {
                let shard = &mut shards[owner[i] as usize];
                self.tag_k[i] = shard.tag_k[i];
                std::mem::replace(&mut shard.nodes[i], Node::switch())
            })
            .collect();
    }

    /// Push each `(time, tag, event)` onto the queue of the shard that owns
    /// it, keeping its canonical key.
    fn route(shards: &mut [Network<S>], owner: &[u32], entries: Vec<(SimTime, u64, Event)>) {
        for (at, tag, ev) in entries {
            let (Event::Arrive { node, .. }
            | Event::TxDone { node, .. }
            | Event::Timer { node, .. }
            | Event::NicSend { node, .. }
            | Event::LivelockDrill { node }) = &ev;
            shards[owner[node.0] as usize]
                .events
                .schedule_tagged(at, tag, ev);
        }
    }
}

/// Minimum propagation delay (ns) over all links crossing a shard
/// boundary — the conservative lookahead. `None` when no link crosses
/// (fully independent shards). Panics on a zero-delay cross link: it
/// would force zero-width windows.
fn lookahead_nanos<S: ShardSubscriber>(shards: &[Network<S>], owner: &[u32]) -> Option<u64> {
    let mut min: Option<u64> = None;
    for (i, &o) in owner.iter().enumerate() {
        for p in &shards[o as usize].nodes[i].ports {
            if owner[p.peer.0] != o {
                let d = p.delay.as_nanos();
                assert!(
                    d > 0,
                    "cross-shard link {}–{} has zero propagation delay: \
                     no conservative lookahead (keep zero-delay links inside one shard)",
                    i,
                    p.peer.0
                );
                min = Some(min.map_or(d, |m| m.min(d)));
            }
        }
    }
    min
}

/// One epoch's parallel phase: barrier-synchronized conservative windows
/// until every shard's next event is at or past `end` (ns).
///
/// Each worker carries its livelock [`ProgressGuard`] (when armed) into
/// its window bodies and runs every window under `catch_unwind`, so a
/// trip or a panicking shard becomes a [`SimError`] instead of stranding
/// the others at the barrier. With a stall budget (`stall_rounds`, or the
/// drill's default) every worker also runs the **barrier-stall
/// detector**: the conservative protocol guarantees the global minimum
/// next-event time `m` strictly increases every healthy round (all local
/// events below the window bound are consumed inside the window; every
/// cross-shard arrival lands at `≥ m + lookahead`), so a repeated `m` is
/// already pathological and a small round budget trips it. All workers
/// compute the same `m` sequence between the same barriers, so they trip
/// the detector — and observe a peer's failure flag — at the *same*
/// aligned point, which is what lets every thread leave the barrier
/// protocol together instead of hanging. When several shards fail in one
/// window, the lowest shard's error is reported, so the error replays too.
fn run_windows<S: ShardSubscriber>(
    shards: &mut [Network<S>],
    la: Option<u64>,
    end: u64,
    sup: &Supervision,
) -> Result<(), SimError> {
    let n = shards.len();
    let mailboxes: Vec<Mutex<Vec<OutMsg>>> = (0..n).map(|_| Mutex::new(Vec::new())).collect();
    let slots: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(u64::MAX)).collect();
    let barrier = Barrier::new(n);
    // The drill freezes window processing so `m` never advances; without
    // a stall budget that would spin forever, so the drill force-arms the
    // detector at its default budget.
    let stall_budget = sup
        .stall_rounds
        .or(sup.inject_stall.then_some(DEFAULT_STALL_ROUNDS));
    let failed = AtomicBool::new(false);
    let errors: Mutex<Vec<(usize, SimError)>> = Mutex::new(Vec::new());
    let stall_diags: Mutex<Vec<ShardDiag>> = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for (i, shard) in shards.iter_mut().enumerate() {
            let (mailboxes, slots, barrier) = (&mailboxes, &slots, &barrier);
            let (failed, errors, stall_diags) = (&failed, &errors, &stall_diags);
            scope.spawn(move || {
                let next =
                    |sh: &mut Network<S>| sh.next_key().map_or(u64::MAX, |(t, _)| t.as_nanos());
                let mut guard = sup.livelock_budget.map(ProgressGuard::new);
                // Stall detector state: same inputs on every worker, so
                // the counters advance in lockstep across threads.
                let mut last_m = u64::MAX;
                let mut frozen = 0u64;
                slots[i].store(next(shard), Ordering::Release);
                barrier.wait();
                loop {
                    // Every thread computes the same minimum from the same
                    // slot values (stable between the publishing barrier
                    // and the next flush barrier), so all make the same
                    // break/window/stall decision — no coordinator needed.
                    let m = slots
                        .iter()
                        .map(|s| s.load(Ordering::Acquire))
                        .min()
                        .unwrap_or(u64::MAX);
                    if m >= end {
                        break;
                    }
                    if m == last_m {
                        frozen += 1;
                    } else {
                        last_m = m;
                        frozen = 0;
                    }
                    if stall_budget.is_some_and(|b| frozen > b) {
                        lock(stall_diags).push(ShardDiag {
                            shard: i as u32,
                            clock_ns: next(shard),
                            pending: (shard.events.len() + shard.arrivals.len()) as u64,
                            oldest_key: shard.next_key().map(|(t, k)| (t.as_nanos(), k)),
                        });
                        break;
                    }
                    let hi = match la {
                        Some(l) => end.min(m.saturating_add(l)),
                        None => end,
                    };
                    // The drill skips processing entirely (freezing `m`).
                    if !sup.inject_stall {
                        let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                            shard.run_window(SimTime::from_nanos(hi), &mut guard)
                        }))
                        .unwrap_or_else(|p| {
                            Err(SimError::WorkerPanic {
                                msg: panic_payload_message(p.as_ref()),
                            })
                        });
                        if let Err(e) = res {
                            lock(errors).push((i, e));
                            failed.store(true, Ordering::Release);
                        }
                    }
                    for msg in shard.outbox.drain(..) {
                        lock(&mailboxes[msg.shard as usize]).push(msg);
                    }
                    barrier.wait(); // outboxes flushed, failure flags published
                    if failed.load(Ordering::Acquire) {
                        // Aligned exit: every worker is at this same point
                        // (same barrier count), so all leave together and
                        // nobody waits on a barrier that can't fill.
                        break;
                    }
                    for msg in lock(&mailboxes[i]).drain(..) {
                        shard.events.schedule_tagged(
                            msg.at,
                            msg.tag,
                            Event::Arrive {
                                node: msg.node,
                                pkt: msg.pkt,
                            },
                        );
                    }
                    slots[i].store(next(shard), Ordering::Release);
                    barrier.wait(); // next-event times published
                }
            });
        }
    });
    let errors = errors.into_inner().unwrap_or_else(PoisonError::into_inner);
    if let Some((_, e)) = errors.into_iter().min_by_key(|&(i, _)| i) {
        return Err(e);
    }
    let mut diags = stall_diags
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner);
    match stall_budget {
        Some(budget) if !diags.is_empty() => {
            diags.sort_unstable_by_key(|d| d.shard);
            Err(SimError::BarrierStall {
                rounds: budget + 1,
                budget,
                shards: diags,
            })
        }
        _ => Ok(()),
    }
}

/// Lock a protocol mutex. Poison is ignored: every window runs under
/// `catch_unwind`, so no worker unwinds while holding one.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Stringify a caught panic payload (the common `&str`/`String` cases).
fn panic_payload_message(p: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "worker panicked with a non-string payload".to_string()
    }
}

/// Serially process every queued event and flow arrival with key strictly
/// below `bound`, across all shards in global `(time, tag)` order,
/// delivering cross-shard sends immediately. Stops at the first step that
/// latches a trip.
fn drain_serial<S: ShardSubscriber>(
    shards: &mut [Network<S>],
    bound: (SimTime, u64),
) -> Result<(), SimError> {
    loop {
        let mut best: Option<(usize, (SimTime, u64))> = None;
        for (i, sh) in shards.iter_mut().enumerate() {
            if let Some(k) = sh.next_key() {
                if best.is_none_or(|(_, bk)| k < bk) {
                    best = Some((i, k));
                }
            }
        }
        match best {
            Some((i, k)) if k < bound => {
                shards[i].step_before(None);
                if let Some(e) = shards[i].tripped.take() {
                    return Err(e);
                }
                deliver_outbox(shards, i);
            }
            _ => return Ok(()),
        }
    }
}

/// Move shard `from`'s buffered cross-shard arrivals into their
/// destination queues (used outside the parallel phase, where direct
/// access replaces the mailboxes).
fn deliver_outbox<S: ShardSubscriber>(shards: &mut [Network<S>], from: usize) {
    let msgs = std::mem::take(&mut shards[from].outbox);
    for msg in msgs {
        shards[msg.shard as usize].events.schedule_tagged(
            msg.at,
            msg.tag,
            Event::Arrive {
                node: msg.node,
                pkt: msg.pkt,
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agent::{Agent, Ctx, FlowCmd};
    use crate::fault::FaultPlan;
    use crate::packet::Packet;
    use crate::port::PortConfig;
    use crate::topology;
    use ecnsharp_aqm::DropTail;
    use ecnsharp_sim::{Duration, Rate};

    /// Sends its flow as back-to-back MTU packets immediately, counts the
    /// echoed per-packet ACKs, and completes on the last one — a zero-size
    /// flow at once, inside its start step. Stateless congestion control
    /// keeps the test about the engine, not transport.
    struct Blaster {
        want: std::collections::BTreeMap<u64, u64>,
    }

    impl Agent for Blaster {
        fn on_packet(&mut self, ctx: &mut Ctx<'_>, pkt: Packet) {
            if pkt.flags().ack {
                let left = self.want.get_mut(&pkt.flow.0).expect("known flow");
                *left -= 1;
                if *left == 0 {
                    ctx.flow_done(pkt.flow, 0);
                }
            } else {
                ctx.send(Packet::ack(pkt.flow, pkt.dst, pkt.src, pkt.seq_end()));
            }
        }
        fn on_timer(&mut self, _: &mut Ctx<'_>, _: u64) {}
        fn on_flow_cmd(&mut self, ctx: &mut Ctx<'_>, cmd: FlowCmd) {
            let mut seq = 0;
            let mut pkts = 0;
            while seq < cmd.size {
                let bytes = 1460.min(cmd.size - seq);
                ctx.send(Packet::data(cmd.flow, cmd.src, cmd.dst, seq, bytes));
                seq += bytes;
                pkts += 1;
            }
            if pkts == 0 {
                ctx.flow_done(cmd.flow, 0);
            }
            self.want.insert(cmd.flow.0, pkts);
        }
    }

    fn cfg() -> PortConfig {
        PortConfig::fifo(60_000, Box::new(DropTail::new()))
    }

    /// 2 spines × 2 leaves × 4 hosts, all-to-all short flows plus an
    /// optional fault plan. Returns a fingerprint of everything that must
    /// be shard-invariant.
    fn run(shards: Option<&ShardPlan>, faults: bool) -> String {
        let ls = topology::leaf_spine(
            42,
            2,
            2,
            4,
            Rate::from_gbps(10),
            Rate::from_gbps(10),
            Duration::from_micros(1),
            |_| {
                Box::new(Blaster {
                    want: Default::default(),
                })
            },
            cfg,
            cfg,
        );
        let mut net = ls.net;
        if faults {
            net.install_fault_plan(
                FaultPlan::new()
                    .flap(
                        ls.leaves[0],
                        ls.spines[0],
                        SimTime::from_micros(3),
                        Duration::from_micros(15),
                        Duration::from_micros(10),
                        SimTime::from_micros(200),
                    )
                    .at(
                        SimTime::from_micros(40),
                        crate::fault::FaultAction::SetLinkRate {
                            a: ls.leaves[1],
                            b: ls.spines[1],
                            rate: Rate::from_gbps(1),
                        },
                    ),
            );
        }
        let n = ls.hosts.len() as u64;
        for f in 0..3 * n {
            let (src, dst) = ((f % n) as usize, ((f * 5 + 3) % n) as usize);
            if src == dst {
                continue;
            }
            net.schedule_flow(
                SimTime::from_nanos(137 * f),
                FlowCmd {
                    flow: crate::ids::FlowId(f),
                    src: ls.hosts[src],
                    dst: ls.hosts[dst],
                    size: 1460 * (1 + f % 7),
                    class: 0,
                    extra_delay: Duration::ZERO,
                },
            );
        }
        match shards {
            Some(plan) => net.run_sharded_until_idle(plan),
            None => net.run_until_idle(),
        };
        fingerprint(&net)
    }

    /// Everything that must be shard-invariant, as one comparable string.
    fn fingerprint<S: ShardSubscriber>(net: &Network<S>) -> String {
        let mut out = format!("now={:?} steps={} perf={:?}\n", net.now(), net.steps(), {
            // A sharded run's peak is the sum of its shards' (documented);
            // every other counter must match the serial run.
            let mut p = net.perf();
            p.peak_pending = 0;
            p
        });
        for node in 0..net.node_count() {
            let n = crate::ids::NodeId(node);
            for port in 0..net.nodes[node].ports.len() {
                out.push_str(&format!("{node}.{port} {:?}\n", net.port_stats(n, port)));
            }
        }
        out.push_str(&format!("records={:?}\n", net.records()));
        out
    }

    /// A k=4 fat-tree (16 hosts, 4 pods) with cross-pod flows that
    /// traverse the core; pod-granular shard plans from
    /// [`topology::FatTree::shard_plan`].
    fn run_ft(shards: Option<&ShardPlan>) -> String {
        let ft = topology::fat_tree(
            7,
            4,
            Rate::from_gbps(10),
            Rate::from_gbps(10),
            Duration::from_micros(1),
            |_| {
                Box::new(Blaster {
                    want: Default::default(),
                })
            },
            cfg,
            cfg,
        );
        let mut net = ft.net;
        let n = ft.hosts.len() as u64;
        // The first flow starts on host 4, in pod 1 — shard 1 under both
        // plans — so a split that handed the arrival list out by position
        // instead of by source would start it on the wrong shard. The last
        // starts after a quiet gap longer than the 1 ms lane horizon: its
        // shard's capped peek must move the lane cursor to it, or what it
        // sends spills past the lanes on that shard only. It stays
        // under one edge switch, so no shard sees it arrive on a lagging
        // clock (a real, shard-only spill).
        let flows = [(0, 4, 9)]
            .into_iter()
            .chain((1..2 * n).map(|f| (211 * f, f % n, (f * 7 + 5) % n)))
            .chain([(2_000_000, 0, 1)]);
        for (f, (at, src, dst)) in flows.enumerate() {
            if src == dst {
                continue;
            }
            net.schedule_flow(
                SimTime::from_nanos(at),
                FlowCmd {
                    flow: crate::ids::FlowId(f as u64),
                    src: ft.hosts[src as usize],
                    dst: ft.hosts[dst as usize],
                    size: 1460 * (1 + f as u64 % 5),
                    class: 0,
                    extra_delay: Duration::ZERO,
                },
            );
        }
        match shards {
            Some(plan) => net.run_sharded_until_idle(plan),
            None => net.run_until_idle(),
        };
        fingerprint(&net)
    }

    #[test]
    fn fat_tree_sharded_matches_serial() {
        // Same seed and shape → same node ids, so a throwaway instance
        // can supply the plans.
        let plan_of = |n_shards| {
            topology::fat_tree(
                7,
                4,
                Rate::from_gbps(10),
                Rate::from_gbps(10),
                Duration::from_micros(1),
                |_| Box::new(crate::agent::NullAgent),
                cfg,
                cfg,
            )
            .shard_plan(n_shards)
        };
        let serial = run_ft(None);
        assert_eq!(serial, run_ft(Some(&plan_of(2))), "2 shards");
        assert_eq!(serial, run_ft(Some(&plan_of(4))), "4 shards");
    }

    /// Hosts follow their leaf; leaves pair with a spine each.
    fn plan_for(n_shards: u32) -> ShardPlan {
        // Node order from `leaf_spine`: 8 hosts, then leaves [8, 9], then
        // spines [10, 11].
        let owner: Vec<u32> = (0..12)
            .map(|i| {
                let pod = match i {
                    0..=3 => 0, // hosts of leaf 0
                    4..=7 => 1, // hosts of leaf 1
                    8 => 0,     // leaf 0
                    9 => 1,     // leaf 1
                    10 => 0,    // spine 0
                    _ => 1,     // spine 1
                };
                pod % n_shards
            })
            .collect();
        ShardPlan::new(owner)
    }

    /// Four shards: each leaf's hosts, then leaves, then spines.
    fn plan_4way() -> ShardPlan {
        ShardPlan::new(vec![0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 3, 3])
    }

    /// A zero-size flow completes inside its start step, so the record's
    /// provenance is the arrival's own `(time, tag)`. Three such flows at
    /// one instant, from hosts on both shards and listed in their serial
    /// order, keep that order when the shards' records merge, while other
    /// flows keep both shards busy.
    #[test]
    fn zero_size_flows_keep_their_record_order_across_shards() {
        let run = |plan: Option<&ShardPlan>| {
            let ls = topology::leaf_spine(
                42,
                2,
                2,
                4,
                Rate::from_gbps(10),
                Rate::from_gbps(10),
                Duration::from_micros(1),
                |_| {
                    Box::new(Blaster {
                        want: Default::default(),
                    })
                },
                cfg,
                cfg,
            );
            let mut net = ls.net;
            let flows = [
                (10, 0, 6, 1460 * 20),
                (11, 5, 1, 1460 * 20),
                (1, 5, 0, 0),
                (2, 0, 5, 0),
                (3, 4, 1, 0),
            ];
            for (flow, src, dst, size) in flows {
                let at = if size == 0 { 7_000 } else { 0 };
                net.schedule_flow(
                    SimTime::from_nanos(at),
                    FlowCmd {
                        flow: crate::ids::FlowId(flow),
                        src: ls.hosts[src],
                        dst: ls.hosts[dst],
                        size,
                        class: 0,
                        extra_delay: Duration::ZERO,
                    },
                );
            }
            match plan {
                Some(plan) => net.run_sharded_until_idle(plan),
                None => net.run_until_idle(),
            };
            let zero: Vec<(u64, SimTime)> = net
                .records()
                .iter()
                .filter(|r| r.size == 0)
                .map(|r| (r.flow.0, r.finish))
                .collect();
            let at = SimTime::from_nanos(7_000);
            assert_eq!(zero, [(1, at), (2, at), (3, at)]);
            fingerprint(&net)
        };
        let serial = run(None);
        assert_eq!(serial, run(Some(&plan_for(2))), "2 shards");
    }

    #[test]
    fn sharded_run_matches_serial_exactly() {
        let serial = run(None, false);
        assert_eq!(serial, run(Some(&plan_for(2)), false), "2 shards");
        assert_eq!(serial, run(Some(&plan_4way()), false), "4 shards");
        assert!(serial.contains("records="), "fingerprint sane");
    }

    #[test]
    fn sharded_run_matches_serial_under_faults() {
        let serial = run(None, true);
        assert_eq!(serial, run(Some(&plan_for(2)), true), "2 shards + faults");
        assert_eq!(serial, run(Some(&plan_4way()), true), "4 shards + faults");
    }

    #[test]
    fn single_shard_plan_falls_back_to_serial() {
        let serial = run(None, true);
        assert_eq!(serial, run(Some(&plan_for(1)), true));
    }

    /// Panics on the first packet it receives.
    struct Tripwire;

    impl Agent for Tripwire {
        fn on_packet(&mut self, _: &mut Ctx<'_>, pkt: Packet) {
            panic!("tripwire hit by flow {}", pkt.flow.0);
        }
        fn on_timer(&mut self, _: &mut Ctx<'_>, _: u64) {}
        fn on_flow_cmd(&mut self, _: &mut Ctx<'_>, _: FlowCmd) {}
    }

    /// The 2×2×4 leaf-spine with a [`Tripwire`] on host 5 (shard 1 of
    /// [`plan_for`]`(2)`), hit by a flow from host 0 while host 1 keeps
    /// shard 0 busy. Default supervision: no budget is set.
    fn tripwire_net() -> Network {
        let ls = topology::leaf_spine(
            42,
            2,
            2,
            4,
            Rate::from_gbps(10),
            Rate::from_gbps(10),
            Duration::from_micros(1),
            |h| -> Box<dyn Agent> {
                if h == 5 {
                    Box::new(Tripwire)
                } else {
                    Box::new(Blaster {
                        want: Default::default(),
                    })
                }
            },
            cfg,
            cfg,
        );
        let mut net = ls.net;
        for (flow, src, dst) in [(1, 1, 2), (99, 0, 5)] {
            net.schedule_flow(
                SimTime::ZERO,
                FlowCmd {
                    flow: crate::ids::FlowId(flow),
                    src: ls.hosts[src],
                    dst: ls.hosts[dst],
                    size: 1460 * 40,
                    class: 0,
                    extra_delay: Duration::ZERO,
                },
            );
        }
        net
    }

    /// `f` on its own thread, waited for at most 30 s: an engine that
    /// deadlocks fails the test instead of hanging the suite.
    fn within_deadline<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let _ = tx.send(f());
        });
        rx.recv_timeout(std::time::Duration::from_secs(30))
            .unwrap_or_else(|e| panic!("the sharded run did not return within 30 s: {e}"))
    }

    #[test]
    fn a_panicking_shard_fails_the_run_instead_of_hanging() {
        let res = within_deadline(|| {
            tripwire_net()
                .try_run_sharded_until_idle(&plan_for(2))
                .map(drop)
        });
        match res {
            Err(SimError::WorkerPanic { msg }) => {
                assert_eq!(msg, "tripwire hit by flow 99");
            }
            other => panic!("expected WorkerPanic, got {other:?}"),
        }
        let msg = within_deadline(|| {
            let mut net = tripwire_net();
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                net.run_sharded_until_idle(&plan_for(2))
            }))
            .map_err(|p| panic_payload_message(p.as_ref()))
        })
        .expect_err("the infallible entry point must panic");
        assert!(
            msg.contains("WorkerPanic") && msg.contains("tripwire hit by flow 99"),
            "{msg}"
        );
    }

    #[test]
    #[should_panic(expected = "owns no nodes")]
    fn plan_rejects_gaps() {
        let _ = ShardPlan::new(vec![0, 2]);
    }

    #[test]
    #[should_panic(expected = "zero propagation delay")]
    fn zero_delay_cross_link_is_rejected() {
        let mut net = Network::new(1);
        let a = net.add_host(Box::new(crate::agent::NullAgent));
        let b = net.add_host(Box::new(crate::agent::NullAgent));
        net.connect(a, cfg(), b, cfg(), Rate::from_gbps(10), Duration::ZERO);
        net.compute_routes();
        net.run_sharded_until_idle(&ShardPlan::new(vec![0, 1]));
    }
}
