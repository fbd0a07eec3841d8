//! Topology builders for the paper's experiment shapes:
//!
//! - [`star`] — N hosts on one switch (the 8-server testbed of §5.2 and the
//!   16→1 incast microscope of §5.4);
//! - [`leaf_spine`] — the §5.3 large-scale fabric (8 spines × 8 leaves × 16
//!   hosts, ECMP);
//! - [`fat_tree`] — a three-tier k-ary fat-tree (k pods, k³/4 hosts) for
//!   datacenter-scale sharded runs;
//! - [`dumbbell`] — two hosts across two switches with a single bottleneck
//!   link (unit-test workhorse).
//!
//! Each multi-switch shape exposes a `shard_plan(n)` constructor that cuts
//! the fabric along natural boundaries (per-leaf, per-pod) for
//! [`Network::run_sharded_until_idle`](crate::Network::run_sharded_until_idle).

use crate::agent::Agent;
use crate::ids::NodeId;
use crate::network::Network;
use crate::port::PortConfig;
use crate::shard::ShardPlan;
use ecnsharp_sim::{Duration, Rate};
use ecnsharp_telemetry::{NoopSubscriber, Subscriber};

/// A star network: every host connects to one switch.
pub struct Star<S: Subscriber = NoopSubscriber> {
    /// The network, routes computed.
    pub net: Network<S>,
    /// Host ids, in creation order.
    pub hosts: Vec<NodeId>,
    /// The central switch.
    pub switch: NodeId,
}

/// Build a [`Star`].
///
/// `agent(i)` supplies host `i`'s agent, `host_port()` each host NIC's
/// config, and `switch_port()` each switch egress port's config (this is
/// where the AQM under test goes).
pub fn star(
    seed: u64,
    n_hosts: usize,
    rate: Rate,
    delay: Duration,
    agent: impl FnMut(usize) -> Box<dyn Agent>,
    host_port: impl FnMut() -> PortConfig,
    switch_port: impl FnMut() -> PortConfig,
) -> Star {
    star_with_subscriber(
        seed,
        n_hosts,
        rate,
        delay,
        agent,
        host_port,
        switch_port,
        NoopSubscriber,
    )
}

/// [`star`] with a telemetry subscriber attached from the first event.
#[expect(
    clippy::too_many_arguments,
    reason = "`star`'s seven arguments plus the subscriber"
)]
pub fn star_with_subscriber<S: Subscriber>(
    seed: u64,
    n_hosts: usize,
    rate: Rate,
    delay: Duration,
    mut agent: impl FnMut(usize) -> Box<dyn Agent>,
    mut host_port: impl FnMut() -> PortConfig,
    mut switch_port: impl FnMut() -> PortConfig,
    sub: S,
) -> Star<S> {
    assert!(n_hosts >= 2, "a star needs at least two hosts");
    let mut net = Network::with_subscriber(seed, sub);
    let hosts: Vec<NodeId> = (0..n_hosts).map(|i| net.add_host(agent(i))).collect();
    let switch = net.add_switch();
    for &h in &hosts {
        net.connect(h, host_port(), switch, switch_port(), rate, delay);
    }
    net.compute_routes();
    Star { net, hosts, switch }
}

impl<S: Subscriber> Star<S> {
    /// A [`ShardPlan`] spreading hosts round-robin over `n_shards` shards,
    /// with the switch on shard 0.
    ///
    /// Mostly useful for testing the sharded runner against a trivial
    /// shape; every host↔switch link crosses a shard boundary, so the
    /// lookahead is the star's single link delay.
    ///
    /// # Panics
    ///
    /// If `n_shards` is zero or exceeds the host count.
    ///
    /// ```
    /// use ecnsharp_net::topology::star;
    /// use ecnsharp_net::{NullAgent, PortConfig};
    /// use ecnsharp_aqm::DropTail;
    /// use ecnsharp_sim::{Duration, Rate};
    ///
    /// let cfg = || PortConfig::fifo(1_000_000, Box::new(DropTail::new()));
    /// let s = star(7, 4, Rate::from_gbps(10), Duration::from_micros(1),
    ///              |_| Box::new(NullAgent), cfg, cfg);
    /// let plan = s.shard_plan(2);
    /// assert_eq!(plan.shard_count(), 2);
    /// ```
    pub fn shard_plan(&self, n_shards: u32) -> ShardPlan {
        assert!(
            n_shards >= 1 && (n_shards as usize) <= self.hosts.len(),
            "star shard_plan needs 1..=n_hosts shards"
        );
        let mut owner = vec![0u32; self.net.node_count()];
        for (i, &h) in self.hosts.iter().enumerate() {
            owner[h.0] = i as u32 % n_shards;
        }
        owner[self.switch.0] = 0;
        ShardPlan::new(owner)
    }
}

/// A two-tier leaf–spine fabric.
pub struct LeafSpine<S: Subscriber = NoopSubscriber> {
    /// The network, routes computed.
    pub net: Network<S>,
    /// All hosts; host `i` hangs off leaf `i / hosts_per_leaf`.
    pub hosts: Vec<NodeId>,
    /// Leaf switches.
    pub leaves: Vec<NodeId>,
    /// Spine switches.
    pub spines: Vec<NodeId>,
    /// Hosts per leaf (for index arithmetic).
    pub hosts_per_leaf: usize,
}

impl<S: Subscriber> LeafSpine<S> {
    /// The leaf switch serving `host`.
    pub fn leaf_of(&self, host_idx: usize) -> NodeId {
        self.leaves[host_idx / self.hosts_per_leaf]
    }

    /// A [`ShardPlan`] cutting the fabric per leaf: each leaf, together
    /// with all of its hosts, goes to shard `leaf % n_shards`; spines are
    /// spread round-robin the same way.
    ///
    /// Host↔leaf links then never cross a shard boundary, so the
    /// conservative lookahead is the leaf↔spine delay and the chatty
    /// edge traffic stays intra-shard.
    ///
    /// # Panics
    ///
    /// If `n_shards` is zero or exceeds the leaf count.
    ///
    /// ```
    /// use ecnsharp_net::topology::leaf_spine;
    /// use ecnsharp_net::{NullAgent, PortConfig};
    /// use ecnsharp_aqm::DropTail;
    /// use ecnsharp_sim::{Duration, Rate};
    ///
    /// let cfg = || PortConfig::fifo(1_000_000, Box::new(DropTail::new()));
    /// let ls = leaf_spine(7, 2, 4, 4, Rate::from_gbps(10), Rate::from_gbps(10),
    ///                     Duration::from_micros(1), |_| Box::new(NullAgent), cfg, cfg);
    /// let plan = ls.shard_plan(4);
    /// assert_eq!(plan.shard_count(), 4);
    /// // Hosts follow their leaf.
    /// assert_eq!(plan.owner_of(ls.hosts[0]), plan.owner_of(ls.leaves[0]));
    /// ```
    pub fn shard_plan(&self, n_shards: u32) -> ShardPlan {
        assert!(
            n_shards >= 1 && (n_shards as usize) <= self.leaves.len(),
            "leaf_spine shard_plan needs 1..=n_leaves shards"
        );
        let mut owner = vec![0u32; self.net.node_count()];
        for (l, &leaf) in self.leaves.iter().enumerate() {
            owner[leaf.0] = l as u32 % n_shards;
        }
        for (i, &h) in self.hosts.iter().enumerate() {
            owner[h.0] = (i / self.hosts_per_leaf) as u32 % n_shards;
        }
        for (s, &spine) in self.spines.iter().enumerate() {
            owner[spine.0] = s as u32 % n_shards;
        }
        ShardPlan::new(owner)
    }
}

/// Build a [`LeafSpine`] with every leaf connected to every spine.
///
/// `edge_rate`/`fabric_rate` are the host-to-leaf and leaf-to-spine link
/// rates (the paper uses 10 Gbps for both).
#[expect(
    clippy::too_many_arguments,
    reason = "one argument per fabric dimension, link rate and port factory, as the figures name them"
)]
pub fn leaf_spine(
    seed: u64,
    n_spines: usize,
    n_leaves: usize,
    hosts_per_leaf: usize,
    edge_rate: Rate,
    fabric_rate: Rate,
    delay: Duration,
    agent: impl FnMut(usize) -> Box<dyn Agent>,
    host_port: impl FnMut() -> PortConfig,
    switch_port: impl FnMut() -> PortConfig,
) -> LeafSpine {
    leaf_spine_with_subscriber(
        seed,
        n_spines,
        n_leaves,
        hosts_per_leaf,
        edge_rate,
        fabric_rate,
        delay,
        agent,
        host_port,
        switch_port,
        NoopSubscriber,
    )
}

/// [`leaf_spine`] with a telemetry subscriber attached from the first event.
#[expect(
    clippy::too_many_arguments,
    reason = "`leaf_spine`'s ten arguments plus the subscriber"
)]
pub fn leaf_spine_with_subscriber<S: Subscriber>(
    seed: u64,
    n_spines: usize,
    n_leaves: usize,
    hosts_per_leaf: usize,
    edge_rate: Rate,
    fabric_rate: Rate,
    delay: Duration,
    mut agent: impl FnMut(usize) -> Box<dyn Agent>,
    mut host_port: impl FnMut() -> PortConfig,
    mut switch_port: impl FnMut() -> PortConfig,
    sub: S,
) -> LeafSpine<S> {
    assert!(n_spines >= 1 && n_leaves >= 1 && hosts_per_leaf >= 1);
    let mut net = Network::with_subscriber(seed, sub);
    let hosts: Vec<NodeId> = (0..n_leaves * hosts_per_leaf)
        .map(|i| net.add_host(agent(i)))
        .collect();
    let leaves: Vec<NodeId> = (0..n_leaves).map(|_| net.add_switch()).collect();
    let spines: Vec<NodeId> = (0..n_spines).map(|_| net.add_switch()).collect();
    for (i, &h) in hosts.iter().enumerate() {
        let leaf = leaves[i / hosts_per_leaf];
        net.connect(h, host_port(), leaf, switch_port(), edge_rate, delay);
    }
    for &leaf in &leaves {
        for &spine in &spines {
            net.connect(
                leaf,
                switch_port(),
                spine,
                switch_port(),
                fabric_rate,
                delay,
            );
        }
    }
    net.compute_routes();
    LeafSpine {
        net,
        hosts,
        leaves,
        spines,
        hosts_per_leaf,
    }
}

/// A three-tier k-ary fat-tree.
///
/// The classic Clos construction: `k` pods, each with `k/2` edge switches
/// and `k/2` aggregation switches, plus `(k/2)²` core switches. Each edge
/// switch serves `k/2` hosts, giving `k³/4` hosts in total (k=8 → 128,
/// k=16 → 1024).
///
/// Node creation is **pod-contiguous** — pod 0's hosts, edges and aggs get
/// the lowest ids, then pod 1's, …, with cores last — so [`shard_plan`]
/// cuts on pod boundaries with only agg↔core links crossing shards.
///
/// [`shard_plan`]: FatTree::shard_plan
pub struct FatTree<S: Subscriber = NoopSubscriber> {
    /// The network, routes computed.
    pub net: Network<S>,
    /// Pod fan-out degree (even, ≥ 2).
    pub k: usize,
    /// All `k³/4` hosts, pod-major: host `i` lives in pod
    /// `i / (k²/4)` under edge switch `(i / (k/2)) % (k/2)`.
    pub hosts: Vec<NodeId>,
    /// Edge switches, pod-major (`k/2` per pod).
    pub edges: Vec<NodeId>,
    /// Aggregation switches, pod-major (`k/2` per pod).
    pub aggs: Vec<NodeId>,
    /// Core switches (`(k/2)²`); core `c` peers with agg `c / (k/2)` of
    /// every pod.
    pub cores: Vec<NodeId>,
}

impl<S: Subscriber> FatTree<S> {
    /// Hosts per pod, `k²/4`.
    pub fn hosts_per_pod(&self) -> usize {
        self.k * self.k / 4
    }

    /// The pod housing host `host_idx`.
    pub fn pod_of(&self, host_idx: usize) -> usize {
        host_idx / self.hosts_per_pod()
    }

    /// A [`ShardPlan`] cutting the tree per pod: pod `p` (hosts, edge and
    /// agg switches) goes to shard `p % n_shards`; core switches are
    /// spread round-robin.
    ///
    /// Only agg↔core links cross shard boundaries, so the conservative
    /// lookahead is the core-link delay and all intra-pod traffic stays
    /// shard-local.
    ///
    /// # Panics
    ///
    /// If `n_shards` is zero or exceeds the pod count `k`.
    ///
    /// ```
    /// use ecnsharp_net::topology::fat_tree;
    /// use ecnsharp_net::{NullAgent, PortConfig};
    /// use ecnsharp_aqm::DropTail;
    /// use ecnsharp_sim::{Duration, Rate};
    ///
    /// let cfg = || PortConfig::fifo(1_000_000, Box::new(DropTail::new()));
    /// let ft = fat_tree(7, 4, Rate::from_gbps(10), Rate::from_gbps(10),
    ///                   Duration::from_micros(1), |_| Box::new(NullAgent), cfg, cfg);
    /// assert_eq!(ft.hosts.len(), 16); // k³/4
    /// let plan = ft.shard_plan(4);
    /// assert_eq!(plan.shard_count(), 4);
    /// // A pod's hosts and switches share a shard.
    /// assert_eq!(plan.owner_of(ft.hosts[0]), plan.owner_of(ft.edges[0]));
    /// assert_eq!(plan.owner_of(ft.hosts[0]), plan.owner_of(ft.aggs[0]));
    /// ```
    pub fn shard_plan(&self, n_shards: u32) -> ShardPlan {
        assert!(
            n_shards >= 1 && (n_shards as usize) <= self.k,
            "fat_tree shard_plan needs 1..=k shards"
        );
        let half = self.k / 2;
        let mut owner = vec![0u32; self.net.node_count()];
        for (i, &h) in self.hosts.iter().enumerate() {
            owner[h.0] = self.pod_of(i) as u32 % n_shards;
        }
        for (e, &edge) in self.edges.iter().enumerate() {
            owner[edge.0] = (e / half) as u32 % n_shards;
        }
        for (a, &agg) in self.aggs.iter().enumerate() {
            owner[agg.0] = (a / half) as u32 % n_shards;
        }
        for (c, &core) in self.cores.iter().enumerate() {
            owner[core.0] = c as u32 % n_shards;
        }
        ShardPlan::new(owner)
    }
}

/// Build a [`FatTree`].
///
/// `edge_rate` drives host↔edge links; `fabric_rate` drives edge↔agg and
/// agg↔core links (the paper's fabrics run both at 10 Gbps). `agent(i)`
/// supplies host `i`'s agent in pod-major order.
///
/// # Panics
///
/// If `k` is odd or less than 2.
#[expect(
    clippy::too_many_arguments,
    reason = "one argument per fabric dimension, link rate and port factory, as the figures name them"
)]
pub fn fat_tree(
    seed: u64,
    k: usize,
    edge_rate: Rate,
    fabric_rate: Rate,
    delay: Duration,
    agent: impl FnMut(usize) -> Box<dyn Agent>,
    host_port: impl FnMut() -> PortConfig,
    switch_port: impl FnMut() -> PortConfig,
) -> FatTree {
    fat_tree_with_subscriber(
        seed,
        k,
        edge_rate,
        fabric_rate,
        delay,
        agent,
        host_port,
        switch_port,
        NoopSubscriber,
    )
}

/// [`fat_tree`] with a telemetry subscriber attached from the first event.
#[expect(
    clippy::too_many_arguments,
    reason = "`fat_tree`'s eight arguments plus the subscriber"
)]
pub fn fat_tree_with_subscriber<S: Subscriber>(
    seed: u64,
    k: usize,
    edge_rate: Rate,
    fabric_rate: Rate,
    delay: Duration,
    mut agent: impl FnMut(usize) -> Box<dyn Agent>,
    mut host_port: impl FnMut() -> PortConfig,
    mut switch_port: impl FnMut() -> PortConfig,
    sub: S,
) -> FatTree<S> {
    assert!(
        k >= 2 && k.is_multiple_of(2),
        "fat-tree k must be even and >= 2"
    );
    let half = k / 2;
    let hosts_per_pod = half * half;
    let mut net = Network::with_subscriber(seed, sub);
    let mut hosts = Vec::with_capacity(k * hosts_per_pod);
    let mut edges = Vec::with_capacity(k * half);
    let mut aggs = Vec::with_capacity(k * half);
    // Pod-contiguous ids: all of pod p's nodes precede pod p+1's.
    for p in 0..k {
        for h in 0..hosts_per_pod {
            hosts.push(net.add_host(agent(p * hosts_per_pod + h)));
        }
        for _ in 0..half {
            edges.push(net.add_switch());
        }
        for _ in 0..half {
            aggs.push(net.add_switch());
        }
    }
    let cores: Vec<NodeId> = (0..half * half).map(|_| net.add_switch()).collect();
    for p in 0..k {
        // Edge switch e serves hosts [e*half, (e+1)*half) of its pod.
        for e in 0..half {
            let edge = edges[p * half + e];
            for h in 0..half {
                let host = hosts[p * hosts_per_pod + e * half + h];
                net.connect(host, host_port(), edge, switch_port(), edge_rate, delay);
            }
            // Full edge↔agg bipartite graph within the pod.
            for a in 0..half {
                net.connect(
                    edge,
                    switch_port(),
                    aggs[p * half + a],
                    switch_port(),
                    fabric_rate,
                    delay,
                );
            }
        }
        // Agg switch a uplinks to core group a: cores [a*half, (a+1)*half).
        for a in 0..half {
            let agg = aggs[p * half + a];
            for c in 0..half {
                net.connect(
                    agg,
                    switch_port(),
                    cores[a * half + c],
                    switch_port(),
                    fabric_rate,
                    delay,
                );
            }
        }
    }
    net.compute_routes();
    FatTree {
        net,
        k,
        hosts,
        edges,
        aggs,
        cores,
    }
}

/// A dumbbell: `a — s1 — s2 — b`, with the `s1→s2` link as the bottleneck.
pub struct Dumbbell {
    /// The network, routes computed.
    pub net: Network,
    /// Left host.
    pub a: NodeId,
    /// Right host.
    pub b: NodeId,
    /// Left switch.
    pub s1: NodeId,
    /// Right switch.
    pub s2: NodeId,
    /// `s1`'s egress port index on the bottleneck.
    pub bottleneck_port: usize,
}

/// Build a [`Dumbbell`]. Edge links run at `edge_rate`; the middle link at
/// `bottleneck_rate` with `bottleneck_port()` as its (AQM-bearing) config.
#[expect(
    clippy::too_many_arguments,
    reason = "each end's agent and the bottleneck port are separate arguments"
)]
pub fn dumbbell(
    seed: u64,
    edge_rate: Rate,
    bottleneck_rate: Rate,
    delay: Duration,
    agent_a: Box<dyn Agent>,
    agent_b: Box<dyn Agent>,
    mut plain_port: impl FnMut() -> PortConfig,
    bottleneck_port_cfg: PortConfig,
) -> Dumbbell {
    let mut net = Network::new(seed);
    let a = net.add_host(agent_a);
    let b = net.add_host(agent_b);
    let s1 = net.add_switch();
    let s2 = net.add_switch();
    net.connect(a, plain_port(), s1, plain_port(), edge_rate, delay);
    let (p1, _) = net.connect(
        s1,
        bottleneck_port_cfg,
        s2,
        plain_port(),
        bottleneck_rate,
        delay,
    );
    net.connect(s2, plain_port(), b, plain_port(), edge_rate, delay);
    net.compute_routes();
    Dumbbell {
        net,
        a,
        b,
        s1,
        s2,
        bottleneck_port: p1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agent::NullAgent;
    use ecnsharp_aqm::DropTail;

    fn cfg() -> PortConfig {
        PortConfig::fifo(1_000_000, Box::new(DropTail::new()))
    }

    #[test]
    fn star_shape() {
        let s = star(
            1,
            8,
            Rate::from_gbps(10),
            Duration::from_micros(1),
            |_| Box::new(NullAgent),
            cfg,
            cfg,
        );
        assert_eq!(s.hosts.len(), 8);
        assert_eq!(s.net.node_count(), 9);
        // Every host reachable from the switch on a distinct port.
        for &h in &s.hosts {
            assert!(s.net.port_towards(s.switch, h).is_some());
        }
    }

    #[test]
    fn leaf_spine_shape() {
        let ls = leaf_spine(
            1,
            8,
            8,
            16,
            Rate::from_gbps(10),
            Rate::from_gbps(10),
            Duration::from_micros(1),
            |_| Box::new(NullAgent),
            cfg,
            cfg,
        );
        assert_eq!(ls.hosts.len(), 128);
        assert_eq!(ls.leaves.len(), 8);
        assert_eq!(ls.spines.len(), 8);
        assert_eq!(ls.net.node_count(), 128 + 16);
        assert_eq!(ls.leaf_of(0), ls.leaves[0]);
        assert_eq!(ls.leaf_of(127), ls.leaves[7]);
        // Each leaf has 16 host ports + 8 spine ports.
        for &leaf in &ls.leaves {
            for &spine in &ls.spines {
                assert!(ls.net.port_towards(leaf, spine).is_some());
            }
        }
    }

    #[test]
    fn fat_tree_shape() {
        let ft = fat_tree(
            1,
            4,
            Rate::from_gbps(10),
            Rate::from_gbps(10),
            Duration::from_micros(1),
            |_| Box::new(NullAgent),
            cfg,
            cfg,
        );
        assert_eq!(ft.hosts.len(), 16);
        assert_eq!(ft.edges.len(), 8);
        assert_eq!(ft.aggs.len(), 8);
        assert_eq!(ft.cores.len(), 4);
        assert_eq!(ft.net.node_count(), 16 + 8 + 8 + 4);
        assert_eq!(ft.hosts_per_pod(), 4);
        assert_eq!(ft.pod_of(0), 0);
        assert_eq!(ft.pod_of(15), 3);
        // Host 0 hangs off edge 0; edges see every agg in their pod.
        assert!(ft.net.port_towards(ft.hosts[0], ft.edges[0]).is_some());
        assert!(ft.net.port_towards(ft.edges[0], ft.aggs[0]).is_some());
        assert!(ft.net.port_towards(ft.edges[0], ft.aggs[1]).is_some());
        // Each agg uplinks to its own core group only.
        assert!(ft.net.port_towards(ft.aggs[0], ft.cores[0]).is_some());
        assert!(ft.net.port_towards(ft.aggs[0], ft.cores[1]).is_some());
        assert!(ft.net.port_towards(ft.aggs[0], ft.cores[2]).is_none());
        // Core 0 peers with agg 0 of every pod.
        for p in 0..4 {
            assert!(ft.net.port_towards(ft.cores[0], ft.aggs[p * 2]).is_some());
            assert!(ft
                .net
                .port_towards(ft.cores[0], ft.aggs[p * 2 + 1])
                .is_none());
        }
    }

    #[test]
    fn fat_tree_k8_scale() {
        let ft = fat_tree(
            1,
            8,
            Rate::from_gbps(10),
            Rate::from_gbps(10),
            Duration::from_micros(1),
            |_| Box::new(NullAgent),
            cfg,
            cfg,
        );
        assert_eq!(ft.hosts.len(), 128);
        assert_eq!(ft.cores.len(), 16);
        assert_eq!(ft.net.node_count(), 128 + 32 + 32 + 16);
        let plan = ft.shard_plan(8);
        assert_eq!(plan.shard_count(), 8);
    }

    #[test]
    fn shard_plans_keep_pods_together() {
        let ft = fat_tree(
            1,
            4,
            Rate::from_gbps(10),
            Rate::from_gbps(10),
            Duration::from_micros(1),
            |_| Box::new(NullAgent),
            cfg,
            cfg,
        );
        let plan = ft.shard_plan(2);
        for i in 0..ft.hosts.len() {
            let pod = ft.pod_of(i);
            assert_eq!(
                plan.owner_of(ft.hosts[i]),
                plan.owner_of(ft.edges[pod * 2]),
                "host {i} must share a shard with its pod's switches"
            );
        }

        let ls = leaf_spine(
            1,
            2,
            4,
            4,
            Rate::from_gbps(10),
            Rate::from_gbps(10),
            Duration::from_micros(1),
            |_| Box::new(NullAgent),
            cfg,
            cfg,
        );
        let plan = ls.shard_plan(2);
        for i in 0..ls.hosts.len() {
            assert_eq!(
                plan.owner_of(ls.hosts[i]),
                plan.owner_of(ls.leaf_of(i)),
                "host {i} must share a shard with its leaf"
            );
        }
    }

    #[test]
    #[should_panic(expected = "1..=k shards")]
    fn fat_tree_plan_rejects_too_many_shards() {
        let ft = fat_tree(
            1,
            4,
            Rate::from_gbps(10),
            Rate::from_gbps(10),
            Duration::from_micros(1),
            |_| Box::new(NullAgent),
            cfg,
            cfg,
        );
        let _ = ft.shard_plan(5);
    }

    #[test]
    fn dumbbell_shape() {
        let d = dumbbell(
            1,
            Rate::from_gbps(40),
            Rate::from_gbps(10),
            Duration::from_micros(1),
            Box::new(NullAgent),
            Box::new(NullAgent),
            cfg,
            cfg(),
        );
        assert_eq!(d.net.node_count(), 4);
        assert_eq!(d.net.port_towards(d.s1, d.s2), Some(d.bottleneck_port));
    }

    #[test]
    #[should_panic(expected = "at least two hosts")]
    fn star_needs_two_hosts() {
        let _ = star(
            1,
            1,
            Rate::from_gbps(10),
            Duration::from_micros(1),
            |_| Box::new(NullAgent),
            cfg,
            cfg,
        );
    }
}
