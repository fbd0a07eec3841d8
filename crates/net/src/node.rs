//! Nodes: hosts (with agents) and switches (with routing tables).

use crate::agent::Agent;
use crate::arena::RingArena;
use crate::port::EgressPort;

/// What kind of node this is.
pub enum NodeKind {
    /// An endpoint running an [`Agent`].
    Host {
        /// The endpoint logic.
        agent: Box<dyn Agent>,
    },
    /// A store-and-forward switch.
    Switch,
}

/// One node of the network.
pub struct Node {
    /// Host or switch.
    pub kind: NodeKind,
    /// Egress ports, in attachment order.
    pub ports: Vec<EgressPort>,
    /// ECMP forwarding table, computed by
    /// [`crate::Network::compute_routes`]: the egress ports on a shortest
    /// path towards node `dst` (several = an ECMP fan) are
    /// `route_hops[route_off[dst] .. route_off[dst + 1]]`. Two flat arrays
    /// keep the per-packet lookup on the hottest switch path to two
    /// contiguous reads. Only switches read it; hosts always use port 0.
    pub(crate) route_off: Vec<u32>,
    pub(crate) route_hops: Vec<u16>,
    /// Pooled ring storage shared by this node's switch-port FIFOs: one
    /// contiguous slot block instead of a heap `VecDeque` per port (see
    /// [`crate::arena`]). Empty for hosts and DWRR-scheduled ports.
    pub(crate) arena: RingArena,
}

impl Node {
    pub(crate) fn host(agent: Box<dyn Agent>) -> Self {
        Node {
            kind: NodeKind::Host { agent },
            ports: Vec::new(),
            route_off: Vec::new(),
            route_hops: Vec::new(),
            arena: RingArena::new(),
        }
    }

    pub(crate) fn switch() -> Self {
        Node {
            kind: NodeKind::Switch,
            ports: Vec::new(),
            route_off: Vec::new(),
            route_hops: Vec::new(),
            arena: RingArena::new(),
        }
    }

    /// Is this node a host?
    pub fn is_host(&self) -> bool {
        matches!(self.kind, NodeKind::Host { .. })
    }
}
