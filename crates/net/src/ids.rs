//! Identifier newtypes for nodes, ports and flows.

use core::fmt;

/// Index of a node (host or switch) within a [`crate::Network`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub usize);

/// Index of a port within its node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PortId(pub usize);

/// Globally unique flow identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FlowId(pub u64);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for PortId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

impl fmt::Display for FlowId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "f{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display() {
        assert_eq!(NodeId(3).to_string(), "n3");
        assert_eq!(PortId(1).to_string(), "p1");
        assert_eq!(FlowId(42).to_string(), "f42");
    }

    #[test]
    #[expect(
        clippy::disallowed_types,
        reason = "exercises the Hash impl; iteration order is never observed"
    )]
    fn hashable_and_ordered() {
        use std::collections::HashMap;
        let mut m = HashMap::new();
        m.insert(FlowId(1), "a");
        assert_eq!(m[&FlowId(1)], "a");
        assert!(NodeId(1) < NodeId(2));
    }
}
