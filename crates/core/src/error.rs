//! Error types for islandization and island execution.

use std::error::Error;
use std::fmt;

/// Errors raised by partition validation and island execution.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum CoreError {
    /// A node was left unclassified, or classified more than once.
    ClassificationViolation {
        /// The offending node.
        node: u32,
        /// Human-readable description.
        detail: String,
    },
    /// An edge was covered zero or multiple times by the partition's tasks.
    CoverageViolation {
        /// Source endpoint.
        from: u32,
        /// Destination endpoint.
        to: u32,
        /// Number of times the edge was covered.
        times: usize,
    },
    /// An island exceeded `c_max`.
    IslandTooLarge {
        /// Index of the island in the partition.
        island: usize,
        /// Number of nodes in the island.
        size: usize,
        /// The configured bound.
        c_max: usize,
    },
    /// An island node has a neighbor that is neither in the island nor a
    /// hub — the "space between L-shapes" would not be blank.
    ClosureViolation {
        /// The island node.
        node: u32,
        /// Its out-of-island, non-hub neighbor.
        neighbor: u32,
    },
    /// The graph passed to islandization contained self-loops (strip them
    /// first; GCN self-contributions are handled by the normalisation).
    SelfLoops {
        /// A node with a self-loop.
        node: u32,
    },
    /// The locator exceeded its round bound without classifying every node.
    RoundLimitExceeded {
        /// The configured bound.
        max_rounds: u32,
        /// Nodes still unclassified.
        remaining: usize,
    },
    /// A dimension of a request, weight matrix or graph update does not
    /// match what the backend expects.
    ShapeMismatch {
        /// Which dimension mismatched, e.g. `"feature rows vs graph
        /// nodes"`.
        what: String,
        /// The expected size.
        expected: usize,
        /// The size actually supplied.
        got: usize,
    },
    /// `infer`/`report` was called before `prepare` installed a model.
    NotPrepared {
        /// Name of the backend that was not prepared.
        backend: String,
    },
    /// The graph has no nodes or no edges — there is nothing to
    /// islandize or aggregate, so the engine refuses to build rather
    /// than panic deep inside the locator or consumer.
    EmptyGraph {
        /// Node count of the offending graph.
        num_nodes: usize,
        /// Directed edge count of the offending graph.
        num_edges: usize,
    },
    /// A [`GraphUpdate`](crate::accel::GraphUpdate) asked to remove an
    /// edge that is not present in the serving graph.
    MissingEdge {
        /// One endpoint of the missing edge.
        from: u32,
        /// The other endpoint.
        to: u32,
    },
    /// A component of the backend (a shard of a fleet, a worker…)
    /// failed mid-request — typically a contained panic. The request
    /// was not served; the backend reports
    /// [`BackendHealth::Degraded`](crate::accel::BackendHealth) until
    /// the component is repaired (e.g. `ShardedEngine::heal`).
    BackendFailed {
        /// Name of the failed component, e.g. `"shard 2"`.
        backend: String,
        /// Human-readable failure description (panic message).
        detail: String,
    },
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::ClassificationViolation { node, detail } => {
                write!(f, "classification violation at node {node}: {detail}")
            }
            CoreError::CoverageViolation { from, to, times } => {
                write!(f, "edge ({from}, {to}) covered {times} times, expected exactly once")
            }
            CoreError::IslandTooLarge { island, size, c_max } => {
                write!(f, "island {island} has {size} nodes, exceeding c_max {c_max}")
            }
            CoreError::ClosureViolation { node, neighbor } => {
                write!(
                    f,
                    "island node {node} has neighbor {neighbor} outside its island and not a hub"
                )
            }
            CoreError::SelfLoops { node } => {
                write!(f, "graph contains a self-loop at node {node}; strip self-loops first")
            }
            CoreError::RoundLimitExceeded { max_rounds, remaining } => {
                write!(
                    f,
                    "island locator did not converge in {max_rounds} rounds ({remaining} nodes left)"
                )
            }
            CoreError::ShapeMismatch { what, expected, got } => {
                write!(f, "shape mismatch ({what}): expected {expected}, got {got}")
            }
            CoreError::NotPrepared { backend } => {
                write!(f, "backend {backend} has no prepared model; call prepare() first")
            }
            CoreError::EmptyGraph { num_nodes, num_edges } => {
                write!(
                    f,
                    "graph is empty ({num_nodes} nodes, {num_edges} directed edges); \
                     the engine needs at least one node and one edge"
                )
            }
            CoreError::MissingEdge { from, to } => {
                write!(f, "edge ({from}, {to}) is not present in the graph and cannot be removed")
            }
            CoreError::BackendFailed { backend, detail } => {
                write!(f, "backend component {backend} failed: {detail}")
            }
        }
    }
}

impl Error for CoreError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = CoreError::CoverageViolation { from: 1, to: 2, times: 0 };
        assert!(e.to_string().contains("covered 0 times"));
        let e = CoreError::IslandTooLarge { island: 3, size: 40, c_max: 32 };
        assert!(e.to_string().contains("exceeding c_max 32"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CoreError>();
    }
}
