//! The Island Consumer: island-granular combination and aggregation.
//!
//! The Island Collector distributes island tasks to PEs; each island
//! task performs PULL-based combination of the island's members (hub
//! results served by the HUB Matrix XW Cache), pre-aggregates every `k`
//! consecutive members, and aggregates by scanning the island adjacency
//! bitmap with the `1×k` window ([`window`]), reusing pre-aggregated sums
//! for shared neighbors. Island-node outputs complete locally; hub rows
//! accumulate partial results in the DHUB-PRC. Hub–hub edges are handled
//! by separate inter-hub tasks in PUSH-outer-product order, after which
//! hub outputs are finalised.
//!
//! The module is split by concern: [`plan`] decides every island's window
//! scan once per layout epoch, [`executor`] computes the values from it
//! (one implementation, shared by the single engine and the sharded
//! fleet), and [`account`] derives the operation and traffic statistics
//! from the layout, including the ring network model ([`ring`]).

pub mod account;
pub mod executor;
pub mod plan;
pub mod ring;
pub mod window;

use igcn_graph::SparseFeatures;
use igcn_linalg::DenseMatrix;

/// The input features of one layer: the raw sparse feature matrix for
/// layer 0, the previous layer's dense output afterwards.
#[derive(Debug, Clone, Copy)]
pub enum LayerInput<'a> {
    /// Sparse input features (layer 0).
    Sparse(&'a SparseFeatures),
    /// Dense intermediate features (layers ≥ 1).
    Dense(&'a DenseMatrix),
}

impl LayerInput<'_> {
    /// Number of rows (nodes).
    pub fn num_rows(&self) -> usize {
        match self {
            LayerInput::Sparse(x) => x.num_rows(),
            LayerInput::Dense(m) => m.rows(),
        }
    }

    /// Feature width.
    pub fn num_cols(&self) -> usize {
        match self {
            LayerInput::Sparse(x) => x.num_cols(),
            LayerInput::Dense(m) => m.cols(),
        }
    }
}
