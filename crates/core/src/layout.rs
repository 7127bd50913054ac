//! The islandized *physical* data layout.
//!
//! Islandization discovers which nodes are touched together; this module
//! makes that locality **physical**. [`IslandLayout`] composes the
//! island schedule into a [`Permutation`] (hubs first in detection
//! order, then islands back to back in schedule order — exactly
//! [`IslandPartition::ordering`]) and materialises:
//!
//! * a schedule-ordered [`CsrGraph`], so each island's nodes and their
//!   intra-island neighbors are contiguous in memory;
//! * the permuted [`IslandPartition`] over the new IDs — island-node IDs
//!   form contiguous ranges and hub IDs are the compact range `0..H`,
//!   which is what lets the execution core replace `HashMap<u32, …>` hub
//!   tables with dense flat slabs indexed by hub ID;
//! * the per-island adjacency bitmaps (both the `Ã = A + I` variant the
//!   GCN/GraphSage window scan walks and the plain variant GIN uses),
//!   built **once** instead of once per island per layer;
//! * the inter-hub task list in the exact order the legacy execution
//!   path derives it (ascending *original* source hub ID), so the
//!   permuted execution replays floating-point accumulation in the same
//!   order and stays bit-identical to the unpermuted path.
//!
//! Requests and responses keep speaking original node IDs: features are
//! gathered into schedule order on the way in
//! ([`IslandLayout::gather_order`]) and the final layer's rows are
//! scattered back on the way out ([`IslandLayout::forward`]).

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use igcn_graph::{CsrGraph, Permutation};

use crate::error::CoreError;
use crate::island::{Island, IslandBitmap};
use crate::partition::{IslandPartition, NodeClass};
use crate::schedule::IslandSchedule;

/// Schedule-ordered physical layout of one islandized graph.
///
/// Built once per (graph, partition) — at engine construction and after
/// every `apply_update` restructuring — and shared read-only by every
/// request.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IslandLayout {
    /// `forward[old] = new`: original ID → schedule-order ID.
    perm: Permutation,
    /// `gather_order[new] = old`: the row-gather map for features.
    gather_order: Vec<u32>,
    /// The schedule-ordered graph.
    graph: CsrGraph,
    /// The partition over schedule-order IDs (hubs are `0..H`; island
    /// member IDs are contiguous per island).
    partition: IslandPartition,
    /// The island issue schedule over the permuted partition (identical
    /// work estimates to the original — degrees are preserved).
    schedule: IslandSchedule,
    /// Per-island adjacency bitmaps with the `Ã = A + I` diagonal on
    /// island-node rows (unit self-weight models).
    bitmaps_self: Vec<IslandBitmap>,
    /// Per-island adjacency bitmaps without the diagonal (GIN).
    bitmaps_plain: Vec<IslandBitmap>,
    /// Inter-hub tasks `(source, destinations)` in ascending *original*
    /// source-hub order with per-source destination order preserved —
    /// the exact replay order of the legacy PUSH-outer-product phase.
    inter_hub_tasks: Vec<(u32, Vec<u32>)>,
}

impl IslandLayout {
    /// Composes the physical layout for `partition` over `graph`.
    /// `num_pes` is the consumer's PE count (the schedule wave width).
    ///
    /// # Panics
    ///
    /// Panics if `partition` does not belong to `graph` (mismatched node
    /// count or an invalid ordering).
    pub fn new(graph: &CsrGraph, partition: &IslandPartition, num_pes: usize) -> Self {
        assert_eq!(graph.num_nodes(), partition.num_nodes(), "partition does not match the graph");
        let perm = partition.ordering();
        let forward = perm.as_forward();
        let map = |v: u32| forward[v as usize];

        let islands: Vec<Island> = partition
            .islands()
            .iter()
            .map(|isl| Island {
                nodes: isl.nodes.iter().map(|&v| map(v)).collect(),
                hubs: isl.hubs.iter().map(|&h| map(h)).collect(),
                round: isl.round,
                engine: isl.engine,
            })
            .collect();
        let hubs: Vec<u32> = partition.hubs().iter().map(|&h| map(h)).collect();
        // `ordering()` lists hubs first in detection order, so the
        // permuted hub set is the compact prefix 0..H.
        debug_assert!(hubs.iter().enumerate().all(|(i, &h)| h == i as u32));

        let mut inter_hub_edges: Vec<(u32, u32)> = partition
            .inter_hub_edges()
            .iter()
            .map(|&(a, b)| {
                let (x, y) = (map(a), map(b));
                (x.min(y), x.max(y))
            })
            .collect();
        inter_hub_edges.sort_unstable();

        let mut node_class = vec![NodeClass::Unclassified; graph.num_nodes()];
        for &h in &hubs {
            node_class[h as usize] = NodeClass::Hub;
        }
        for (idx, isl) in islands.iter().enumerate() {
            for &v in &isl.nodes {
                node_class[v as usize] = NodeClass::Island(idx as u32);
            }
        }

        let permuted_graph =
            graph.permute(&perm).expect("a partition ordering is a valid permutation");
        let permuted_partition = IslandPartition::from_parts(
            graph.num_nodes(),
            islands,
            hubs,
            inter_hub_edges,
            node_class,
            partition.c_max(),
        );
        let schedule = IslandSchedule::new(&permuted_graph, &permuted_partition, num_pes);

        // The bitmaps are layer-independent: build them once here
        // instead of once per island per layer in the hot loop.
        let bitmaps_self: Vec<IslandBitmap> = permuted_partition
            .islands()
            .iter()
            .map(|isl| isl.bitmap_with_self(&permuted_graph))
            .collect();
        let bitmaps_plain: Vec<IslandBitmap> =
            permuted_partition.islands().iter().map(|isl| isl.bitmap(&permuted_graph)).collect();

        // The legacy inter-hub phase groups edges into PUSH tasks with a
        // BTreeMap over *original* hub IDs; replay that exact order so
        // hub partial-result accumulation is bit-identical.
        let mut by_source: BTreeMap<u32, Vec<u32>> = BTreeMap::new();
        for &(a, b) in partition.inter_hub_edges() {
            by_source.entry(a).or_default().push(b);
            by_source.entry(b).or_default().push(a);
        }
        let inter_hub_tasks: Vec<(u32, Vec<u32>)> = by_source
            .into_iter()
            .map(|(src, dests)| (map(src), dests.into_iter().map(map).collect()))
            .collect();

        let gather_order = perm.inverse().as_forward().to_vec();
        IslandLayout {
            perm,
            gather_order,
            graph: permuted_graph,
            partition: permuted_partition,
            schedule,
            bitmaps_self,
            bitmaps_plain,
            inter_hub_tasks,
        }
    }

    /// Reassembles a layout from externally stored parts — the
    /// deserialisation path of the snapshot store, which is what lets a
    /// warm-started engine skip both the locator pass *and* this
    /// module's composition work.
    ///
    /// Runs the cheap structural invariant check (O(nodes + islands),
    /// no edge walks): the permutation, graph and partition must agree
    /// on the node count, hub IDs must be the compact prefix `0..H`,
    /// island member IDs must tile `H..n` contiguously in island order,
    /// the schedule and both bitmap sets must have one entry per island
    /// with matching dimensions, and inter-hub tasks may only reference
    /// hubs.
    ///
    /// # Errors
    ///
    /// [`CoreError::ShapeMismatch`] or
    /// [`CoreError::ClassificationViolation`] naming the first violated
    /// structural invariant.
    pub fn from_raw_parts(
        perm: Permutation,
        graph: CsrGraph,
        partition: IslandPartition,
        schedule: IslandSchedule,
        bitmaps_self: Vec<IslandBitmap>,
        bitmaps_plain: Vec<IslandBitmap>,
        inter_hub_tasks: Vec<(u32, Vec<u32>)>,
    ) -> Result<Self, CoreError> {
        let n = graph.num_nodes();
        let mismatch = |what: &str, expected: usize, got: usize| CoreError::ShapeMismatch {
            what: format!("layout {what}"),
            expected,
            got,
        };
        if perm.len() != n {
            return Err(mismatch("permutation vs graph nodes", n, perm.len()));
        }
        if partition.num_nodes() != n {
            return Err(mismatch("partition vs graph nodes", n, partition.num_nodes()));
        }
        let num_hubs = partition.num_hubs();
        for (i, &h) in partition.hubs().iter().enumerate() {
            if h as usize != i {
                return Err(CoreError::ClassificationViolation {
                    node: h,
                    detail: format!("layout hub #{i} is {h}, not the compact prefix ID {i}"),
                });
            }
        }
        let mut next = num_hubs as u32;
        for isl in partition.islands() {
            for &v in &isl.nodes {
                if v != next {
                    return Err(CoreError::ClassificationViolation {
                        node: v,
                        detail: format!(
                            "layout island node {v} breaks the contiguous range at {next}"
                        ),
                    });
                }
                next += 1;
            }
        }
        if next as usize != n {
            return Err(mismatch("island ranges vs graph nodes", n, next as usize));
        }
        let num_islands = partition.num_islands();
        if schedule.num_islands() != num_islands {
            return Err(mismatch(
                "schedule islands vs partition",
                num_islands,
                schedule.num_islands(),
            ));
        }
        if bitmaps_self.len() != num_islands {
            return Err(mismatch("self-bitmap count vs islands", num_islands, bitmaps_self.len()));
        }
        if bitmaps_plain.len() != num_islands {
            return Err(mismatch(
                "plain-bitmap count vs islands",
                num_islands,
                bitmaps_plain.len(),
            ));
        }
        for (idx, isl) in partition.islands().iter().enumerate() {
            let dim = isl.hubs.len() + isl.nodes.len();
            for bm in [&bitmaps_self[idx], &bitmaps_plain[idx]] {
                if bm.dim() != dim || bm.num_hubs() != isl.hubs.len() {
                    return Err(mismatch(&format!("bitmap {idx} dimension"), dim, bm.dim()));
                }
            }
        }
        for &(src, ref dests) in &inter_hub_tasks {
            for &h in std::iter::once(&src).chain(dests) {
                if h as usize >= num_hubs {
                    return Err(CoreError::ClassificationViolation {
                        node: h,
                        detail: format!(
                            "inter-hub task references non-hub ID {h} (H = {num_hubs})"
                        ),
                    });
                }
            }
        }
        let gather_order = perm.inverse().as_forward().to_vec();
        Ok(IslandLayout {
            perm,
            gather_order,
            graph,
            partition,
            schedule,
            bitmaps_self,
            bitmaps_plain,
            inter_hub_tasks,
        })
    }

    /// The schedule-order permutation (`forward[old] = new`).
    pub fn permutation(&self) -> &Permutation {
        &self.perm
    }

    /// `forward[old] = new` as a slice — the scatter map for outputs
    /// (`output.row(old) = permuted.row(forward[old])`).
    pub fn forward(&self) -> &[u32] {
        self.perm.as_forward()
    }

    /// `gather_order[new] = old` — the row-gather map for request
    /// features (`SparseFeatures::gather_rows_into`).
    pub fn gather_order(&self) -> &[u32] {
        &self.gather_order
    }

    /// The schedule-ordered graph.
    pub fn graph(&self) -> &CsrGraph {
        &self.graph
    }

    /// The partition over schedule-order IDs.
    pub fn partition(&self) -> &IslandPartition {
        &self.partition
    }

    /// The island issue schedule.
    pub fn schedule(&self) -> &IslandSchedule {
        &self.schedule
    }

    /// Number of hubs; hub IDs are exactly `0..num_hubs()` in the
    /// layout's ID space.
    pub fn num_hubs(&self) -> usize {
        self.partition.num_hubs()
    }

    /// The prebuilt adjacency bitmap of island `idx`; `with_self` picks
    /// the `Ã = A + I` variant (unit self-weight models).
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn bitmap(&self, idx: usize, with_self: bool) -> &IslandBitmap {
        if with_self {
            &self.bitmaps_self[idx]
        } else {
            &self.bitmaps_plain[idx]
        }
    }

    /// Inter-hub tasks in legacy replay order (ascending original
    /// source-hub ID), with layout IDs.
    pub fn inter_hub_tasks(&self) -> &[(u32, Vec<u32>)] {
        &self.inter_hub_tasks
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::IslandizationConfig;
    use crate::locator::islandize;
    use igcn_graph::generate::HubIslandConfig;
    use igcn_graph::NodeId;

    fn setup() -> (CsrGraph, IslandPartition) {
        let g = HubIslandConfig::new(300, 12).noise_fraction(0.05).generate(9);
        let p = islandize(&g.graph, &IslandizationConfig::default());
        (g.graph, p)
    }

    #[test]
    fn layout_partition_is_valid_and_hub_compact() {
        let (g, p) = setup();
        let layout = IslandLayout::new(&g, &p, 8);
        layout.partition().check_invariants(layout.graph()).unwrap();
        for (i, &h) in layout.partition().hubs().iter().enumerate() {
            assert_eq!(h as usize, i, "hub IDs must be the compact prefix");
        }
        assert_eq!(layout.num_hubs(), p.num_hubs());
        assert_eq!(layout.partition().num_islands(), p.num_islands());
    }

    #[test]
    fn island_nodes_are_contiguous_ranges() {
        let (g, p) = setup();
        let layout = IslandLayout::new(&g, &p, 8);
        let mut next = layout.num_hubs() as u32;
        for isl in layout.partition().islands() {
            for &v in &isl.nodes {
                assert_eq!(v, next, "island nodes must be contiguous in layout order");
                next += 1;
            }
        }
        assert_eq!(next as usize, g.num_nodes());
    }

    #[test]
    fn permuted_graph_preserves_degrees_and_edges() {
        let (g, p) = setup();
        let layout = IslandLayout::new(&g, &p, 8);
        let forward = layout.forward();
        for v in g.iter_nodes() {
            let new = NodeId::new(forward[v.index()]);
            assert_eq!(g.degree(v), layout.graph().degree(new));
        }
        for (u, v) in g.iter_edges() {
            assert!(layout
                .graph()
                .has_edge(NodeId::new(forward[u.index()]), NodeId::new(forward[v.index()])));
        }
    }

    #[test]
    fn schedule_work_matches_unpermuted_schedule() {
        let (g, p) = setup();
        let layout = IslandLayout::new(&g, &p, 8);
        let original = IslandSchedule::new(&g, &p, 8);
        assert_eq!(layout.schedule().work(), original.work());
        assert_eq!(layout.schedule().num_waves(), original.num_waves());
        assert_eq!(
            layout.schedule().occupancy(4).worker_busy_cycles,
            original.occupancy(4).worker_busy_cycles
        );
    }

    #[test]
    fn bitmaps_match_on_demand_construction() {
        let (g, p) = setup();
        let layout = IslandLayout::new(&g, &p, 8);
        for (idx, isl) in layout.partition().islands().iter().enumerate() {
            assert_eq!(layout.bitmap(idx, true), &isl.bitmap_with_self(layout.graph()));
            assert_eq!(layout.bitmap(idx, false), &isl.bitmap(layout.graph()));
        }
    }

    #[test]
    fn inter_hub_tasks_cover_both_directions_in_original_order() {
        let (g, p) = setup();
        let layout = IslandLayout::new(&g, &p, 8);
        let directed: usize = layout.inter_hub_tasks().iter().map(|(_, d)| d.len()).sum();
        assert_eq!(directed, 2 * p.inter_hub_edges().len());
        // Replay order: ascending original source-hub ID. Mapping the
        // layout sources back through the gather order must be sorted.
        let originals: Vec<u32> = layout
            .inter_hub_tasks()
            .iter()
            .map(|&(s, _)| layout.gather_order()[s as usize])
            .collect();
        assert!(originals.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn schedule_waves_match_pe_count() {
        let (g, p) = setup();
        let layout = IslandLayout::new(&g, &p, 4);
        let schedule = layout.schedule();
        assert_eq!(schedule.num_islands(), p.num_islands());
        assert_eq!(schedule.wave_width(), 4);
        assert_eq!(schedule.num_waves(), p.num_islands().div_ceil(4));
    }

    #[test]
    fn feature_gather_round_trips_through_forward() {
        let (g, p) = setup();
        let layout = IslandLayout::new(&g, &p, 8);
        let x = igcn_graph::SparseFeatures::random(g.num_nodes(), 6, 0.4, 3);
        let gathered = x.gather_rows(layout.gather_order());
        assert_eq!(gathered.gather_rows(layout.forward()), x);
    }

    #[test]
    fn gather_and_forward_are_inverse() {
        let (g, p) = setup();
        let layout = IslandLayout::new(&g, &p, 8);
        for old in 0..g.num_nodes() {
            let new = layout.forward()[old] as usize;
            assert_eq!(layout.gather_order()[new] as usize, old);
        }
    }
}
