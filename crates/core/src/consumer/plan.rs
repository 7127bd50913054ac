//! The scan plan: every island's `1×k` window scan, decided once per
//! layout epoch.
//!
//! A window's decision ([`WindowDecision`]: skip, add the connected
//! members, or reuse the group sum minus the unconnected ones) depends
//! only on the island bitmap, `k`, redundancy removal and whether the
//! bitmap carries the `Ã = A + I` diagonal — never on feature values.
//! The plan records the outcome of the whole scan as flat term lists:
//! per island, the groups some row reuses (the only ones the executor
//! materialises) and, per bitmap row, its `(source row, ±1)` terms in
//! the scan's window/member order. A source row indexes the island's
//! working rows `[member rows | reused group sums]`, so the executor
//! turns each bitmap row into one gather-accumulate kernel call
//! (`igcn_linalg::kernels::gather_axpy_f32`) whose per-element
//! accumulation order is the scan's.
//!
//! Owners cache the plan per epoch ([`ScanPlanCache`], built on first
//! use) and replace the cache whenever their layout changes.

use std::sync::{Arc, Mutex, PoisonError};

use igcn_linalg::GcnNormalization;

use crate::config::ConsumerConfig;
use crate::layout::IslandLayout;

use super::window::WindowDecision;

/// Whether a model with normalisation `norm` scans the bitmaps that
/// carry the self diagonal: its self weight is 1 (GCN), so the self
/// term rides the windows. Otherwise (GIN) the executor adds the
/// scaled self term separately.
pub(crate) fn self_in_bitmap(norm: &GcnNormalization) -> bool {
    norm.self_weight() == 1.0
}

/// The window scan of every island of one layout.
#[derive(Debug, Clone, PartialEq)]
pub struct ScanPlan {
    k: usize,
    redundancy_removal: bool,
    self_in_bitmap: bool,
    /// Island `i` reuses groups `groups[group_ptr[i]..group_ptr[i + 1]]`
    /// (ascending group indices).
    group_ptr: Vec<usize>,
    groups: Vec<u32>,
    /// Island `i`'s bitmap rows are plan rows `row_base[i]..row_base[i + 1]`.
    row_base: Vec<usize>,
    /// Plan row `r`'s terms are `src[term_ptr[r]..term_ptr[r + 1]]`
    /// with coefficients `alpha[..]` at the same positions.
    term_ptr: Vec<usize>,
    src: Vec<u32>,
    alpha: Vec<f32>,
    /// The most working rows (`dim` + reused groups) of any island.
    max_rows: usize,
}

/// One island's slice of a [`ScanPlan`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct IslandScan<'p> {
    /// Reused groups, ascending; group `groups[j]`'s sum is working row
    /// `dim + j`.
    pub(crate) groups: &'p [u32],
    term_ptr: &'p [usize],
    src: &'p [u32],
    alpha: &'p [f32],
}

impl<'p> IslandScan<'p> {
    /// Number of bitmap rows.
    pub(crate) fn dim(&self) -> usize {
        self.term_ptr.len() - 1
    }

    /// Bitmap row `r`'s terms: working-row indices and their `±1`
    /// coefficients, in scan order.
    pub(crate) fn row(&self, r: usize) -> (&'p [u32], &'p [f32]) {
        let terms = self.term_ptr[r]..self.term_ptr[r + 1];
        (&self.src[terms.clone()], &self.alpha[terms])
    }
}

impl ScanPlan {
    /// Scans every island bitmap of `layout` once.
    ///
    /// # Panics
    ///
    /// Panics if `k` is 0 or above 64 (the scan window is a packed
    /// 64-bit mask).
    pub fn build(
        layout: &IslandLayout,
        k: usize,
        redundancy_removal: bool,
        self_in_bitmap: bool,
    ) -> ScanPlan {
        assert!((1..=64).contains(&k), "scan window {k} outside 1..=64");
        let num_islands = layout.partition().num_islands();
        let mut plan = ScanPlan {
            k,
            redundancy_removal,
            self_in_bitmap,
            group_ptr: Vec::with_capacity(num_islands + 1),
            groups: Vec::new(),
            row_base: Vec::with_capacity(num_islands + 1),
            term_ptr: vec![0],
            src: Vec::new(),
            alpha: Vec::new(),
            max_rows: 0,
        };
        plan.group_ptr.push(0);
        plan.row_base.push(0);
        let mut slot = Vec::new();
        for idx in 0..num_islands {
            let bm = layout.bitmap(idx, self_in_bitmap);
            let dim = bm.dim();
            let num_groups = dim.div_ceil(k);
            let first_term = plan.src.len();
            slot.clear();
            slot.resize(num_groups, false);
            for r in 0..dim {
                for (g, reused) in slot.iter_mut().enumerate() {
                    let start = g * k;
                    let size = k.min(dim - start);
                    let mask = bm.window(r, start, k);
                    match WindowDecision::decide(mask, size, redundancy_removal) {
                        WindowDecision::Skip => {}
                        WindowDecision::Direct { .. } => {
                            plan.push_members(start, mask, 1.0);
                        }
                        WindowDecision::Reuse { .. } => {
                            // The group sum, then the unconnected members
                            // subtracted. `dim + g` is renumbered to the
                            // group's slot once the island is scanned.
                            *reused = true;
                            plan.src.push((dim + g) as u32);
                            plan.alpha.push(1.0);
                            let unconnected = !mask & (u64::MAX >> (64 - size));
                            plan.push_members(start, unconnected, -1.0);
                        }
                    }
                }
                plan.term_ptr.push(plan.src.len());
            }
            // Reused groups get working rows `dim..` in ascending order.
            let mut renumber = Vec::with_capacity(num_groups);
            for (g, &used) in slot.iter().enumerate() {
                renumber.push((dim + plan.groups.len() - plan.group_ptr[idx]) as u32);
                if used {
                    plan.groups.push(g as u32);
                }
            }
            for s in &mut plan.src[first_term..] {
                if *s as usize >= dim {
                    *s = renumber[*s as usize - dim];
                }
            }
            plan.group_ptr.push(plan.groups.len());
            plan.row_base.push(plan.term_ptr.len() - 1);
            plan.max_rows = plan.max_rows.max(dim + plan.groups.len() - plan.group_ptr[idx]);
        }
        plan
    }

    /// One term per set bit of `mask`, member `start + bit`, ascending.
    fn push_members(&mut self, start: usize, mask: u64, alpha: f32) {
        let mut rest = mask;
        while rest != 0 {
            self.src.push((start + rest.trailing_zeros() as usize) as u32);
            self.alpha.push(alpha);
            rest &= rest - 1;
        }
    }

    /// Whether the plan scans the bitmaps that carry the self diagonal
    /// (see [`self_in_bitmap`]).
    pub(crate) fn self_in_bitmap(&self) -> bool {
        self.self_in_bitmap
    }

    /// The scan window width `k`.
    pub(crate) fn k(&self) -> usize {
        self.k
    }

    /// Whether the plan was built for `cfg` and a model with
    /// normalisation `norm`.
    fn matches(&self, cfg: ConsumerConfig, norm: &GcnNormalization) -> bool {
        self.k == cfg.k
            && self.redundancy_removal == cfg.redundancy_removal
            && self.self_in_bitmap == self_in_bitmap(norm)
    }

    /// Number of islands planned.
    pub(crate) fn num_islands(&self) -> usize {
        self.row_base.len() - 1
    }

    /// The most working rows any island needs (`dim` + reused groups) —
    /// what an executor arena reserves up front.
    pub(crate) fn max_rows(&self) -> usize {
        self.max_rows
    }

    /// Island `idx`'s scan.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= num_islands()`.
    pub(crate) fn island(&self, idx: usize) -> IslandScan<'_> {
        let rows = self.row_base[idx]..self.row_base[idx + 1] + 1;
        IslandScan {
            groups: &self.groups[self.group_ptr[idx]..self.group_ptr[idx + 1]],
            term_ptr: &self.term_ptr[rows],
            src: &self.src,
            alpha: &self.alpha,
        }
    }
}

/// The per-epoch cache of a [`ScanPlan`]: built on first use, keyed by
/// `k`, redundancy removal and the bitmap variant. Clones share the
/// cache; owners install a fresh one whenever their layout changes.
#[derive(Debug, Clone, Default)]
pub struct ScanPlanCache {
    slot: Arc<Mutex<Option<Arc<ScanPlan>>>>,
}

impl ScanPlanCache {
    /// The cached plan of `layout` for `cfg` and a model with
    /// normalisation `norm`, building (and caching) it on a miss.
    pub fn get(
        &self,
        layout: &IslandLayout,
        cfg: ConsumerConfig,
        norm: &GcnNormalization,
    ) -> Arc<ScanPlan> {
        // The slot holds a plain Option; a panic elsewhere cannot leave
        // it half-written, so a poisoned lock is still usable.
        let mut slot = self.slot.lock().unwrap_or_else(PoisonError::into_inner);
        match &*slot {
            Some(cached) if cached.matches(cfg, norm) => Arc::clone(cached),
            _ => {
                let built = Arc::new(ScanPlan::build(
                    layout,
                    cfg.k,
                    cfg.redundancy_removal,
                    self_in_bitmap(norm),
                ));
                *slot = Some(Arc::clone(&built));
                built
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{IslandizationConfig, ThresholdInit};
    use crate::locator::islandize;
    use igcn_graph::generate::HubIslandConfig;
    use igcn_graph::CsrGraph;

    fn layout(n: usize, noise: f64, seed: u64) -> IslandLayout {
        let g = HubIslandConfig::new(n, (n / 25).max(2)).noise_fraction(noise).generate(seed);
        let p = islandize(&g.graph, &IslandizationConfig::default());
        IslandLayout::new(&g.graph, &p, ConsumerConfig::default().num_pes)
    }

    #[test]
    fn a_full_window_reuses_its_group_and_a_sparse_one_goes_direct() {
        // Hub 0 touches island nodes 1..=4, which form a clique, and a
        // second island {5, 6}: with k = 2 every clique row reuses both
        // full groups, the hub row (no diagonal) only the node pair.
        let mut edges = vec![(0, 5), (0, 6), (5, 6)];
        for u in 1..=4 {
            edges.push((0, u));
            edges.extend((u + 1..=4).map(|v| (u, v)));
        }
        let g = CsrGraph::from_undirected_edges(7, &edges).unwrap();
        let cfg = IslandizationConfig::default().with_threshold_init(ThresholdInit::Absolute(5));
        let layout = IslandLayout::new(&g, &islandize(&g, &cfg), 1);
        let idx = (0..layout.partition().num_islands())
            .find(|&i| layout.bitmap(i, true).dim() == 5)
            .expect("the clique island");
        assert_eq!(layout.bitmap(idx, true).num_hubs(), 1);
        let plan = ScanPlan::build(&layout, 2, true, true);
        let scan = plan.island(idx);
        // Groups: {hub, n1}, {n2, n3}, {n4}.
        assert_eq!(scan.groups, &[0, 1]);
        // Hub row: n1 direct (hub has no diagonal), group {n2, n3}
        // reused, n4 direct.
        assert_eq!(scan.row(0), (&[1, 6, 4][..], &[1.0, 1.0, 1.0][..]));
        // Node n1 (row 1, diagonal set): both full groups reused.
        assert_eq!(scan.row(1), (&[5, 6, 4][..], &[1.0, 1.0, 1.0][..]));
        assert_eq!(plan.max_rows(), 7);
        // Without redundancy removal every connected member is direct.
        let direct = ScanPlan::build(&layout, 2, false, true);
        assert!(direct.island(idx).groups.is_empty());
        assert_eq!(direct.island(idx).row(1), (&[0, 1, 2, 3, 4][..], &[1.0; 5][..]));
    }

    #[test]
    fn every_term_reads_a_working_row_and_every_listed_group_is_used() {
        let layout = layout(300, 0.05, 4);
        for k in [2usize, 3, 4, 8] {
            for (on, diag) in [(true, true), (true, false), (false, true)] {
                let plan = ScanPlan::build(&layout, k, on, diag);
                assert_eq!(plan.num_islands(), layout.partition().num_islands());
                for idx in 0..plan.num_islands() {
                    let (scan, bm) = (plan.island(idx), layout.bitmap(idx, diag));
                    assert_eq!(scan.dim(), bm.dim());
                    let working = bm.dim() + scan.groups.len();
                    assert!(working <= plan.max_rows());
                    let mut used = vec![false; scan.groups.len()];
                    for r in 0..scan.dim() {
                        let (src, alpha) = scan.row(r);
                        for (&s, &a) in src.iter().zip(alpha) {
                            assert!((s as usize) < working && (a == 1.0 || a == -1.0));
                            if s as usize >= bm.dim() {
                                used[s as usize - bm.dim()] = true;
                            }
                        }
                        if !on {
                            let cols: Vec<u32> = bm.row_cols(r).map(|c| c as u32).collect();
                            assert_eq!(src, cols.as_slice(), "no reuse: the row's own columns");
                        }
                    }
                    assert!(used.iter().all(|&u| u), "k={k}: a listed group nobody reads");
                    assert!(scan.groups.windows(2).all(|w| w[0] < w[1]));
                }
            }
        }
    }

    #[test]
    fn cache_rebuilds_only_for_another_key() {
        let layout = layout(150, 0.0, 6);
        let graph = layout.graph();
        let cache = ScanPlanCache::default();
        let (gcn, gin) = (GcnNormalization::symmetric(graph), GcnNormalization::gin(graph, 0.2));
        let cfg = ConsumerConfig::default();
        let first = cache.get(&layout, cfg, &gcn);
        assert!(Arc::ptr_eq(&first, &cache.get(&layout, cfg, &gcn)));
        assert!(Arc::ptr_eq(&first, &cache.clone().get(&layout, cfg, &gcn)), "clones share");
        let other = cache.get(&layout, cfg, &gin);
        assert!(!other.self_in_bitmap() && first.self_in_bitmap());
        let k8 = cache.get(&layout, cfg.with_k(8), &gin);
        assert_eq!(k8.k(), 8);
        let off = cache.get(&layout, cfg.with_k(8).with_redundancy_removal(false), &gin);
        assert!(off.matches(cfg.with_k(8).with_redundancy_removal(false), &gin));
        assert!(!off.matches(cfg.with_k(8), &gin));
    }
}
