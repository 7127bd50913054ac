//! The structural accountant: the operation and traffic statistics of
//! the executor's layers, derived from the layout alone.
//!
//! Nothing in [`super::executor`] counts. Almost every statistic of a
//! layer is a function of the physical layout (the islands' prebuilt
//! bitmaps, the schedule, the inter-hub task list), the consumer
//! configuration and the model's widths and normalisation — not of the
//! feature values. The accountant walks the layout once per
//! (layout, model) and replays the Island Consumer's bookkeeping on dense
//! hub arrays: window-scan decisions, pre-aggregation, HUB Matrix XW
//! Cache first touches, DHUB-PRC bank allocation and the wave-synchronous
//! ring model ([`super::ring`], used nowhere else). The result is a
//! template [`ExecStats`]; per request, [`Accountant::stats`] adds the
//! only feature-dependent terms — layer 0's combination MACs and feature
//! bytes, both from per-row non-zero counts in O(n).
//!
//! Owners cache the accountant per epoch ([`AccountantCache`]) and
//! replace the cache whenever the layout or the prepared model changes.

use std::sync::{Arc, Mutex, PoisonError};

use igcn_gnn::GnnModel;
use igcn_graph::{NodeId, SparseFeatures};
use igcn_linalg::{GcnNormalization, OpCounter};

use crate::config::{ConsumerConfig, PreaggPolicy};
use crate::layout::IslandLayout;
use crate::stats::{
    AggregationStats, ExecStats, HubPathStats, LayerExecStats, LocatorStats, OccupancyStats,
    TrafficStats,
};

use super::ring::RingAccountant;
use super::window::WindowDecision;

const F32_BYTES: u64 = 4;
const IDX_BYTES: u64 = 4;

/// The width- and feature-independent counts of one layer (identical
/// for every layer of a model, since all layers share the structure
/// and the normalisation).
#[derive(Debug, Default)]
struct LayerCounts {
    aggregation: AggregationStats,
    hub_path: HubPathStats,
    island_tasks: u64,
    inter_hub_tasks: u64,
    /// Nodes whose in-scale is not 1 plus nodes whose out-scale is not
    /// 1: each costs one `width`-wide scaling multiply per layer.
    scaled_rows: u64,
}

/// Dense per-hub bookkeeping of the XW cache, the DHUB-PRC and the ring.
struct HubBook {
    num_pes: usize,
    y_seen: Vec<bool>,
    partial_seen: Vec<bool>,
    bank: Vec<u32>,
    next_bank: u32,
    ring: RingAccountant,
    wave: Vec<(u32, u32, u32)>,
}

impl HubBook {
    /// A hub's combination is computed at its first touch and served
    /// from the XW cache afterwards.
    fn touch(&mut self, hub: u32, counts: &mut LayerCounts) {
        let seen = &mut self.y_seen[hub as usize];
        if *seen {
            counts.hub_path.xw_cache_hits += 1;
        }
        *seen = true;
    }

    /// The DHUB-PRC bank of a hub, allocated round-robin at first
    /// appearance.
    fn bank_of(&mut self, hub: u32, counts: &mut LayerCounts) -> u32 {
        let i = hub as usize;
        if self.bank[i] == u32::MAX {
            self.bank[i] = self.next_bank;
            self.next_bank = (self.next_bank + 1) % self.num_pes as u32;
            counts.hub_path.hub_rows_allocated += 1;
        }
        self.bank[i]
    }

    /// The first touch of a hub's partial row adds its self
    /// contribution.
    fn ensure_partial(&mut self, hub: u32, counts: &mut LayerCounts) {
        let seen = &mut self.partial_seen[hub as usize];
        if !*seen {
            counts.aggregation.unpruned_vector_ops += 1;
            counts.aggregation.executed_vector_adds += 1;
            *seen = true;
        }
    }

    /// A partial-row update from PE `pe`, queued on the current wave.
    fn update(&mut self, pe: u32, hub: u32, counts: &mut LayerCounts) {
        let bank = self.bank_of(hub, counts);
        self.ensure_partial(hub, counts);
        counts.hub_path.hub_updates += 1;
        self.wave.push((pe, bank, hub));
    }

    fn flush_wave(&mut self) {
        if !self.wave.is_empty() {
            self.ring.record_wave(&self.wave);
            self.wave.clear();
        }
    }
}

/// Pre-aggregation cost of group `g`, charged once per island.
fn count_group(g: usize, k: usize, dim: usize, ready: &mut [bool], agg: &mut AggregationStats) {
    if !ready[g] {
        ready[g] = true;
        let size = k.min(dim - g * k);
        agg.preagg_vector_adds += size.saturating_sub(1) as u64;
    }
}

/// Replays one layer's bookkeeping over the layout: island tasks wave
/// by wave along the schedule, inter-hub tasks in the layout's replay
/// order, then the hub finalise.
fn count_layer(layout: &IslandLayout, cfg: ConsumerConfig, norm: &GcnNormalization) -> LayerCounts {
    let num_hubs = layout.num_hubs();
    let self_in_bitmap = norm.self_weight() == 1.0;
    let k = cfg.k;
    let mut counts = LayerCounts::default();
    let mut book = HubBook {
        num_pes: cfg.num_pes,
        y_seen: vec![false; num_hubs],
        partial_seen: vec![false; num_hubs],
        bank: vec![u32::MAX; num_hubs],
        next_bank: 0,
        ring: RingAccountant::new(cfg.num_pes),
        wave: Vec::new(),
    };
    let mut group_ready = Vec::new();
    for wave in layout.schedule().waves() {
        for idx in wave {
            let pe = (idx % cfg.num_pes) as u32;
            let bm = layout.bitmap(idx, self_in_bitmap);
            let (dim, nh) = (bm.dim(), bm.num_hubs());
            for &hub in &bm.members()[..nh] {
                book.touch(hub, &mut counts);
            }
            let num_groups = dim.div_ceil(k);
            group_ready.clear();
            group_ready.resize(num_groups, false);
            let agg = &mut counts.aggregation;
            if cfg.redundancy_removal && cfg.preagg == PreaggPolicy::Eager {
                for g in 0..num_groups {
                    count_group(g, k, dim, &mut group_ready, agg);
                }
            }
            for r in 0..dim {
                let agg = &mut counts.aggregation;
                for g in 0..num_groups {
                    let mask = bm.window(r, g * k, k);
                    agg.unpruned_vector_ops += mask.count_ones() as u64;
                    let size = k.min(dim - g * k);
                    match WindowDecision::decide(mask, size, cfg.redundancy_removal) {
                        WindowDecision::Skip => agg.windows_skipped += 1,
                        WindowDecision::Direct { adds } => {
                            agg.windows_direct += 1;
                            agg.executed_vector_adds += adds as u64;
                        }
                        WindowDecision::Reuse { subs } => {
                            agg.windows_reused += 1;
                            agg.executed_vector_adds += 1;
                            agg.executed_vector_subs += subs as u64;
                            count_group(g, k, dim, &mut group_ready, agg);
                        }
                    }
                }
                if r < nh {
                    book.update(pe, bm.member(r), &mut counts);
                } else if !self_in_bitmap {
                    agg.unpruned_vector_ops += 1;
                    agg.executed_vector_adds += 1;
                }
            }
        }
        book.flush_wave();
    }
    counts.island_tasks = layout.partition().num_islands() as u64;

    for (task_idx, (src, dests)) in layout.inter_hub_tasks().iter().enumerate() {
        let pe = (task_idx % cfg.num_pes) as u32;
        book.touch(*src, &mut counts);
        for &d in dests {
            book.bank_of(d, &mut counts);
            book.touch(d, &mut counts);
            counts.aggregation.unpruned_vector_ops += 1;
            counts.aggregation.executed_vector_adds += 1;
            book.update(pe, d, &mut counts);
        }
        counts.inter_hub_tasks += 1;
        if (task_idx + 1) % cfg.num_pes == 0 {
            book.flush_wave();
        }
    }
    book.flush_wave();

    // Hubs no task touched finalise from their self contribution alone.
    for h in 0..num_hubs as u32 {
        if !book.partial_seen[h as usize] {
            book.touch(h, &mut counts);
            book.ensure_partial(h, &mut counts);
        }
    }
    let ring = book.ring.stats();
    counts.hub_path.local_bank_hits = ring.local_hits;
    counts.hub_path.ring_hops = ring.hops;
    counts.hub_path.in_network_reductions = ring.reductions;

    let n = layout.graph().num_nodes() as u32;
    counts.scaled_rows = (0..n)
        .map(NodeId::new)
        .map(|v| u64::from(norm.in_scale(v) != 1.0) + u64::from(norm.out_scale(v) != 1.0))
        .sum();
    counts
}

/// The accountant of one (layout, model): the cached, feature-free part
/// of a model's [`ExecStats`].
#[derive(Debug)]
pub struct Accountant {
    model: GnnModel,
    /// The model's statistics with layer 0's feature terms zero and no
    /// occupancy.
    template: ExecStats,
}

impl Accountant {
    /// Walks `layout` once for `model`. `locator` is the Island Locator
    /// run that produced the layout; its adjacency streaming is charged
    /// to layer 0 (restructuring overlaps the first layer).
    ///
    /// Every node is combined exactly once per layer (island nodes in
    /// their island, hubs at their first touch) and writes one output
    /// row, which is what makes those terms closed-form.
    pub fn new(
        layout: &IslandLayout,
        cfg: ConsumerConfig,
        model: &GnnModel,
        locator: &LocatorStats,
    ) -> Self {
        let counts = count_layer(layout, cfg, &model.normalization(layout.graph()));
        let n = layout.graph().num_nodes() as u64;
        let layers = model
            .layers()
            .iter()
            .enumerate()
            .map(|(i, layer)| {
                let (in_dim, out_dim) = (layer.in_dim as u64, layer.out_dim as u64);
                // Layers ≥ 1 stream dense f32 activations; layer 0's
                // sparse terms are added per request.
                let dense = if i == 0 { 0 } else { n * in_dim };
                LayerExecStats {
                    feature_width: layer.out_dim,
                    combination_ops: OpCounter {
                        macs: dense * out_dim,
                        muls: counts.scaled_rows * out_dim,
                        ..Default::default()
                    },
                    aggregation: counts.aggregation,
                    traffic: TrafficStats {
                        adjacency_bytes: if i == 0 { locator.adjacency_words_read * 4 } else { 0 },
                        feature_read_bytes: dense * F32_BYTES,
                        output_write_bytes: n * out_dim * F32_BYTES,
                        weight_bytes: in_dim * out_dim * F32_BYTES,
                    },
                    hub_path: counts.hub_path,
                    island_tasks: counts.island_tasks,
                    inter_hub_tasks: counts.inter_hub_tasks,
                }
            })
            .collect();
        Accountant {
            model: model.clone(),
            template: ExecStats {
                locator: locator.clone(),
                layers,
                occupancy: OccupancyStats::default(),
            },
        }
    }

    /// The complete statistics of one inference on `features` (any row
    /// order — only per-row non-zero counts matter), with `occupancy`
    /// the modelled worker occupancy of the serving path.
    pub fn stats(&self, features: &SparseFeatures, occupancy: OccupancyStats) -> ExecStats {
        let mut stats = self.template.clone();
        stats.occupancy = occupancy;
        if let Some(first) = stats.layers.first_mut() {
            // The feature fetcher streams the cheaper row encoding: CSR
            // (value + index per non-zero) or dense.
            let dense_row = features.num_cols() as u64 * F32_BYTES;
            let row_bytes: u64 = features
                .row_ptr()
                .windows(2)
                .map(|w| ((w[1] - w[0]) as u64 * (F32_BYTES + IDX_BYTES)).min(dense_row))
                .sum();
            first.combination_ops.macs += features.nnz() as u64 * first.feature_width as u64;
            first.traffic.feature_read_bytes += row_bytes;
        }
        stats
    }
}

/// The per-epoch cache of an [`Accountant`]: filled on first use, keyed
/// by model. Clones share the cache; owners install a fresh one
/// whenever their layout or prepared model changes.
#[derive(Debug, Clone, Default)]
pub struct AccountantCache {
    slot: Arc<Mutex<Option<Arc<Accountant>>>>,
}

impl AccountantCache {
    /// The cached accountant for `model`, building (and caching) it on
    /// a miss.
    pub fn get(
        &self,
        layout: &IslandLayout,
        cfg: ConsumerConfig,
        model: &GnnModel,
        locator: &LocatorStats,
    ) -> Arc<Accountant> {
        // The slot holds a plain Option; a panic elsewhere cannot leave
        // it half-written, so a poisoned lock is still usable.
        let mut slot = self.slot.lock().unwrap_or_else(PoisonError::into_inner);
        match &*slot {
            Some(cached) if cached.model == *model => Arc::clone(cached),
            _ => {
                let built = Arc::new(Accountant::new(layout, cfg, model, locator));
                *slot = Some(Arc::clone(&built));
                built
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::IslandizationConfig;
    use crate::locator::IslandLocator;
    use igcn_graph::generate::HubIslandConfig;

    fn setup(n: usize, noise: f64, seed: u64) -> (IslandLayout, LocatorStats) {
        let g = HubIslandConfig::new(n, (n / 25).max(2)).noise_fraction(noise).generate(seed);
        let (p, locator) =
            IslandLocator::new(&g.graph, &IslandizationConfig::default()).run().unwrap();
        (IslandLayout::new(&g.graph, &p, ConsumerConfig::default().num_pes), locator)
    }

    #[test]
    fn pruning_reduces_ops_and_ablation_does_not() {
        let (layout, locator) = setup(250, 0.0, 4);
        let model = GnnModel::gcn(12, 4, 3);
        let x = SparseFeatures::random(250, 12, 0.4, 4);
        let with = Accountant::new(&layout, ConsumerConfig::default(), &model, &locator);
        let without_cfg = ConsumerConfig::default().with_redundancy_removal(false);
        let without = Accountant::new(&layout, without_cfg, &model, &locator);
        let s_with = with.stats(&x, OccupancyStats::default());
        let s_without = without.stats(&x, OccupancyStats::default());
        for (a, b) in s_with.layers.iter().zip(&s_without.layers) {
            assert_eq!(a.aggregation.unpruned_vector_ops, b.aggregation.unpruned_vector_ops);
            assert_eq!(b.aggregation.executed_vector_subs, 0);
            assert!(b.aggregation.pruning_rate().abs() < 1e-12);
            assert!(
                a.aggregation.executed_vector_ops() <= b.aggregation.executed_vector_ops(),
                "redundancy removal must never increase ops"
            );
        }
        assert!(s_with.aggregation_pruning_rate() > 0.0, "a clean hub-island graph prunes");
    }

    #[test]
    fn only_layer_zero_feature_terms_depend_on_the_request() {
        let (layout, locator) = setup(200, 0.05, 5);
        let model = GnnModel::gcn(12, 8, 4);
        let accountant = Accountant::new(&layout, ConsumerConfig::default(), &model, &locator);
        let sparse = accountant.stats(&SparseFeatures::random(200, 12, 0.1, 1), Default::default());
        let denser = accountant.stats(&SparseFeatures::random(200, 12, 0.6, 2), Default::default());
        assert_eq!(sparse.layers[1..], denser.layers[1..]);
        let (a, b) = (&sparse.layers[0], &denser.layers[0]);
        assert!(a.combination_ops.macs < b.combination_ops.macs);
        assert!(a.traffic.feature_read_bytes < b.traffic.feature_read_bytes);
        let strip = |l: &LayerExecStats| {
            let mut l = l.clone();
            l.combination_ops.macs = 0;
            l.traffic.feature_read_bytes = 0;
            l
        };
        assert_eq!(strip(a), strip(b));
    }

    #[test]
    fn every_node_combines_and_writes_once_per_layer() {
        let (layout, locator) = setup(220, 0.05, 7);
        let model = GnnModel::gcn(12, 9, 5);
        let x = SparseFeatures::random(220, 12, 0.3, 8);
        let stats = Accountant::new(&layout, ConsumerConfig::default(), &model, &locator)
            .stats(&x, Default::default());
        let n = 220u64;
        let (l0, l1) = (&stats.layers[0], &stats.layers[1]);
        assert_eq!(l0.combination_ops.macs, x.nnz() as u64 * 9);
        assert_eq!(l1.combination_ops.macs, n * 9 * 5);
        assert_eq!(l1.traffic.feature_read_bytes, n * 9 * 4);
        assert!(l0.traffic.feature_read_bytes <= n * 12 * 4, "never above the dense encoding");
        assert_eq!(l0.traffic.output_write_bytes, n * 9 * 4);
        assert_eq!(l1.traffic.output_write_bytes, n * 5 * 4);
        assert_eq!(l0.traffic.adjacency_bytes, locator.adjacency_words_read * 4);
        assert_eq!(l1.traffic.adjacency_bytes, 0);
        assert_eq!(l0.island_tasks, layout.partition().num_islands() as u64);
    }

    #[test]
    fn hub_bookkeeping_matches_the_layout() {
        let (layout, locator) = setup(300, 0.08, 9);
        let cfg = ConsumerConfig::default();
        let model = GnnModel::gcn(12, 8, 4);
        let x = SparseFeatures::random(300, 12, 0.3, 1);
        let hub = Accountant::new(&layout, cfg, &model, &locator).stats(&x, Default::default());
        let hub = &hub.layers[0];
        let islands = layout.partition().islands();
        let tasks = layout.inter_hub_tasks();
        // One update per (island, contacted hub) and per inter-hub
        // direction; every updated hub owns one DHUB-PRC row.
        let island_contacts: usize = islands.iter().map(|isl| isl.hubs.len()).sum();
        let directed: usize = tasks.iter().map(|(_, d)| d.len()).sum();
        assert_eq!(hub.hub_path.hub_updates, (island_contacts + directed) as u64);
        let mut updated = vec![false; layout.num_hubs()];
        islands.iter().flat_map(|isl| &isl.hubs).for_each(|&h| updated[h as usize] = true);
        tasks.iter().flat_map(|(_, d)| d).for_each(|&h| updated[h as usize] = true);
        let rows = updated.iter().filter(|&&u| u).count() as u64;
        assert_eq!(hub.hub_path.hub_rows_allocated, rows);
        // Every touch after a hub's first is an XW cache hit; hubs no
        // task touches are touched once at finalise.
        let touches = island_contacts + tasks.len() + directed;
        let untouched = layout.num_hubs() as u64 - rows;
        assert_eq!(
            hub.hub_path.xw_cache_hits + layout.num_hubs() as u64,
            touches as u64 + untouched
        );
        let ring = &hub.hub_path;
        assert!(ring.local_bank_hits + ring.in_network_reductions <= ring.hub_updates);
        assert_eq!(hub.inter_hub_tasks, tasks.len() as u64);
    }

    #[test]
    fn self_contributions_are_counted_once_for_every_model() {
        // GCN carries the self term on the bitmap diagonal, GIN as a
        // separate scaled add: without redundancy removal both execute
        // exactly one vector add per unpruned op.
        let (layout, locator) = setup(200, 0.05, 3);
        let cfg = ConsumerConfig::default().with_redundancy_removal(false);
        let x = SparseFeatures::random(200, 12, 0.3, 2);
        let agg = |model: GnnModel| {
            Accountant::new(&layout, cfg, &model, &locator).stats(&x, Default::default()).layers[0]
                .aggregation
        };
        let (gcn, gin) = (agg(GnnModel::gcn(12, 4, 2)), agg(GnnModel::gin(12, 4, 2, 0.3)));
        assert_eq!(gcn.unpruned_vector_ops, gin.unpruned_vector_ops);
        for a in [gcn, gin] {
            assert_eq!(a.executed_vector_adds, a.unpruned_vector_ops);
            assert_eq!(a.windows_reused + a.preagg_vector_adds + a.executed_vector_subs, 0);
        }
    }

    #[test]
    fn cache_rebuilds_only_for_a_different_model() {
        let (layout, locator) = setup(150, 0.0, 6);
        let cfg = ConsumerConfig::default();
        let cache = AccountantCache::default();
        let gcn = GnnModel::gcn(12, 8, 4);
        let first = cache.get(&layout, cfg, &gcn, &locator);
        assert!(Arc::ptr_eq(&first, &cache.get(&layout, cfg, &gcn, &locator)));
        let gin = GnnModel::gin(12, 8, 4, 0.2);
        let other = cache.get(&layout, cfg, &gin, &locator);
        assert!(!Arc::ptr_eq(&first, &other));
        assert_eq!(other.model, gin);
    }
}
