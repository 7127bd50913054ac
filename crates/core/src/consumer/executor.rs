//! The island executor: the one implementation of a GraphCONV layer
//! over the physical [`IslandLayout`].
//!
//! A layer runs in the Island Consumer's shape:
//!
//! 1. **hub XW slab** — every hub's pre-scaled combination vector
//!    `y_h = s_in(h)·(X_h·W)`, computed once per layer into
//!    [`HubMergeState`] (the HUB Matrix XW Cache);
//! 2. **island tasks** — [`execute_islands`] runs a range of islands:
//!    PULL combination of the island nodes, materialisation of the
//!    pre-aggregated groups the island's rows reuse, and the `1×k`
//!    bitmap window scan replayed from the epoch's [`ScanPlan`], writing
//!    finished island-node rows plus one raw contribution per
//!    (island, contacted hub) pair;
//! 3. **DHUB-PRC merge** — [`HubMergeState`] folds the contributions in
//!    schedule order, replays the inter-hub PUSH tasks and finalises the
//!    hub rows.
//!
//! Every combination row and every scanned bitmap row is one call of
//! the whole-row gather-accumulate kernel
//! ([`igcn_linalg::kernels::gather_axpy_f32`]), whose per-element
//! accumulation order is the term order — the feature non-zeros for a
//! combination, the plan's window/member order for a scan.
//!
//! A single engine is the one-shard, no-halo case ([`run_layer`]); a
//! sharded fleet runs step 2 on every shard around a halo exchange.
//! Island tasks are independent, and the merge order is fixed by the
//! schedule, so outputs are bit-identical at every thread and shard
//! count. The executor computes values only; the operation and traffic
//! statistics come from the structural accountant
//! ([`super::account`]).

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use igcn_gnn::Activation;
use igcn_graph::NodeId;
use igcn_linalg::kernels::{axpy_f32, gather_axpy_f32, scale_f32};
use igcn_linalg::{DenseMatrix, GcnNormalization};
use threadpool::ThreadPool;

use crate::island::IslandBitmap;
use crate::layout::IslandLayout;

use super::plan::{self_in_bitmap, IslandScan, ScanPlan};
use super::LayerInput;

/// Member offsets `0..64` and unit coefficients: the terms of a
/// pre-aggregation group relative to its first member.
const IOTA: [u32; 64] = {
    let mut iota = [0u32; 64];
    let mut i = 0;
    while i < 64 {
        iota[i] = i as u32;
        i += 1;
    }
    iota
};
const ONES: [f32; 64] = [1.0; 64];

/// The non-zero entries of one dense input row, compacted for the
/// gather kernel (dense combination skips `x == 0` terms).
#[derive(Debug, Default)]
struct RowTerms {
    cols: Vec<u32>,
    vals: Vec<f32>,
}

impl RowTerms {
    fn reserve(&mut self, in_dim: usize) {
        self.cols.reserve(in_dim.saturating_sub(self.cols.len()));
        self.vals.reserve(in_dim.saturating_sub(self.vals.len()));
    }

    fn reserved_bytes(&self) -> usize {
        (self.cols.capacity() + self.vals.capacity()) * 4
    }
}

/// The combination arithmetic `y_v = s_in(v) · (X_v · W)`, written into
/// `out` (which must be `weights.cols()` long): one gather-accumulate
/// over the weight rows of `v`'s non-zero features.
///
/// # Panics
///
/// Panics if `out.len() != weights.cols()`.
fn combine_values_into(
    input: LayerInput<'_>,
    weights: &DenseMatrix,
    norm: &GcnNormalization,
    v: u32,
    terms: &mut RowTerms,
    out: &mut [f32],
) {
    assert_eq!(out.len(), weights.cols(), "combination output width mismatch");
    out.fill(0.0);
    let (w, stride) = (weights.as_slice(), weights.cols());
    match input {
        LayerInput::Sparse(x) => {
            let (cols, vals) = x.row(NodeId::new(v));
            gather_axpy_f32(out, w, stride, cols, vals);
        }
        LayerInput::Dense(m) => {
            terms.cols.clear();
            terms.vals.clear();
            for (c, &xv) in m.row(v as usize).iter().enumerate() {
                if xv != 0.0 {
                    terms.cols.push(c as u32);
                    terms.vals.push(xv);
                }
            }
            gather_axpy_f32(out, w, stride, &terms.cols, &terms.vals);
        }
    }
    let s = norm.in_scale(NodeId::new(v));
    if s != 1.0 {
        scale_f32(out, s);
    }
}

/// The fan-out seam shared by the engine's island chunks, its hub-slab
/// fill and the fleet's shards: every item is handed to exactly one
/// participating thread by an atomic claim counter, and each
/// participating thread owns one `workers` entry (its scratch) for the
/// whole call. Without a pool (or with one item, or one worker) the
/// items run in index order on the calling thread.
///
/// # Panics
///
/// Panics if `workers` is empty. Re-raises a panic of `work`.
pub fn claim_each<W: Send, T: Send>(
    pool: Option<&ThreadPool>,
    workers: &mut [W],
    items: Vec<T>,
    work: impl Fn(&mut W, usize, T) + Sync,
) {
    assert!(!workers.is_empty(), "claim_each needs at least one worker");
    let participants = pool.map_or(1, ThreadPool::threads).min(workers.len()).min(items.len());
    let (first, rest) = workers.split_first_mut().expect("checked non-empty");
    let Some(pool) = pool.filter(|_| participants > 1) else {
        for (i, item) in items.into_iter().enumerate() {
            work(first, i, item);
        }
        return;
    };
    // invariant: each slot is claimed by exactly one thread (the
    // fetch_add hands out unique indices), so its lock is never
    // contended; a panic in `work` happens after the slot was emptied,
    // so a poisoned lock is never observed again.
    let slots: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let next = AtomicUsize::new(0);
    let run = |w: &mut W| loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        let Some(slot) = slots.get(i) else { break };
        let item = slot.lock().expect("claim slot lock").take().expect("claimed once");
        work(w, i, item);
    };
    let run = &run;
    pool.scope(|s| {
        for w in &mut rest[..participants - 1] {
            s.spawn(move || run(w));
        }
        run(first);
    });
}

/// Per-worker arenas of island execution, reused across islands,
/// layers and requests; every buffer grows to its steady-state size on
/// first use and is only resliced afterwards.
#[derive(Debug, Default)]
pub struct IslandArena {
    /// The island's working rows: member combination vectors, then the
    /// reused group sums (`(dim + groups) × width`, row-major).
    rows: Vec<f32>,
    /// Dense-input non-zeros of the member being combined.
    terms: RowTerms,
}

impl IslandArena {
    /// Creates an empty arena; buffers grow on first use.
    pub fn new() -> Self {
        IslandArena::default()
    }

    /// Grows every buffer to what `rows` working rows at `width` and an
    /// input of `in_dim` columns need, so the arena never grows inside
    /// the island loop.
    fn reserve(&mut self, rows: usize, width: usize, in_dim: usize) {
        grow_f32(&mut self.rows, rows * width);
        self.terms.reserve(in_dim);
    }

    /// Bytes currently reserved by the arena.
    pub fn reserved_bytes(&self) -> usize {
        self.rows.capacity() * 4 + self.terms.reserved_bytes()
    }
}

fn grow_f32(v: &mut Vec<f32>, len: usize) {
    if v.len() < len {
        v.resize(len, 0.0);
    }
}

/// Everything one layer's island tasks borrow immutably.
#[derive(Clone, Copy)]
struct LayerEnv<'l> {
    k: usize,
    input: LayerInput<'l>,
    weights: &'l DenseMatrix,
    norm: &'l GcnNormalization,
    activation: Activation,
    width: usize,
    self_in_bitmap: bool,
}

/// One island task: combination, pre-aggregation of the reused groups
/// and the planned window scan. Activated island-node rows land in
/// `node_out`, raw hub-row aggregation results in `hub_out` (one
/// `width` slot per contacted hub, in the island's hub order).
fn run_island(
    env: &LayerEnv<'_>,
    bm: &IslandBitmap,
    scan: IslandScan<'_>,
    hub_y: &[f32],
    arena: &mut IslandArena,
    node_out: &mut [f32],
    hub_out: &mut [f32],
) {
    let width = env.width;
    let dim = bm.dim();
    let nh = bm.num_hubs();
    let working = dim + scan.groups.len();
    arena.reserve(working, width, env.input.num_cols());
    let IslandArena { rows, terms } = arena;
    let rows = &mut rows[..working * width];

    // Combination (hub vectors served from the XW slab).
    for (i, &m) in bm.members().iter().enumerate() {
        let row = &mut rows[i * width..][..width];
        if i < nh {
            row.copy_from_slice(&hub_y[m as usize * width..][..width]);
        } else {
            combine_values_into(env.input, env.weights, env.norm, m, terms, row);
        }
    }

    // Pre-aggregation of the groups some row reuses: the first member,
    // then the rest added in member order.
    let (members, sums) = rows.split_at_mut(dim * width);
    for (j, &g) in scan.groups.iter().enumerate() {
        let start = g as usize * env.k;
        let size = env.k.min(dim - start);
        let group = &members[start * width..];
        let sum = &mut sums[j * width..][..width];
        sum.copy_from_slice(&group[..width]);
        gather_axpy_f32(sum, group, width, &IOTA[1..size], &ONES[1..size]);
    }

    // Aggregation: one gather-accumulate per bitmap row over the
    // working rows, in the plan's window/member order.
    let rows = &*rows;
    for r in 0..dim {
        let (src, alpha) = scan.row(r);
        let out = if r < nh {
            &mut hub_out[r * width..][..width]
        } else {
            &mut node_out[(r - nh) * width..][..width]
        };
        out.fill(0.0);
        gather_axpy_f32(out, rows, width, src, alpha);
        if r < nh {
            continue;
        }
        // Island node: separate self contribution only when the
        // self-weight is not 1 (GIN), then post-scale and activate.
        if !env.self_in_bitmap {
            axpy_f32(out, &rows[r * width..][..width], env.norm.self_weight());
        }
        let os = env.norm.out_scale(NodeId::new(bm.member(r)));
        for o in out.iter_mut() {
            *o = env.activation.apply(*o * os);
        }
    }
}

/// Executes the islands `islands` of `layout` — the only code that
/// performs island aggregation arithmetic — replaying `plan`, the
/// layout's scan plan for this model. Hub combination vectors come
/// from the prefilled `hub_y` slab (`layout.num_hubs() × width`).
/// Activated island-node rows are written to `node_out` (the range's
/// island nodes back to back, row-major) and raw per-(island,
/// contacted hub) results to `hub_contrib` (islands back to back, one
/// `width` slot per contacted hub in the island's hub order). Merging
/// the contributions in schedule order with [`HubMergeState`] completes
/// the layer.
///
/// # Panics
///
/// Panics if the input, weight, normalisation, plan, slab or output
/// shapes do not match the layout and island range.
#[allow(clippy::too_many_arguments)]
pub fn execute_islands(
    layout: &IslandLayout,
    plan: &ScanPlan,
    input: LayerInput<'_>,
    weights: &DenseMatrix,
    norm: &GcnNormalization,
    activation: Activation,
    hub_y: &[f32],
    islands: Range<usize>,
    arena: &mut IslandArena,
    node_out: &mut [f32],
    hub_contrib: &mut [f32],
) {
    let n = layout.graph().num_nodes();
    let width = weights.cols();
    assert_eq!(input.num_rows(), n, "input row count does not match the graph");
    assert_eq!(input.num_cols(), weights.rows(), "input width does not match the weights");
    assert_eq!(norm.len(), n, "normalisation does not match the graph");
    assert_eq!(hub_y.len(), layout.num_hubs() * width, "hub XW slab mismatch");
    assert_eq!(plan.num_islands(), layout.partition().num_islands(), "scan plan mismatch");
    assert_eq!(plan.self_in_bitmap(), self_in_bitmap(norm), "scan plan is for another model");
    let env = LayerEnv {
        k: plan.k(),
        input,
        weights,
        norm,
        activation,
        width,
        self_in_bitmap: self_in_bitmap(norm),
    };
    let all = layout.partition().islands();
    let mut node_rest = node_out;
    let mut hub_rest = hub_contrib;
    for idx in islands {
        let isl = &all[idx];
        let (island_nodes, nr) =
            std::mem::take(&mut node_rest).split_at_mut(isl.nodes.len() * width);
        let (island_hubs, hr) = std::mem::take(&mut hub_rest).split_at_mut(isl.hubs.len() * width);
        node_rest = nr;
        hub_rest = hr;
        let bm = layout.bitmap(idx, env.self_in_bitmap);
        let scan = plan.island(idx);
        assert_eq!(scan.dim(), bm.dim(), "scan plan mismatch");
        run_island(&env, bm, scan, hub_y, arena, island_nodes, island_hubs);
    }
    assert!(node_rest.is_empty(), "island output slab mismatch");
    assert!(hub_rest.is_empty(), "contribution slab mismatch");
}

/// The hub side of one layer: the HUB Matrix XW slab and the DHUB-PRC
/// partial rows. The caller drives it in a fixed order — islands in
/// schedule order ([`merge_island`]), then the inter-hub tasks
/// ([`inter_hub`]), then [`finalize_into`] — which fixes the
/// floating-point accumulation order of every hub row.
///
/// [`merge_island`]: HubMergeState::merge_island
/// [`inter_hub`]: HubMergeState::inter_hub
/// [`finalize_into`]: HubMergeState::finalize_into
#[derive(Debug, Default)]
pub struct HubMergeState {
    width: usize,
    /// Hub XW slab (`H × width`).
    y: Vec<f32>,
    partial: Vec<f32>,
    partial_ready: Vec<bool>,
    /// Dense-input scratch of each thread filling the slab.
    terms: Vec<RowTerms>,
}

impl HubMergeState {
    /// Creates an empty merge state; slabs grow on first use.
    pub fn new() -> Self {
        HubMergeState::default()
    }

    /// Prepares the slabs for a layer of `width`-wide vectors over
    /// `num_hubs` hubs.
    pub fn begin_layer(&mut self, num_hubs: usize, width: usize) {
        self.width = width;
        self.y.resize(num_hubs * width, 0.0);
        self.partial.resize(num_hubs * width, 0.0);
        self.partial_ready.clear();
        self.partial_ready.resize(num_hubs, false);
    }

    /// Fills the hub XW slab: hub `h`'s row is `s_in(h)·(X_h·W)` of
    /// input row `h` (hubs are the first `H` rows of `input`). Rows are
    /// independent, so a pool splits them across threads without
    /// changing a bit.
    pub fn fill_y(
        &mut self,
        input: LayerInput<'_>,
        weights: &DenseMatrix,
        norm: &GcnNormalization,
        pool: Option<&ThreadPool>,
    ) {
        let width = self.width;
        let num_hubs = self.partial_ready.len();
        if num_hubs == 0 || width == 0 {
            return;
        }
        let threads = pool.map_or(1, ThreadPool::threads);
        if self.terms.len() < threads {
            self.terms.resize_with(threads, RowTerms::default);
        }
        for terms in &mut self.terms[..threads] {
            terms.reserve(input.num_cols());
        }
        let rows_per_chunk = num_hubs.div_ceil(threads * 4);
        let chunks: Vec<(usize, &mut [f32])> = self.y[..num_hubs * width]
            .chunks_mut(rows_per_chunk * width)
            .enumerate()
            .map(|(c, rows)| (c * rows_per_chunk, rows))
            .collect();
        claim_each(pool, &mut self.terms[..threads], chunks, |terms, _, (first, rows)| {
            for (i, row) in rows.chunks_mut(width).enumerate() {
                combine_values_into(input, weights, norm, (first + i) as u32, terms, row);
            }
        });
    }

    /// Bytes currently reserved by the merge state's slabs and scratch.
    pub fn reserved_bytes(&self) -> usize {
        (self.y.capacity() + self.partial.capacity()) * 4
            + self.partial_ready.capacity()
            + self.terms.capacity() * std::mem::size_of::<RowTerms>()
            + self.terms.iter().map(RowTerms::reserved_bytes).sum::<usize>()
    }

    /// The filled hub XW slab (hub `h`'s vector at `h * width`) — what
    /// island tasks and shards read their hub vectors from.
    pub fn y(&self) -> &[f32] {
        &self.y
    }

    /// Initialises hub `hub`'s partial row with its self contribution
    /// `self_weight · y_hub` on first touch.
    fn ensure_partial(&mut self, hub: u32, self_weight: f32) {
        let i = hub as usize;
        if self.partial_ready[i] {
            return;
        }
        let row = &mut self.partial[i * self.width..][..self.width];
        row.fill(0.0);
        axpy_f32(row, &self.y[i * self.width..][..self.width], self_weight);
        self.partial_ready[i] = true;
    }

    /// Folds one island's exported contributions (`contrib`: one
    /// `width` slot per hub of `hubs`, in order) into the hub rows.
    pub fn merge_island(&mut self, hubs: &[u32], contrib: &[f32], self_weight: f32) {
        let width = self.width;
        debug_assert_eq!(contrib.len(), hubs.len() * width, "contribution slots mismatch");
        for (&hub, delta) in hubs.iter().zip(contrib.chunks_exact(width)) {
            self.ensure_partial(hub, self_weight);
            for (p, &d) in self.partial[hub as usize * width..][..width].iter_mut().zip(delta) {
                *p += d;
            }
        }
    }

    /// Replays the inter-hub PUSH tasks: each source hub's XW vector is
    /// added to every destination hub's partial row, in task order.
    pub fn inter_hub(&mut self, tasks: &[(u32, Vec<u32>)], self_weight: f32) {
        let width = self.width;
        for (src, dests) in tasks {
            for &d in dests {
                self.ensure_partial(d, self_weight);
                let y = &self.y[*src as usize * width..][..width];
                for (p, &v) in self.partial[d as usize * width..][..width].iter_mut().zip(y) {
                    *p += v;
                }
            }
        }
    }

    /// Finalises every hub row — untouched hubs get their self
    /// contribution, every row is post-scaled and activated — into
    /// `hub_out` (`H × width`; `norm` is indexed so hub `h` is node
    /// `h`, i.e. the layout-order normalisation).
    pub fn finalize_into(
        &mut self,
        norm: &GcnNormalization,
        activation: Activation,
        hub_out: &mut [f32],
    ) {
        let width = self.width;
        let num_hubs = self.partial_ready.len();
        assert_eq!(hub_out.len(), num_hubs * width, "hub output slab mismatch");
        for h in 0..num_hubs {
            self.ensure_partial(h as u32, norm.self_weight());
            let os = norm.out_scale(NodeId::new(h as u32));
            let partial = &self.partial[h * width..][..width];
            for (o, &v) in hub_out[h * width..][..width].iter_mut().zip(partial) {
                *o = activation.apply(v * os);
            }
        }
    }
}

/// Steady-state scratch of [`run_layer`]: the hub merge state, one
/// island arena per worker and the contribution slab. Reused across
/// layers and requests.
#[derive(Debug, Default)]
pub struct LayerScratch {
    merge: HubMergeState,
    arenas: Vec<IslandArena>,
    contrib: Vec<f32>,
    /// Island `i`'s contribution slots start at `hub_offsets[i]`.
    hub_offsets: Vec<usize>,
}

impl LayerScratch {
    /// Creates an empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bytes currently reserved across all arenas — the observable for
    /// scratch-reuse regression tests (must stop growing after warm-up).
    pub fn arena_bytes(&self) -> usize {
        self.merge.reserved_bytes()
            + self.contrib.capacity() * 4
            + self.hub_offsets.capacity() * 8
            + self.arenas.iter().map(IslandArena::reserved_bytes).sum::<usize>()
    }
}

/// Contiguous island ranges of roughly equal schedule work, at most
/// `chunks` of them — the units the engine's workers claim.
fn island_chunks(work: &[u64], chunks: usize) -> Vec<Range<usize>> {
    let total: u64 = work.iter().sum();
    let mut ranges = Vec::with_capacity(chunks);
    let mut start = 0;
    let mut acc = 0u64;
    for (i, &w) in work.iter().enumerate() {
        acc += w;
        let cut = ranges.len() as u64 + 1;
        if cut < chunks as u64 && acc * chunks as u64 >= total * cut {
            ranges.push(start..i + 1);
            start = i + 1;
        }
    }
    if start < work.len() {
        ranges.push(start..work.len());
    }
    ranges
}

/// One GraphCONV layer on one engine — the one-shard, no-halo case of
/// the executor: hub XW slab, island chunks claimed by `pool`'s threads
/// (sequential without a pool) replaying `plan`, schedule-order merge,
/// inter-hub tasks, hub finalise. Writes activated rows in layout ID
/// order into `out` (`num_nodes × width`, row-major: hubs `0..H`, then
/// island nodes).
///
/// # Panics
///
/// Panics if the input, weight, normalisation, plan or output shapes do
/// not match the layout.
#[allow(clippy::too_many_arguments)]
pub fn run_layer(
    layout: &IslandLayout,
    plan: &ScanPlan,
    input: LayerInput<'_>,
    weights: &DenseMatrix,
    norm: &GcnNormalization,
    activation: Activation,
    pool: Option<&ThreadPool>,
    scratch: &mut LayerScratch,
    out: &mut [f32],
) {
    let width = weights.cols();
    let num_hubs = layout.num_hubs();
    let islands = layout.partition().islands();
    assert_eq!(out.len(), layout.graph().num_nodes() * width, "output buffer mismatch");
    let LayerScratch { merge, arenas, contrib, hub_offsets } = scratch;
    hub_offsets.clear();
    hub_offsets.push(0);
    for isl in islands {
        hub_offsets.push(hub_offsets[hub_offsets.len() - 1] + isl.hubs.len());
    }
    grow_f32(contrib, hub_offsets[islands.len()] * width);

    merge.begin_layer(num_hubs, width);
    merge.fill_y(input, weights, norm, pool);

    let threads = pool.map_or(1, ThreadPool::threads);
    let chunks = if threads > 1 { threads * 4 } else { 1 };
    let ranges = island_chunks(layout.schedule().work(), chunks);
    let (hub_out, node_out) = out.split_at_mut(num_hubs * width);
    let mut node_rest = node_out;
    let mut contrib_rest = &mut contrib[..hub_offsets[islands.len()] * width];
    let mut items = Vec::with_capacity(ranges.len());
    for range in ranges {
        let nodes: usize = islands[range.clone()].iter().map(|isl| isl.nodes.len()).sum();
        let slots = hub_offsets[range.end] - hub_offsets[range.start];
        let (n, nr) = std::mem::take(&mut node_rest).split_at_mut(nodes * width);
        let (c, cr) = std::mem::take(&mut contrib_rest).split_at_mut(slots * width);
        node_rest = nr;
        contrib_rest = cr;
        items.push((range, n, c));
    }
    // Every arena is sized for the largest island up front: which
    // worker claims which chunk varies from call to call, and no arena
    // may grow after the first call at a width.
    if arenas.len() < threads {
        arenas.resize_with(threads, IslandArena::default);
    }
    for arena in &mut arenas[..threads] {
        arena.reserve(plan.max_rows(), width, input.num_cols());
    }
    let hub_y = merge.y();
    claim_each(pool, arenas, items, |arena, _, (range, nodes, slots)| {
        execute_islands(
            layout, plan, input, weights, norm, activation, hub_y, range, arena, nodes, slots,
        );
    });

    let self_weight = norm.self_weight();
    for (i, isl) in islands.iter().enumerate() {
        merge.merge_island(
            &isl.hubs,
            &contrib[hub_offsets[i] * width..hub_offsets[i + 1] * width],
            self_weight,
        );
    }
    merge.inter_hub(layout.inter_hub_tasks(), self_weight);
    merge.finalize_into(norm, activation, hub_out);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ConsumerConfig, IslandizationConfig};
    use crate::consumer::window::WindowDecision;
    use crate::locator::islandize;
    use igcn_gnn::{reference_forward_layers, GnnModel, ModelWeights};
    use igcn_graph::generate::HubIslandConfig;
    use igcn_graph::{CsrGraph, SparseFeatures};

    fn plan_for(layout: &IslandLayout, cfg: ConsumerConfig, norm: &GcnNormalization) -> ScanPlan {
        ScanPlan::build(layout, cfg.k, cfg.redundancy_removal, self_in_bitmap(norm))
    }

    fn setup(n: usize, noise: f64, seed: u64) -> (CsrGraph, IslandLayout, SparseFeatures) {
        let g = HubIslandConfig::new(n, (n / 25).max(2)).noise_fraction(noise).generate(seed);
        let p = islandize(&g.graph, &IslandizationConfig::default());
        let layout = IslandLayout::new(&g.graph, &p, ConsumerConfig::default().num_pes);
        let x = SparseFeatures::random(n, 12, 0.4, seed ^ 0xBEEF);
        (g.graph, layout, x)
    }

    /// Every layer of `model` through [`run_layer`], in layout order
    /// (raw buffers, for bitwise comparisons).
    fn layout_layers(
        layout: &IslandLayout,
        cfg: ConsumerConfig,
        model: &GnnModel,
        w: &ModelWeights,
        x: &SparseFeatures,
        pool: Option<&ThreadPool>,
    ) -> Vec<DenseMatrix> {
        let n = layout.graph().num_nodes();
        let norm = model.normalization(layout.graph());
        let gathered = x.gather_rows(layout.gather_order());
        let plan = plan_for(layout, cfg, &norm);
        let mut scratch = LayerScratch::new();
        let mut outs: Vec<DenseMatrix> = Vec::new();
        for (i, layer) in model.layers().iter().enumerate() {
            let input = match outs.last() {
                None => LayerInput::Sparse(&gathered),
                Some(prev) => LayerInput::Dense(prev),
            };
            let mut out = DenseMatrix::zeros(n, layer.out_dim);
            let (w, act) = (w.layer(i), layer.activation);
            run_layer(layout, &plan, input, w, &norm, act, pool, &mut scratch, out.as_mut_slice());
            outs.push(out);
        }
        outs
    }

    /// Asserts every layer matches the reference oracle within 1e-4 of
    /// `max(1, max |reference|)` (GIN's unnormalised sums reach
    /// magnitudes where absolute f32 reassociation noise exceeds 1e-4).
    fn assert_matches_reference(
        g: &CsrGraph,
        layout: &IslandLayout,
        cfg: ConsumerConfig,
        model: &GnnModel,
        x: &SparseFeatures,
        what: &str,
    ) {
        let w = ModelWeights::glorot(model, 17);
        let reference = reference_forward_layers(g, x, model, &w);
        for (i, out) in layout_layers(layout, cfg, model, &w, x, None).iter().enumerate() {
            let mut unpermuted = DenseMatrix::zeros(out.rows(), out.cols());
            for (old, &new) in layout.forward().iter().enumerate() {
                unpermuted.row_mut(old).copy_from_slice(out.row(new as usize));
            }
            let scale = reference[i].as_slice().iter().fold(1.0f32, |m, v| m.max(v.abs()));
            let diff = unpermuted.max_abs_diff(&reference[i]) / scale;
            assert!(diff <= 1e-4, "{what}: layer {i} diverges from the reference by {diff}");
        }
    }

    #[test]
    fn layers_match_the_reference_across_noise_and_models() {
        for (noise, seed) in [(0.0, 1), (0.08, 2), (0.2, 3)] {
            let (g, layout, x) = setup(220, noise, seed);
            // Width 70 spans two 32-column kernel passes and a tail.
            for model in
                [GnnModel::gcn(12, 7, 3), GnnModel::gin(12, 7, 3, 0.3), GnnModel::gcn(12, 70, 3)]
            {
                let what = format!("noise={noise} {:?}", model.kind());
                assert_matches_reference(&g, &layout, ConsumerConfig::default(), &model, &x, &what);
            }
        }
    }

    #[test]
    fn redundancy_removal_is_lossless_for_any_k() {
        let (g, layout, x) = setup(160, 0.05, 3);
        for model in [GnnModel::gcn(12, 5, 3), GnnModel::gin(12, 5, 3, 0.2)] {
            for k in [2, 3, 4, 8] {
                for on in [true, false] {
                    let cfg = ConsumerConfig::default().with_k(k).with_redundancy_removal(on);
                    let what = format!("{:?} k={k} redundancy_removal={on}", model.kind());
                    assert_matches_reference(&g, &layout, cfg, &model, &x, &what);
                }
            }
        }
    }

    /// The Island Consumer's scan as §3.3 describes it, written out
    /// with plain scalar loops and no plan: combination one non-zero at
    /// a time, every group of every island pre-aggregated, then each
    /// `1×k` window decided and applied in turn. The bitwise oracle of
    /// the planned, gather-kernel executor.
    #[allow(clippy::too_many_arguments)]
    fn direct_scan_islands(
        layout: &IslandLayout,
        k: usize,
        redundancy_removal: bool,
        input: LayerInput<'_>,
        weights: &DenseMatrix,
        norm: &GcnNormalization,
        activation: Activation,
    ) -> (Vec<f32>, Vec<f32>, Vec<f32>) {
        let width = weights.cols();
        let add = |acc: &mut [f32], x: &[f32], a: f32| {
            for (o, &v) in acc.iter_mut().zip(x) {
                *o += a * v;
            }
        };
        let combine = |v: u32| {
            let mut out = vec![0.0f32; width];
            let terms: Vec<(usize, f32)> = match input {
                LayerInput::Sparse(x) => {
                    let (cols, vals) = x.row(NodeId::new(v));
                    cols.iter().map(|&c| c as usize).zip(vals.iter().copied()).collect()
                }
                LayerInput::Dense(m) => {
                    m.row(v as usize).iter().copied().enumerate().filter(|t| t.1 != 0.0).collect()
                }
            };
            for (c, xv) in terms {
                add(&mut out, weights.row(c), xv);
            }
            let s = norm.in_scale(NodeId::new(v));
            if s != 1.0 {
                out.iter_mut().for_each(|o| *o *= s);
            }
            out
        };
        let hub_y: Vec<f32> = (0..layout.num_hubs() as u32).flat_map(combine).collect();
        let self_in = norm.self_weight() == 1.0;
        let (mut nodes, mut contrib) = (Vec::new(), Vec::new());
        for idx in 0..layout.partition().num_islands() {
            let bm = layout.bitmap(idx, self_in);
            let (dim, nh) = (bm.dim(), bm.num_hubs());
            let y: Vec<Vec<f32>> = bm.members().iter().map(|&m| combine(m)).collect();
            let sums: Vec<Vec<f32>> = (0..dim.div_ceil(k))
                .map(|g| {
                    let mut sum = y[g * k].clone();
                    for member in &y[g * k + 1..dim.min(g * k + k)] {
                        add(&mut sum, member, 1.0);
                    }
                    sum
                })
                .collect();
            for (r, &member) in bm.members().iter().enumerate() {
                let mut acc = vec![0.0f32; width];
                for (g, sum) in sums.iter().enumerate() {
                    let size = k.min(dim - g * k);
                    let mask = bm.window(r, g * k, k);
                    let reuse = match WindowDecision::decide(mask, size, redundancy_removal) {
                        WindowDecision::Skip => continue,
                        WindowDecision::Direct { .. } => false,
                        WindowDecision::Reuse { .. } => true,
                    };
                    if reuse {
                        add(&mut acc, sum, 1.0);
                    }
                    for b in 0..size {
                        if ((mask >> b) & 1 == 1) != reuse {
                            add(&mut acc, &y[g * k + b], if reuse { -1.0 } else { 1.0 });
                        }
                    }
                }
                if r < nh {
                    contrib.extend(acc);
                    continue;
                }
                if !self_in {
                    add(&mut acc, &y[r], norm.self_weight());
                }
                let os = norm.out_scale(NodeId::new(member));
                nodes.extend(acc.iter().map(|&v| activation.apply(v * os)));
            }
        }
        (hub_y, nodes, contrib)
    }

    #[test]
    fn planned_scan_matches_the_direct_window_scan_bitwise() {
        let (_, layout, x) = setup(160, 0.05, 3);
        let (n, h) = (layout.graph().num_nodes(), layout.num_hubs());
        let gathered = x.gather_rows(layout.gather_order());
        // A dense input with exact zeros and negative zeros (skipped by
        // the dense combination) next to ordinary values.
        let mut dense = DenseMatrix::from_vec(n, 12, gathered.to_dense());
        for (i, v) in dense.as_mut_slice().iter_mut().enumerate() {
            if i % 7 == 3 {
                *v = -0.0;
            }
        }
        let islands = layout.partition().islands();
        let slots: usize = islands.iter().map(|isl| isl.hubs.len()).sum();
        for gin in [false, true] {
            let model = if gin { GnnModel::gin(12, 3, 2, 0.25) } else { GnnModel::gcn(12, 3, 2) };
            let norm = model.normalization(layout.graph());
            for width in [1usize, 3, 7, 8, 16, 17] {
                let weights = ModelWeights::glorot(&GnnModel::gcn(12, width, 2), width as u64);
                let w = weights.layer(0);
                for (k, on) in [2usize, 3, 4, 8].into_iter().flat_map(|k| [(k, true), (k, false)]) {
                    let plan = ScanPlan::build(&layout, k, on, self_in_bitmap(&norm));
                    for input in [LayerInput::Sparse(&gathered), LayerInput::Dense(&dense)] {
                        let act = Activation::Relu;
                        let (hub_y, nodes, contrib) =
                            direct_scan_islands(&layout, k, on, input, w, &norm, act);
                        let mut merge = HubMergeState::new();
                        merge.begin_layer(h, width);
                        merge.fill_y(input, w, &norm, None);
                        let (mut got_nodes, mut got_contrib) =
                            (vec![0.0f32; (n - h) * width], vec![0.0f32; slots * width]);
                        execute_islands(
                            &layout,
                            &plan,
                            input,
                            w,
                            &norm,
                            act,
                            merge.y(),
                            0..islands.len(),
                            &mut IslandArena::new(),
                            &mut got_nodes,
                            &mut got_contrib,
                        );
                        let what = format!("gin={gin} width={width} k={k} reuse={on} {input:?}");
                        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                        assert_eq!(bits(merge.y()), bits(&hub_y), "{what}: hub XW slab");
                        assert_eq!(bits(&got_nodes), bits(&nodes), "{what}: island rows");
                        assert_eq!(bits(&got_contrib), bits(&contrib), "{what}: contributions");
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "scan plan is for another model")]
    fn a_plan_for_another_bitmap_variant_is_rejected() {
        let (_, layout, x) = setup(150, 0.0, 9);
        let gin = GnnModel::gin(12, 4, 3, 0.3);
        let w = ModelWeights::glorot(&gin, 1);
        let norm = gin.normalization(layout.graph());
        let gcn_plan = plan_for(
            &layout,
            ConsumerConfig::default(),
            &GcnNormalization::symmetric(layout.graph()),
        );
        let gathered = x.gather_rows(layout.gather_order());
        let mut merge = HubMergeState::new();
        merge.begin_layer(layout.num_hubs(), 4);
        let (input, act) = (LayerInput::Sparse(&gathered), Activation::Relu);
        let range = 0..layout.partition().num_islands();
        execute_islands(
            &layout,
            &gcn_plan,
            input,
            w.layer(0),
            &norm,
            act,
            merge.y(),
            range,
            &mut IslandArena::new(),
            &mut [],
            &mut [],
        );
    }

    #[test]
    fn outputs_are_bitwise_identical_at_every_thread_count() {
        let (_, layout, x) = setup(260, 0.05, 7);
        let cfg = ConsumerConfig::default();
        for model in [GnnModel::gcn(12, 6, 4), GnnModel::gin(12, 6, 4, 0.2)] {
            let w = ModelWeights::glorot(&model, 11);
            let sequential = layout_layers(&layout, cfg, &model, &w, &x, None);
            for threads in [1usize, 2, 8] {
                let pool = ThreadPool::new(threads);
                let pooled = layout_layers(&layout, cfg, &model, &w, &x, Some(&pool));
                assert_eq!(pooled, sequential, "{:?} at {threads} threads", model.kind());
            }
        }
    }

    #[test]
    fn scratch_arena_stops_growing_after_first_layer() {
        let (_, layout, x) = setup(200, 0.05, 5);
        let model = GnnModel::gcn(12, 8, 4);
        let w = ModelWeights::glorot(&model, 3);
        let norm = model.normalization(layout.graph());
        let gathered = x.gather_rows(layout.gather_order());
        let plan = plan_for(&layout, ConsumerConfig::default(), &norm);
        let mut buf = vec![0.0f32; layout.graph().num_nodes() * 8];
        let mut scratch = LayerScratch::new();
        let mut run = |scratch: &mut LayerScratch| {
            let input = LayerInput::Sparse(&gathered);
            let (w, act) = (w.layer(0), Activation::Relu);
            run_layer(&layout, &plan, input, w, &norm, act, None, scratch, &mut buf);
            buf.clone()
        };
        let first = run(&mut scratch);
        let warm_bytes = scratch.arena_bytes();
        assert!(warm_bytes > 0);
        for _ in 0..5 {
            assert_eq!(run(&mut scratch), first, "repeated layers must be deterministic");
            assert_eq!(scratch.arena_bytes(), warm_bytes, "scratch must not grow after warm-up");
        }
    }

    #[test]
    fn claim_each_runs_every_item_exactly_once() {
        let pool = ThreadPool::new(3);
        for pool in [None, Some(&pool)] {
            let mut workers = vec![Vec::new(); 3];
            let seen: Vec<Mutex<u32>> = (0..50).map(|_| Mutex::new(0)).collect();
            claim_each(pool, &mut workers, (0..50).collect(), |mine, i, item: usize| {
                assert_eq!(i, item);
                *seen[i].lock().unwrap() += 1;
                mine.push(item);
            });
            assert!(seen.iter().all(|c| *c.lock().unwrap() == 1), "every item exactly once");
            let mut claimed: Vec<usize> = workers.concat();
            if pool.is_none() {
                assert_eq!(workers[0], (0..50).collect::<Vec<_>>(), "sequential, in order");
            }
            claimed.sort_unstable();
            assert_eq!(claimed, (0..50).collect::<Vec<_>>());
        }
    }

    #[test]
    fn split_island_ranges_match_one_call() {
        // The seam both serving shapes rely on: islands executed in any
        // split of ranges (threads, shards) produce the same bits.
        let (_, layout, x) = setup(240, 0.1, 22);
        let model = GnnModel::gin(12, 7, 3, 0.3);
        let w = ModelWeights::glorot(&model, 5);
        let norm = model.normalization(layout.graph());
        let plan = plan_for(&layout, ConsumerConfig::default(), &norm);
        let gathered = x.gather_rows(layout.gather_order());
        let input = LayerInput::Sparse(&gathered);
        let (n, h, width) = (layout.graph().num_nodes(), layout.num_hubs(), 7);
        let mut merge = HubMergeState::new();
        merge.begin_layer(h, width);
        merge.fill_y(input, w.layer(0), &norm, None);
        let islands = layout.partition().islands();
        let slots: usize = islands.iter().map(|isl| isl.hubs.len()).sum();
        let run = |ranges: &[Range<usize>]| {
            let (mut nodes, mut contrib) =
                (vec![0.0f32; (n - h) * width], vec![0.0; slots * width]);
            let (mut node_rest, mut contrib_rest) = (&mut nodes[..], &mut contrib[..]);
            let mut arena = IslandArena::new();
            for range in ranges {
                let rows: usize = islands[range.clone()].iter().map(|i| i.nodes.len()).sum();
                let hubs: usize = islands[range.clone()].iter().map(|i| i.hubs.len()).sum();
                let (a, ar) = std::mem::take(&mut node_rest).split_at_mut(rows * width);
                let (b, br) = std::mem::take(&mut contrib_rest).split_at_mut(hubs * width);
                (node_rest, contrib_rest) = (ar, br);
                let (w, act) = (w.layer(0), Activation::Relu);
                execute_islands(
                    &layout,
                    &plan,
                    input,
                    w,
                    &norm,
                    act,
                    merge.y(),
                    range.clone(),
                    &mut arena,
                    a,
                    b,
                );
            }
            (nodes, contrib)
        };
        let k = islands.len();
        let whole = run(std::slice::from_ref(&(0..k)));
        assert_eq!(run(&[0..k / 3, k / 3..k / 2, k / 2..k]), whole);
        assert_eq!(run(&[0..1, 1..k]), whole);
    }

    #[test]
    #[should_panic(expected = "hub XW slab mismatch")]
    fn mis_sized_hub_slab_is_rejected() {
        let (_, layout, x) = setup(150, 0.0, 9);
        let model = GnnModel::gcn(12, 4, 3);
        let w = ModelWeights::glorot(&model, 1);
        let norm = model.normalization(layout.graph());
        let gathered = x.gather_rows(layout.gather_order());
        let stale = vec![0.0f32; (layout.num_hubs() - 1) * 4];
        let (input, act) = (LayerInput::Sparse(&gathered), Activation::Relu);
        let range = 0..layout.partition().num_islands();
        execute_islands(
            &layout,
            &plan_for(&layout, ConsumerConfig::default(), &norm),
            input,
            w.layer(0),
            &norm,
            act,
            &stale,
            range,
            &mut IslandArena::new(),
            &mut [],
            &mut [],
        );
    }

    #[test]
    fn hub_merge_replays_islands_then_inter_hub_then_finalises() {
        // Two hubs of width 2; unit scales (GIN, epsilon 0.5 → self
        // weight 1.5) so the arithmetic is easy to follow by hand.
        let g = igcn_graph::CsrGraph::from_undirected_edges(3, &[(0, 1), (1, 2)]).unwrap();
        let norm = GcnNormalization::gin(&g, 0.5);
        let mut merge = HubMergeState::new();
        merge.begin_layer(3, 2);
        merge.y.copy_from_slice(&[1.0, 2.0, 10.0, 20.0, -1.0, 4.0]);
        merge.merge_island(&[1, 0], &[0.5, 0.5, 3.0, 3.0], 1.5);
        merge.merge_island(&[1], &[1.0, 1.0], 1.5);
        merge.inter_hub(&[(0, vec![1]), (1, vec![0])], 1.5);
        let mut out = vec![0.0f32; 6];
        merge.finalize_into(&norm, Activation::Relu, &mut out);
        // Hub 0: 1.5·y0 + 3 + y1 = (1.5 + 3 + 10, 3 + 3 + 20).
        // Hub 1: 1.5·y1 + 0.5 + 1 + y0 = (15 + 0.5 + 1 + 1, 30 + 0.5 + 1 + 2).
        // Hub 2: untouched — self contribution only, then ReLU.
        assert_eq!(out, vec![14.5, 26.0, 17.5, 33.5, 0.0, 6.0]);
    }

    #[test]
    fn island_chunks_cover_every_island_once() {
        let work = [9u64, 1, 7, 3, 3, 0, 8, 2];
        for chunks in [1usize, 2, 3, 8, 16] {
            let ranges = island_chunks(&work, chunks);
            assert!(ranges.len() <= chunks, "{chunks} chunks: {ranges:?}");
            let covered: Vec<usize> = ranges.iter().flat_map(|r| r.clone()).collect();
            assert_eq!(covered, (0..work.len()).collect::<Vec<_>>(), "{chunks} chunks");
        }
        assert!(island_chunks(&[], 4).is_empty());
    }

    #[test]
    fn island_chunks_balance_schedule_work() {
        let (_, layout, _) = setup(400, 0.02, 13);
        let work = layout.schedule().work();
        let (total, largest) = (layout.schedule().total_work(), *work.iter().max().unwrap());
        for chunks in [2usize, 4, 8] {
            for range in island_chunks(work, chunks) {
                let load: u64 = work[range].iter().sum();
                assert!(
                    load <= total.div_ceil(chunks as u64) + largest,
                    "{chunks} chunks: a chunk carries {load} of {total} work units"
                );
            }
        }
    }
}
