//! The sharded multi-engine serving front: K per-shard [`IGcnEngine`]s
//! plus a deterministic per-layer halo exchange.
//!
//! # Execution model
//!
//! Each shard owns whole islands and replicates its contacted hubs (the
//! **halo**). Island closure makes island-node rows shard-complete: an
//! island node's neighbors are in-island or hubs, all present locally,
//! and the shard subgraph's local IDs are order-isomorphic to the
//! global layout IDs, so every local accumulation replays the global
//! order. Per layer:
//!
//! 1. the coordinator combines the **hub XW slab** from the merged hub
//!    activations (layer 0: the hubs' feature rows) and broadcasts each
//!    shard its replicated rows — the halo payload;
//! 2. every shard executes its islands locally with the island
//!    executor ([`execute_islands`]), producing final activated
//!    island-node rows plus raw per-(island, hub) contributions;
//! 3. the coordinator replays the contributions in **global schedule
//!    order**, then the inter-hub tasks in the layout's replay order,
//!    and finalises hub rows ([`HubMergeState`]) — the exact
//!    floating-point accumulation order of a single engine, which is
//!    what makes outputs **bit-identical** at every shard count.
//!
//! A single engine runs the same executor as the one-shard, no-halo
//! case. `ExecStats` come from the structural accountant over the
//! global layout, cached per epoch ([`AccountantCache`]) — the same
//! numbers a single engine reports, because the logical computation is
//! the same; the *communication* story of the cut (replication factor,
//! cut edges, halo bytes) is reported separately by
//! [`crate::sharder::ShardingReport`] and
//! [`ShardedEngine::halo_bytes_per_inference`].

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use igcn_core::accel::{validate_request, validate_weights, UpdateReport};
use igcn_core::consumer::account::AccountantCache;
use igcn_core::consumer::executor::{claim_each, execute_islands, HubMergeState, IslandArena};
use igcn_core::consumer::LayerInput;
use igcn_core::incremental::apply_update_structural;
use igcn_core::partition::NodeClass;
use igcn_core::stats::{ExecStats, LocatorStats};
use igcn_core::{
    Accelerator, BackendHealth, ConsumerConfig, CoreError, EngineParts, ExecConfig, ExecReport,
    GraphUpdate, IGcnEngine, InferenceRequest, InferenceResponse, Island, IslandLayout,
    IslandPartition, IslandizationConfig,
};
use igcn_gnn::{GnnModel, ModelWeights};
use igcn_graph::{CsrGraph, NodeId, SparseFeatures};
use igcn_linalg::{DenseMatrix, GcnNormalization};
use igcn_store::{ManifestEntry, ShardEntry, ShardManifest, Snapshot, StoreError};
use threadpool::ThreadPool;

use crate::error::ShardError;
use crate::sharder::{assign_islands, sharding_report, ShardAssignment, ShardingReport};

/// One shard: a complete [`IGcnEngine`] over the shard's subgraph
/// (owned islands + replicated contact hubs) plus the ID maps that tie
/// it back to the global graph.
#[derive(Debug, Clone)]
pub struct Shard {
    engine: IGcnEngine,
    /// Global island indices owned, in local island order (ascending).
    islands: Vec<u32>,
    /// Local hub ID → global layout hub ID (`0..H`), ascending — the
    /// halo map.
    hub_global: Vec<u32>,
    /// Local node ID → global layout node ID.
    local_to_layout: Vec<u32>,
    /// Local node ID → *original* global node ID (the feature-gather
    /// map).
    gather_original: Vec<u32>,
    /// Prefix sums of per-island contacted-hub counts (the layout of
    /// the exported contribution slab).
    island_hub_offsets: Vec<usize>,
}

impl Shard {
    /// The shard's engine — a full, independently servable
    /// [`IGcnEngine`] over the local subgraph (what a fleet node runs,
    /// and what the per-shard snapshot captures).
    pub fn engine(&self) -> &IGcnEngine {
        &self.engine
    }

    /// Global island indices owned by this shard.
    pub fn islands(&self) -> &[u32] {
        &self.islands
    }

    /// Replicated hub count (halo rows).
    pub fn num_hubs(&self) -> usize {
        self.hub_global.len()
    }

    /// Local node count (halo hubs + owned island nodes).
    pub fn num_nodes(&self) -> usize {
        self.gather_original.len()
    }

    /// Owned island-node count (excludes the replicated halo).
    pub fn num_owned_nodes(&self) -> usize {
        self.num_nodes() - self.num_hubs()
    }

    /// Local node ID → original global node ID: the map that gathers a
    /// global feature matrix down to this shard's rows (halo hubs
    /// first, then owned island nodes in schedule order).
    pub fn gather_original(&self) -> &[u32] {
        &self.gather_original
    }

    /// Exported contribution slots (one per island×contacted-hub pair)
    /// — the shard's per-layer upstream halo traffic in rows.
    fn contrib_slots(&self) -> usize {
        // invariant: the offsets vector is built starting from a single 0
        // entry, so `last()` always exists.
        *self.island_hub_offsets.last().expect("offsets have a final entry")
    }
}

/// Cached per-model execution state installed by `prepare`.
#[derive(Debug, Clone)]
struct Prepared {
    model: GnnModel,
    weights: ModelWeights,
    /// Global normalisation in layout-ID order (hub `h` is node `h`).
    norm: GcnNormalization,
    /// Per-shard normalisations: global-degree scales gathered to local
    /// IDs (a shard must never recompute scales from its subgraph — the
    /// halo truncates replicated-hub degrees).
    shard_norms: Vec<GcnNormalization>,
}

/// Outcome of routing a [`GraphUpdate`] through a [`ShardedEngine`].
#[derive(Debug, Clone)]
pub struct ShardUpdateReport {
    /// The engine-level restructuring outcome.
    pub update: UpdateReport,
    /// Shards whose *owned island-node set* changed — the shards the
    /// update was routed to (plus receivers of migrated islands). Every
    /// shard additionally gets its halo refreshed.
    pub resharded: Vec<usize>,
    /// Islands placed on a different shard than their affinity
    /// preference (0 when the disturbed region re-formed in place).
    pub moved_islands: usize,
    /// Post-commit structural stats per shard, in shard-index order.
    pub shard_structure: Vec<ShardStructure>,
}

/// Structural shape of one shard after (re)assembly — what it owns,
/// what it replicates, and what it exports per layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardStructure {
    /// Owned (whole) islands.
    pub islands: usize,
    /// Owned island nodes — excludes the replicated halo.
    pub owned_nodes: usize,
    /// Replicated halo hubs: each one's XW row is recomputed (or, on a
    /// real fleet, received) locally every layer.
    pub halo_hubs: usize,
    /// Exported per-(island, hub) contribution slots — the shard's
    /// upstream halo rows per layer.
    pub contrib_slots: usize,
}

/// Per-request scratch of the whole fleet — one [`ShardRunState`] per
/// shard plus the coordinator's hub side — pooled as one set.
struct FleetRunState {
    shards: Vec<ShardRunState>,
    /// Layer 0's hub input rows, in layout hub order.
    hub_feats: SparseFeatures,
    /// The previous layer's finalised hub rows (the next halo payload).
    hub_acts: DenseMatrix,
    merge: HubMergeState,
}

impl FleetRunState {
    fn empty(num_shards: usize) -> FleetRunState {
        FleetRunState {
            shards: (0..num_shards).map(|_| ShardRunState::empty()).collect(),
            hub_feats: empty_features(),
            hub_acts: DenseMatrix::zeros(0, 0),
            merge: HubMergeState::new(),
        }
    }

    /// Bytes reserved across every buffer of the set.
    #[cfg(test)]
    fn reserved_bytes(&self) -> usize {
        let shards: usize = self
            .shards
            .iter()
            .map(|st| {
                st.gathered.reserved_bytes()
                    + st.ping.reserved_bytes()
                    + st.pong.reserved_bytes()
                    + (st.contrib.capacity() + st.hub_y.capacity()) * 4
                    + st.arena.reserved_bytes()
            })
            .sum();
        shards
            + self.hub_feats.reserved_bytes()
            + self.hub_acts.reserved_bytes()
            + self.merge.reserved_bytes()
    }
}

fn empty_features() -> SparseFeatures {
    // invariant: the 0×0 CSR with offsets [0] is structurally valid by
    // construction; `from_raw_parts` cannot reject it.
    SparseFeatures::from_raw_parts(0, 0, vec![0], Vec::new(), Vec::new())
        .expect("empty features are well-formed")
}

/// Per-request, per-shard scratch of the layer driver.
struct ShardRunState {
    /// Request features gathered to local IDs (halo hub rows first).
    gathered: SparseFeatures,
    /// Previous layer's local activations (island rows valid).
    ping: DenseMatrix,
    /// Current layer's local activations.
    pong: DenseMatrix,
    /// Exported hub contributions of the current layer.
    contrib: Vec<f32>,
    /// This shard's halo slice of the hub XW slab.
    hub_y: Vec<f32>,
    arena: IslandArena,
}

impl ShardRunState {
    fn empty() -> ShardRunState {
        ShardRunState {
            gathered: empty_features(),
            ping: DenseMatrix::zeros(0, 0),
            pong: DenseMatrix::zeros(0, 0),
            contrib: Vec::new(),
            hub_y: Vec::new(),
            arena: IslandArena::new(),
        }
    }
}

/// At most this many per-request state sets are pooled; concurrent
/// requests beyond the cap allocate fresh and are dropped on return.
const SHARD_STATE_POOL_CAP: usize = 8;

/// Pools complete per-request state sets ([`FleetRunState`]: one
/// [`ShardRunState`] per shard plus the hub merge side) so steady-state
/// serving reallocates nothing per inference — the fleet counterpart of
/// the single engine's `ScratchPool`. The driver re-gathers the feature
/// buffers and resizes every buffer in place each request, so pooled
/// capacity is shape-agnostic; the pool is still cleared at every
/// [`ShardedEngine::apply_update`] commit so stale capacity does not
/// outlive a resharding. Shared (`Arc`) across engine clones, like the
/// thread pool.
struct ShardStatePool {
    // invariant: this lock is only ever held across plain Vec
    // operations (no user code, no panics mid-critical-section), so it
    // cannot be poisoned; the `expect`s below document that rather than
    // guard a reachable failure.
    sets: Mutex<Vec<FleetRunState>>,
}

impl ShardStatePool {
    fn new() -> ShardStatePool {
        ShardStatePool { sets: Mutex::new(Vec::new()) }
    }

    /// Takes a pooled set matching the fleet width, if any.
    fn take(&self, num_shards: usize) -> Option<FleetRunState> {
        let mut sets = self.sets.lock().expect("shard state pool lock");
        let at = sets.iter().position(|set| set.shards.len() == num_shards)?;
        Some(sets.swap_remove(at))
    }

    fn put(&self, set: FleetRunState) {
        let mut sets = self.sets.lock().expect("shard state pool lock");
        if sets.len() < SHARD_STATE_POOL_CAP {
            sets.push(set);
        }
    }

    fn clear(&self) {
        self.sets.lock().expect("shard state pool lock").clear();
    }

    #[cfg(test)]
    fn pooled(&self) -> usize {
        self.sets.lock().expect("shard state pool lock").len()
    }

    #[cfg(test)]
    fn pooled_bytes(&self) -> usize {
        let sets = self.sets.lock().expect("shard state pool lock");
        sets.iter().map(FleetRunState::reserved_bytes).sum()
    }
}

impl std::fmt::Debug for ShardStatePool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let pooled = self.sets.lock().map(|s| s.len()).unwrap_or(0);
        f.debug_struct("ShardStatePool").field("pooled_sets", &pooled).finish()
    }
}

/// Live status of one shard, as reported by
/// [`ShardedEngine::shard_health`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardHealth {
    /// The shard serves.
    Up,
    /// The shard's execution panicked mid-request and was contained;
    /// the fleet fails fast with [`ShardError::ShardFailed`] until
    /// [`ShardedEngine::heal`] rebuilds it.
    Down {
        /// The contained panic message.
        detail: String,
    },
}

/// Shared per-shard health: written from worker threads when a panic is
/// contained at the fan-out seam, read on every request as a fail-fast
/// gate. The `any_down` flag keeps the healthy hot path to one relaxed
/// atomic load.
#[derive(Debug)]
struct HealthBoard {
    any_down: AtomicBool,
    status: Mutex<Vec<ShardHealth>>,
}

impl HealthBoard {
    fn new(num_shards: usize) -> HealthBoard {
        HealthBoard {
            any_down: AtomicBool::new(false),
            status: Mutex::new(vec![ShardHealth::Up; num_shards]),
        }
    }

    /// The board never holds its lock across a panic, but a worker
    /// thread aborting between lock and unlock would poison it; health
    /// reporting must survive that, so recover the data either way.
    fn lock(&self) -> MutexGuard<'_, Vec<ShardHealth>> {
        self.status.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    fn mark_down(&self, shard: usize, detail: &str) {
        self.lock()[shard] = ShardHealth::Down { detail: detail.to_string() };
        self.any_down.store(true, Ordering::Release);
    }

    fn mark_up(&self, shard: usize) {
        let mut status = self.lock();
        status[shard] = ShardHealth::Up;
        let all_up = status.iter().all(|s| *s == ShardHealth::Up);
        if all_up {
            self.any_down.store(false, Ordering::Release);
        }
    }

    fn reset(&self, num_shards: usize) {
        *self.lock() = vec![ShardHealth::Up; num_shards];
        self.any_down.store(false, Ordering::Release);
    }

    fn any_down(&self) -> bool {
        self.any_down.load(Ordering::Acquire)
    }

    fn snapshot(&self) -> Vec<ShardHealth> {
        self.lock().clone()
    }

    fn down_shards(&self) -> Vec<usize> {
        self.lock()
            .iter()
            .enumerate()
            .filter_map(|(i, s)| matches!(s, ShardHealth::Down { .. }).then_some(i))
            .collect()
    }

    /// An independent board with the same statuses (for
    /// [`ShardedEngine::clone`] — clones are independent fleets).
    fn duplicate(&self) -> HealthBoard {
        let status = self.snapshot();
        HealthBoard {
            any_down: AtomicBool::new(status.iter().any(|s| matches!(s, ShardHealth::Down { .. }))),
            status: Mutex::new(status),
        }
    }
}

/// Renders a contained panic payload for health reports.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_string()
    }
}

/// K engines behind one [`Accelerator`]: island-aware sharding with
/// hubs replicated as the halo, a deterministic per-layer halo
/// exchange, and outputs + `ExecStats` **bit-identical** to a single
/// [`IGcnEngine`] at every shard count and thread count.
///
/// # Example
///
/// ```
/// use igcn_core::{Accelerator, IGcnEngine, InferenceRequest};
/// use igcn_gnn::{GnnModel, ModelWeights};
/// use igcn_graph::generate::HubIslandConfig;
/// use igcn_graph::SparseFeatures;
/// use igcn_shard::ShardedEngine;
///
/// let g = HubIslandConfig::new(300, 12).noise_fraction(0.02).generate(7);
/// let mut single = IGcnEngine::builder(g.graph).build()?;
/// let model = GnnModel::gcn(16, 8, 4);
/// let weights = ModelWeights::glorot(&model, 1);
/// single.prepare(&model, &weights)?;
///
/// let mut sharded = ShardedEngine::from_engine(&single, 2).expect("shardable");
/// sharded.prepare(&model, &weights)?;
///
/// let request = InferenceRequest::new(SparseFeatures::random(300, 16, 0.2, 2));
/// let a = single.infer(&request)?;
/// let b = sharded.infer(&request)?;
/// assert_eq!(a.output, b.output); // bit-identical
/// # Ok::<(), igcn_core::CoreError>(())
/// ```
#[derive(Debug)]
pub struct ShardedEngine {
    graph: Arc<CsrGraph>,
    partition: IslandPartition,
    locator_stats: LocatorStats,
    layout: Arc<IslandLayout>,
    island_cfg: IslandizationConfig,
    consumer_cfg: ConsumerConfig,
    exec_cfg: ExecConfig,
    shards: Vec<Shard>,
    /// `island_home[global island] = (shard, local island index)`.
    island_home: Vec<(u32, u32)>,
    prepared: Option<Prepared>,
    pool: Option<ThreadPool>,
    state_pool: Arc<ShardStatePool>,
    health: Arc<HealthBoard>,
    /// The structural accountant of the global layout, filled on first
    /// use; replaced by `prepare` and `apply_update`.
    accountant: AccountantCache,
}

impl Clone for ShardedEngine {
    /// A clone is an independent fleet: it gets its own health board
    /// (copying current statuses) so marking a shard down in one fleet
    /// never fails requests in the other. The state pool and the
    /// accountant cache are shared — they are caches, not fleet state
    /// (a fleet that restructures or re-prepares installs its own).
    fn clone(&self) -> Self {
        ShardedEngine {
            graph: Arc::clone(&self.graph),
            partition: self.partition.clone(),
            locator_stats: self.locator_stats.clone(),
            layout: Arc::clone(&self.layout),
            island_cfg: self.island_cfg,
            consumer_cfg: self.consumer_cfg,
            exec_cfg: self.exec_cfg,
            shards: self.shards.clone(),
            island_home: self.island_home.clone(),
            prepared: self.prepared.clone(),
            pool: self.pool.clone(),
            state_pool: Arc::clone(&self.state_pool),
            health: Arc::new(self.health.duplicate()),
            accountant: self.accountant.clone(),
        }
    }
}

impl ShardedEngine {
    /// Shards a built engine's graph across `num_shards` engines
    /// (clamped to the island count — every shard must own at least one
    /// island). The global islandization is reused, never recomputed;
    /// shard engines are assembled from parts (no locator pass). If the
    /// source engine was [`prepare`]d, the sharded engine (and every
    /// shard engine) comes up prepared too.
    ///
    /// [`prepare`]: Accelerator::prepare
    ///
    /// # Errors
    ///
    /// [`ShardError::InvalidShardCount`] for zero shards,
    /// [`ShardError::ShardUnservable`] when a shard's subgraph cannot
    /// host an engine (lower the shard count), or the underlying
    /// construction failure.
    pub fn from_engine(engine: &IGcnEngine, num_shards: usize) -> Result<Self, ShardError> {
        Self::assemble(
            engine.graph_arc(),
            engine.partition().clone(),
            engine.locator_stats().clone(),
            engine.layout_arc(),
            engine.island_config(),
            engine.consumer_config(),
            engine.exec_config(),
            engine.prepared_model().map(|(m, w)| (m.clone(), w.clone())),
            num_shards,
            None,
        )
    }

    #[allow(clippy::too_many_arguments)]
    fn assemble(
        graph: Arc<CsrGraph>,
        partition: IslandPartition,
        locator_stats: LocatorStats,
        layout: Arc<IslandLayout>,
        island_cfg: IslandizationConfig,
        consumer_cfg: ConsumerConfig,
        exec_cfg: ExecConfig,
        model: Option<(GnnModel, ModelWeights)>,
        num_shards: usize,
        prefer: Option<&[Option<u32>]>,
    ) -> Result<Self, ShardError> {
        if num_shards == 0 {
            return Err(ShardError::InvalidShardCount { requested: num_shards });
        }
        let (shards, island_home, _) =
            build_fleet_for(&layout, island_cfg, consumer_cfg, num_shards, prefer)?;
        let pool = (exec_cfg.num_threads > 1).then(|| ThreadPool::new(exec_cfg.num_threads));
        let num_shards = shards.len();
        let mut engine = ShardedEngine {
            graph,
            partition,
            locator_stats,
            layout,
            island_cfg,
            consumer_cfg,
            exec_cfg,
            shards,
            island_home,
            prepared: None,
            pool,
            state_pool: Arc::new(ShardStatePool::new()),
            health: Arc::new(HealthBoard::new(num_shards)),
            accountant: AccountantCache::default(),
        };
        if let Some((m, w)) = model {
            engine.prepare_internal(&m, &w)?;
        }
        Ok(engine)
    }

    fn prepare_internal(
        &mut self,
        model: &GnnModel,
        weights: &ModelWeights,
    ) -> Result<(), CoreError> {
        validate_weights(model, weights)?;
        let norm = model.normalization(self.layout.graph());
        let shard_norms: Vec<GcnNormalization> =
            self.shards.iter().map(|s| norm.gather(&s.local_to_layout)).collect();
        for shard in &mut self.shards {
            shard.engine.prepare(model, weights)?;
        }
        self.prepared =
            Some(Prepared { model: model.clone(), weights: weights.clone(), norm, shard_norms });
        self.accountant = AccountantCache::default();
        Ok(())
    }

    fn prepared(&self) -> Result<&Prepared, CoreError> {
        self.prepared.as_ref().ok_or_else(|| CoreError::NotPrepared { backend: self.name() })
    }

    /// Number of shards in the fleet.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Pooled per-request state sets currently idle (test hook).
    #[cfg(test)]
    pub(crate) fn pooled_state_sets(&self) -> usize {
        self.state_pool.pooled()
    }

    /// Bytes reserved by the idle pooled state sets (test hook).
    #[cfg(test)]
    pub(crate) fn pooled_state_bytes(&self) -> usize {
        self.state_pool.pooled_bytes()
    }

    /// The shards, in shard-index order.
    pub fn shards(&self) -> &[Shard] {
        &self.shards
    }

    /// The global serving graph (original node IDs).
    pub fn graph_arc(&self) -> Arc<CsrGraph> {
        Arc::clone(&self.graph)
    }

    /// The global islandization partition.
    pub fn partition(&self) -> &IslandPartition {
        &self.partition
    }

    /// The global physical layout the merge plan is derived from.
    pub fn layout(&self) -> &IslandLayout {
        &self.layout
    }

    /// The parallel-execution configuration.
    pub fn exec_config(&self) -> ExecConfig {
        self.exec_cfg
    }

    /// Replaces the parallel-execution configuration (a pure runtime
    /// knob — outputs stay bit-identical at every setting).
    pub fn set_exec_config(&mut self, cfg: ExecConfig) {
        if cfg.num_threads != self.exec_cfg.num_threads {
            self.pool = (cfg.num_threads > 1).then(|| ThreadPool::new(cfg.num_threads));
        }
        self.exec_cfg = cfg;
    }

    /// The current island→shard assignment.
    pub fn assignment(&self) -> ShardAssignment {
        ShardAssignment {
            shards: self.shards.iter().map(|s| s.islands.clone()).collect(),
            island_shard: self.island_home.iter().map(|&(s, _)| s).collect(),
        }
    }

    /// Cut and replication metrics of the current assignment.
    pub fn sharding_report(&self) -> ShardingReport {
        sharding_report(
            self.layout.graph(),
            self.layout.partition(),
            self.layout.schedule(),
            &self.assignment(),
        )
    }

    /// Bytes moved by the halo exchange for one inference of `model`:
    /// per layer, the broadcast hub XW rows (`Σ_s |halo_s| · width`)
    /// plus the collected per-island hub contributions — the honest
    /// communication cost a real fleet would pay on the wire.
    pub fn halo_bytes_per_inference(&self, model: &GnnModel) -> u64 {
        let broadcast_rows: u64 = self.shards.iter().map(|s| s.num_hubs() as u64).sum();
        let collect_rows: u64 = self.shards.iter().map(|s| s.contrib_slots() as u64).sum();
        model.layers().iter().map(|l| (broadcast_rows + collect_rows) * l.out_dim as u64 * 4).sum()
    }

    fn island_workers(&self) -> usize {
        if self.exec_cfg.num_threads > 1 && self.exec_cfg.parallel_islands {
            self.exec_cfg.num_threads
        } else {
            1
        }
    }

    fn shard_pool(&self) -> Option<&ThreadPool> {
        if self.island_workers() > 1 {
            self.pool.as_ref()
        } else {
            None
        }
    }

    fn check_shapes(&self, features: &SparseFeatures, model: &GnnModel) -> Result<(), CoreError> {
        if features.num_rows() != self.graph.num_nodes() {
            return Err(CoreError::ShapeMismatch {
                what: "feature rows vs graph nodes".to_string(),
                expected: self.graph.num_nodes(),
                got: features.num_rows(),
            });
        }
        let in_dim = model.layers().first().map(|l| l.in_dim).unwrap_or(0);
        if features.num_cols() != in_dim {
            return Err(CoreError::ShapeMismatch {
                what: "feature cols vs model input width".to_string(),
                expected: in_dim,
                got: features.num_cols(),
            });
        }
        Ok(())
    }

    /// The canonical statistics of the logical computation — exactly
    /// what a single engine's `run` reports, from the cached accountant
    /// of the global layout, with occupancy modelled over this engine's
    /// configured workers.
    fn stats(&self, features: &SparseFeatures, model: &GnnModel) -> ExecStats {
        self.accountant
            .get(&self.layout, self.consumer_cfg, model, &self.locator_stats)
            .stats(features, self.layout.schedule().occupancy(self.island_workers()))
    }

    /// Runs full-model inference across the fleet, returning output
    /// rows in original node IDs and the canonical execution
    /// statistics. Outputs and statistics are bit-identical to
    /// [`IGcnEngine::run`] on the same graph.
    ///
    /// # Errors
    ///
    /// [`CoreError::ShapeMismatch`] if feature or weight shapes do not
    /// match the graph and model; [`CoreError::BackendFailed`] if a
    /// shard panicked mid-request (contained; see
    /// [`ShardedEngine::heal`]).
    pub fn run(
        &self,
        features: &SparseFeatures,
        model: &GnnModel,
        weights: &ModelWeights,
    ) -> Result<(DenseMatrix, ExecStats), CoreError> {
        self.check_shapes(features, model)?;
        validate_weights(model, weights)?;
        let norm = model.normalization(self.layout.graph());
        let shard_norms: Vec<GcnNormalization> =
            self.shards.iter().map(|s| norm.gather(&s.local_to_layout)).collect();
        let out = self
            .execute(features, model, weights, &norm, &shard_norms, self.shard_pool())
            .map_err(|e| self.failure_to_core(e))?;
        Ok((out, self.stats(features, model)))
    }

    /// Maps an execution-seam failure into the [`Accelerator`]-level
    /// error vocabulary.
    fn failure_to_core(&self, e: ShardError) -> CoreError {
        match e {
            ShardError::ShardFailed { shard, detail } => {
                CoreError::BackendFailed { backend: format!("shard {shard}"), detail }
            }
            // invariant: execute() only fails with ShardFailed; keep
            // the information if that ever changes.
            other => CoreError::BackendFailed { backend: self.name(), detail: other.to_string() },
        }
    }

    /// Per-shard live health, in shard-index order.
    pub fn shard_health(&self) -> Vec<ShardHealth> {
        self.health.snapshot()
    }

    /// Indices of shards currently down, ascending.
    pub fn down_shards(&self) -> Vec<usize> {
        self.health.down_shards()
    }

    /// Rebuilds shard `shard` from the global layout — the same pure
    /// reassembly a fresh fleet construction uses, touching **only**
    /// this shard: healthy shards keep their engines, and the routing
    /// table is unchanged because the island assignment is. The rebuilt
    /// shard is re-prepared with the fleet's model and marked
    /// [`ShardHealth::Up`].
    ///
    /// # Panics
    ///
    /// If `shard` is out of range (caller bug, like slice indexing).
    ///
    /// # Errors
    ///
    /// The construction failures of fleet assembly
    /// ([`ShardError::ShardUnservable`], wrapped core/graph errors). On
    /// error the old shard stays in place and stays down.
    pub fn rebuild_shard(&mut self, shard: usize) -> Result<(), ShardError> {
        assert!(
            shard < self.shards.len(),
            "rebuild_shard({shard}): fleet has {} shards",
            self.shards.len()
        );
        let islands = self.shards[shard].islands.clone();
        let mut rebuilt = build_shard(&self.layout, self.island_cfg, self.consumer_cfg, &islands)
            .map_err(|e| annotate_shard(e, shard))?;
        if let Some(p) = &self.prepared {
            rebuilt.engine.prepare(&p.model, &p.weights)?;
        }
        self.shards[shard] = rebuilt;
        // Pooled state sets may hold buffers sized by the dead shard's
        // torn run; drop them all rather than reason about which are
        // safe.
        self.state_pool.clear();
        self.health.mark_up(shard);
        Ok(())
    }

    /// Rebuilds every [`ShardHealth::Down`] shard
    /// ([`ShardedEngine::rebuild_shard`]) and returns the indices
    /// healed. After a successful heal the fleet serves again and its
    /// outputs are bit-identical to an undamaged fleet — the rebuild
    /// reassembles the exact same shard from the exact same layout.
    ///
    /// # Errors
    ///
    /// As [`ShardedEngine::rebuild_shard`]; shards healed before the
    /// failing one stay healed.
    pub fn heal(&mut self) -> Result<Vec<usize>, ShardError> {
        let down = self.health.down_shards();
        for &shard in &down {
            self.rebuild_shard(shard)?;
        }
        Ok(down)
    }

    /// The per-layer driver: hub XW broadcast → shard-local islands →
    /// global schedule-order merge → hub finalise.
    ///
    /// Shard execution is the fleet's failure domain: each
    /// `run_shard_layer` call runs under `catch_unwind`, so a panicking
    /// shard (a bug, a poisoned buffer, an injected fault) is contained
    /// at this seam — the shard is marked [`ShardHealth::Down`], the
    /// request fails with [`ShardError::ShardFailed`], and subsequent
    /// requests fail fast on the health gate until
    /// [`ShardedEngine::heal`] rebuilds the dead shard. The torn
    /// per-request state set is discarded (never returned to the pool),
    /// so no later request can observe half-written activations.
    fn execute(
        &self,
        features: &SparseFeatures,
        model: &GnnModel,
        weights: &ModelWeights,
        norm: &GcnNormalization,
        shard_norms: &[GcnNormalization],
        pool: Option<&ThreadPool>,
    ) -> Result<DenseMatrix, ShardError> {
        if self.health.any_down() {
            let down = self.health.down_shards();
            // invariant: any_down implies a non-empty down list — both
            // are written under the board lock.
            let shard = down.first().copied().unwrap_or(0);
            return Err(ShardError::ShardFailed {
                shard,
                detail: format!(
                    "shard(s) {down:?} are down from an earlier contained failure; call heal()"
                ),
            });
        }
        let layout = &*self.layout;
        let num_hubs = layout.num_hubs();
        let lp = layout.partition();
        let n = self.graph.num_nodes();
        let sw = norm.self_weight();

        // Pooled state set: only the gathered features carry request
        // data into a layer (everything else is cleared or fully
        // overwritten per layer), so re-gathering them is all a reused
        // set needs.
        let mut set = self
            .state_pool
            .take(self.shards.len())
            .unwrap_or_else(|| FleetRunState::empty(self.shards.len()));
        let FleetRunState { shards: states, hub_feats, hub_acts, merge } = &mut set;
        // Hub input rows for layer 0, in layout hub order.
        features.gather_rows_into(&layout.gather_order()[..num_hubs], hub_feats);
        for (shard, st) in self.shards.iter().zip(states.iter_mut()) {
            features.gather_rows_into(&shard.gather_original, &mut st.gathered);
        }

        // Trace-tree parent for this request (NONE on untraced paths:
        // every tree span below is then single-branch inert).
        let trace_parent = igcn_obs::trace::ambient();
        for (li, layer) in model.layers().iter().enumerate() {
            let w = weights.layer(li);
            let width = w.cols();
            merge.begin_layer(num_hubs, width);

            let mut layer_tree =
                igcn_obs::trace::OpenSpan::child(trace_parent, igcn_obs::stage::LAYER_EXECUTE);
            layer_tree.tag("layer", li);
            layer_tree.tag("waves", layout.schedule().num_waves());
            layer_tree.tag("shards", self.shards.len());
            let layer_ctx = layer_tree.ctx();

            // Stage timing only — the halo_exchange span covers the
            // hub slab build plus the shard fan-out (the work that
            // produces each shard's halo contributions), halo_merge
            // the schedule-order collect and hub finalise. Outputs are
            // identical whether telemetry is enabled or not.
            let exchange_span = igcn_obs::Span::enter(igcn_obs::stage::HALO_EXCHANGE);
            let exchange_tree =
                igcn_obs::trace::OpenSpan::child(layer_ctx, igcn_obs::stage::HALO_EXCHANGE);

            // 1. Hub XW slab from the merged hub activations.
            let hub_input =
                if li == 0 { LayerInput::Sparse(hub_feats) } else { LayerInput::Dense(hub_acts) };
            merge.fill_y(hub_input, w, norm, pool);

            // 2. Shard-local island execution (fanned across the pool
            // when one is configured; shard states are disjoint, so the
            // fan-out cannot change any value).
            {
                let hub_slab: &[f32] = merge.y();
                let first_layer = li == 0;
                let activation = layer.activation;
                // Contained shard failures for this layer: (shard,
                // panic message). AssertUnwindSafe is justified because
                // a panicking shard's state set is discarded wholesale
                // below — torn &mut state never escapes.
                let failures: Mutex<Vec<(usize, String)>> = Mutex::new(Vec::new());
                let mut lanes = vec![(); pool.map_or(1, ThreadPool::threads)];
                let items: Vec<&mut ShardRunState> = states.iter_mut().collect();
                claim_each(pool, &mut lanes, items, |_, i, st| {
                    // Pool threads have no ambient trace; the layer
                    // context crosses by value.
                    let mut shard_span =
                        igcn_obs::trace::OpenSpan::child(layer_ctx, "shard_execute");
                    shard_span.tag("shard", i);
                    let outcome = catch_unwind(AssertUnwindSafe(|| {
                        run_shard_layer(
                            &self.shards[i],
                            st,
                            first_layer,
                            w,
                            &shard_norms[i],
                            activation,
                            hub_slab,
                            width,
                        );
                    }));
                    if let Err(payload) = outcome {
                        shard_span.tag("panicked", true);
                        failures
                            .lock()
                            .unwrap_or_else(|poisoned| poisoned.into_inner())
                            .push((i, panic_message(payload)));
                    }
                });
                let mut failed = failures.into_inner().unwrap_or_else(|p| p.into_inner());
                if !failed.is_empty() {
                    failed.sort_unstable_by_key(|&(i, _)| i);
                    for (i, detail) in &failed {
                        self.health.mark_down(*i, detail);
                        // One count per shard taken down, so recovery
                        // campaigns can reconcile observed Down shards
                        // against contained panics exactly.
                        igcn_obs::counter("shard_contained_panics").inc();
                    }
                    let (shard, detail) = failed.swap_remove(0);
                    // The set is dropped here, not returned to the
                    // pool: a torn state set must never be reused.
                    return Err(ShardError::ShardFailed { shard, detail });
                }
            }

            drop(exchange_span);
            drop(exchange_tree);
            let _merge_span = igcn_obs::Span::enter(igcn_obs::stage::HALO_MERGE);
            let _merge_tree =
                igcn_obs::trace::OpenSpan::child(layer_ctx, igcn_obs::stage::HALO_MERGE);

            // 3. Halo collect: replay every island's hub contributions
            // in global schedule order, then the inter-hub tasks —
            // exactly the single engine's accumulation order.
            for (gi, island) in lp.islands().iter().enumerate() {
                let (s, j) = self.island_home[gi];
                let offsets = &self.shards[s as usize].island_hub_offsets;
                let slots = offsets[j as usize] * width..offsets[j as usize + 1] * width;
                merge.merge_island(&island.hubs, &states[s as usize].contrib[slots], sw);
            }
            merge.inter_hub(layout.inter_hub_tasks(), sw);

            // 4. Finalise hub rows — next layer's halo payload.
            hub_acts.resize_in_place(num_hubs, width);
            merge.finalize_into(norm, layer.activation, hub_acts.as_mut_slice());
            for st in states.iter_mut() {
                std::mem::swap(&mut st.ping, &mut st.pong);
            }
        }

        // Assemble the response in original node IDs.
        let width = hub_acts.cols().max(states.first().map_or(0, |st| st.ping.cols()));
        let mut out = DenseMatrix::zeros(n, width);
        for h in 0..num_hubs {
            let orig = layout.gather_order()[h] as usize;
            out.row_mut(orig).copy_from_slice(hub_acts.row(h));
        }
        for (shard, st) in self.shards.iter().zip(states.iter()) {
            let hs = shard.num_hubs();
            for l in hs..shard.num_nodes() {
                let orig = shard.gather_original[l] as usize;
                out.row_mut(orig).copy_from_slice(st.ping.row(l));
            }
        }
        self.state_pool.put(set);
        Ok(out)
    }

    /// Routes a structural update through the fleet: the global
    /// partition restructures incrementally (disturbed region only),
    /// islands keep their shard wherever the affinity pass allows, and
    /// the shards whose owned node set changed are rebuilt with a fresh
    /// halo. Subsequent inference is bit-identical to a single engine
    /// over the updated graph.
    ///
    /// # Errors
    ///
    /// As [`IGcnEngine::apply_update`] for the structural part;
    /// [`ShardError::ShardUnservable`] if the new structure cannot be
    /// sharded at the current shard count.
    pub fn apply_update(&mut self, update: GraphUpdate) -> Result<ShardUpdateReport, ShardError> {
        // A degraded fleet must heal before restructuring: the affinity
        // pass votes with current ownership, and resharding around a
        // dead shard would silently launder its Down status.
        if self.health.any_down() {
            let down = self.health.down_shards();
            let shard = down.first().copied().unwrap_or(0);
            return Err(ShardError::ShardFailed {
                shard,
                detail: format!("shard(s) {down:?} are down; call heal() before apply_update"),
            });
        }
        // Stage everything; `self` is only mutated at the commit point
        // below, so a failing update (including an unshardable new
        // structure) leaves the fleet exactly as it was.
        let (new_graph, result) =
            apply_update_structural(&self.graph, &self.partition, &self.island_cfg, &update)?;
        let new_graph = Arc::new(new_graph);
        let new_layout =
            Arc::new(IslandLayout::new(&new_graph, &result.partition, self.consumer_cfg.num_pes));

        // Previous ownership by original node ID (hubs are unowned —
        // they are replicated, not placed).
        let k = self.shards.len();
        let mut node_shard: Vec<u32> = vec![u32::MAX; new_graph.num_nodes()];
        for (s, shard) in self.shards.iter().enumerate() {
            let hs = shard.num_hubs();
            for &orig in &shard.gather_original[hs..] {
                node_shard[orig as usize] = s as u32;
            }
        }

        // Affinity: each island prefers the shard that owned the
        // majority of its (surviving) nodes, so undisturbed islands
        // stay put and only the disturbed region migrates.
        let prefer: Vec<Option<u32>> = result
            .partition
            .islands()
            .iter()
            .map(|isl| {
                let mut votes = vec![0usize; k];
                for &v in &isl.nodes {
                    let s = node_shard[v as usize];
                    if s != u32::MAX {
                        votes[s as usize] += 1;
                    }
                }
                // invariant: `k >= 1` (InvalidShardCount is rejected at
                // construction), so the votes vector is never empty.
                let (best, &count) = votes
                    .iter()
                    .enumerate()
                    .max_by_key(|&(i, &c)| (c, std::cmp::Reverse(i)))
                    .expect("at least one shard");
                (count > 0).then_some(best as u32)
            })
            .collect();

        let (mut shards, island_home, assignment) =
            build_fleet_for(&new_layout, self.island_cfg, self.consumer_cfg, k, Some(&prefer))?;
        if let Some(p) = &self.prepared {
            for shard in &mut shards {
                shard.engine.prepare(&p.model, &p.weights)?;
            }
        }
        let moved_islands = prefer
            .iter()
            .zip(&assignment.island_shard)
            .filter(|(p, &s)| matches!(p, Some(ps) if *ps != s))
            .count();

        // Shards whose owned island-node set changed — any node that
        // moved in, moved out, or left the owned set entirely (for
        // example an island node reclassified to hub) marks both its
        // previous and (when owned) new shard.
        let mut new_node_shard: Vec<u32> = vec![u32::MAX; new_graph.num_nodes()];
        for (s, shard) in shards.iter().enumerate() {
            let hs = shard.num_hubs();
            for &orig in &shard.gather_original[hs..] {
                new_node_shard[orig as usize] = s as u32;
            }
        }
        let mut changed = vec![false; k.max(shards.len())];
        for (prev, now) in node_shard.iter().zip(&new_node_shard) {
            if prev != now {
                if *prev != u32::MAX {
                    changed[*prev as usize] = true;
                }
                if *now != u32::MAX {
                    changed[*now as usize] = true;
                }
            }
        }

        // Commit.
        self.graph = new_graph;
        self.partition = result.partition;
        self.locator_stats = result.stats.clone();
        self.layout = new_layout;
        self.shards = shards;
        self.island_home = island_home;
        self.state_pool.clear();
        self.accountant = AccountantCache::default();
        // The fleet may have shrunk (shard count clamps to the island
        // count); size the health board to the committed fleet.
        self.health.reset(self.shards.len());
        if let Some(p) = self.prepared.take() {
            let norm = p.model.normalization(self.layout.graph());
            let shard_norms: Vec<GcnNormalization> =
                self.shards.iter().map(|s| norm.gather(&s.local_to_layout)).collect();
            self.prepared =
                Some(Prepared { model: p.model, weights: p.weights, norm, shard_norms });
        }

        Ok(ShardUpdateReport {
            update: UpdateReport {
                dissolved_islands: result.dissolved_islands,
                reclassified_nodes: result.reclassified_nodes,
                demoted_hubs: result.demoted_hubs,
                num_nodes: self.graph.num_nodes(),
                locator_stats: result.stats,
            },
            resharded: changed.iter().enumerate().filter_map(|(s, &c)| c.then_some(s)).collect(),
            moved_islands,
            shard_structure: self.shard_structure(),
        })
    }

    /// Structural stats per shard, in shard-index order — the same rows
    /// [`apply_update`] reports after a commit.
    ///
    /// [`apply_update`]: ShardedEngine::apply_update
    pub fn shard_structure(&self) -> Vec<ShardStructure> {
        self.shards
            .iter()
            .map(|shard| ShardStructure {
                islands: shard.islands.len(),
                owned_nodes: shard.num_owned_nodes(),
                halo_hubs: shard.num_hubs(),
                contrib_slots: shard.contrib_slots(),
            })
            .collect()
    }

    /// Measured per-shard [`ExecStats`] for `request`, in shard-index
    /// order: each shard's own engine accounts its local subgraph,
    /// **including the replicated halo** — a hub contacted by islands
    /// on `r` shards has its XW row recomputed (or, on a real fleet,
    /// received) `r` times, and each of those recomputes shows up in
    /// the owning shard's combination ops. The rows therefore do *not*
    /// sum to [`Accelerator::report`]'s canonical logical cost: halo
    /// replication adds work, while coordinator-only hub work (hubs no
    /// island contacts, and inter-hub edges whose endpoints are never
    /// co-replicated) lives outside every shard.
    ///
    /// # Errors
    ///
    /// [`CoreError::NotPrepared`] before [`prepare`], or the request
    /// validation failures of [`Accelerator::report`].
    ///
    /// [`prepare`]: Accelerator::prepare
    pub fn shard_reports(&self, request: &InferenceRequest) -> Result<Vec<ExecStats>, CoreError> {
        let prepared = self.prepared()?;
        validate_request(&self.graph, &prepared.model, request)?;
        self.shards
            .iter()
            .map(|shard| {
                let local = request.features.gather_rows(&shard.gather_original);
                shard.engine.account(&local, &prepared.model)
            })
            .collect()
    }

    // -----------------------------------------------------------------
    // Persistence: per-shard snapshots + the fleet manifest
    // -----------------------------------------------------------------

    /// Persists the fleet under `dir`: one standard snapshot per shard
    /// (`<name>.shard<i>.snap` — each independently warm-bootable), the
    /// coordinator image (`<name>.global.snap`) and the checksummed
    /// [`ShardManifest`] (`<name>.igsm`) tying them together. Returns
    /// the manifest path.
    ///
    /// # Errors
    ///
    /// [`StoreError`]-level failures, wrapped.
    pub fn save_manifest(&self, dir: impl AsRef<Path>, name: &str) -> Result<PathBuf, ShardError> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir).map_err(|e| {
            ShardError::Store(StoreError::Io { path: dir.to_path_buf(), detail: e.to_string() })
        })?;

        let coordinator_file = format!("{name}.global.snap");
        let coordinator = Snapshot {
            island_cfg: self.island_cfg,
            consumer_cfg: self.consumer_cfg,
            graph: Arc::clone(&self.graph),
            partition: self.partition.clone(),
            locator_stats: self.locator_stats.clone(),
            layout: Arc::clone(&self.layout),
            model: self.prepared.as_ref().map(|p| (p.model.clone(), p.weights.clone())),
            features: None,
        };
        let (_, coordinator_checksum) =
            coordinator.write_with_checksum(dir.join(&coordinator_file))?;
        let coordinator_entry =
            ManifestEntry { checksum: coordinator_checksum, file: coordinator_file };

        let mut entries = Vec::with_capacity(self.shards.len());
        for (s, shard) in self.shards.iter().enumerate() {
            let file = format!("{name}.shard{s}.snap");
            let (_, checksum) =
                Snapshot::capture(&shard.engine).write_with_checksum(dir.join(&file))?;
            entries.push(ShardEntry {
                snapshot: ManifestEntry { checksum, file },
                islands: shard.islands.clone(),
                hub_global: shard.hub_global.clone(),
                gather_original: shard.gather_original.clone(),
            });
        }

        let manifest = ShardManifest { coordinator: coordinator_entry, shards: entries };
        let path = dir.join(format!("{name}.igsm"));
        manifest.write(&path)?;
        Ok(path)
    }

    /// Fleet cold-start: reads the manifest, verifies every referenced
    /// snapshot's checksum pairing, warm-boots each shard engine (no
    /// locator pass anywhere), reassembles the coordinator plan, and
    /// cross-validates the manifest's routing metadata against both the
    /// coordinator image and the shard images. A stored model comes up
    /// prepared.
    ///
    /// # Errors
    ///
    /// [`ShardError::Store`] for file-level failures (including the
    /// checksum pairing), [`ShardError::ManifestMismatch`] when the
    /// manifest and its snapshots disagree structurally.
    pub fn from_manifest(path: impl AsRef<Path>, exec_cfg: ExecConfig) -> Result<Self, ShardError> {
        let path = path.as_ref();
        let manifest = ShardManifest::read(path)?;
        manifest.verify_files(path)?;
        let coordinator = Snapshot::read(ShardManifest::resolve(path, &manifest.coordinator))?;
        let layout = Arc::clone(&coordinator.layout);
        let lp = layout.partition();
        let num_islands = lp.num_islands();
        let mismatch = |detail: String| ShardError::ManifestMismatch { detail };

        let mut island_home = vec![(u32::MAX, u32::MAX); num_islands];
        let mut shards = Vec::with_capacity(manifest.shards.len());
        for (s, entry) in manifest.shards.iter().enumerate() {
            let snapshot = Snapshot::read(ShardManifest::resolve(path, &entry.snapshot))?;
            let engine = snapshot.warm_engine(ExecConfig::default())?;
            if entry.hub_global.len() != engine.layout().num_hubs() {
                return Err(mismatch(format!(
                    "shard {s}: manifest lists {} halo hubs, snapshot has {}",
                    entry.hub_global.len(),
                    engine.layout().num_hubs()
                )));
            }
            if engine.partition().num_islands() != entry.islands.len() {
                return Err(mismatch(format!(
                    "shard {s}: manifest lists {} islands, snapshot has {}",
                    entry.islands.len(),
                    engine.partition().num_islands()
                )));
            }
            if entry.gather_original.len() != engine.graph().num_nodes() {
                return Err(mismatch(format!(
                    "shard {s}: gather map covers {} nodes, snapshot has {}",
                    entry.gather_original.len(),
                    engine.graph().num_nodes()
                )));
            }
            let mut local_to_layout = entry.hub_global.clone();
            let mut offsets = vec![0usize];
            for (j, &gi) in entry.islands.iter().enumerate() {
                let gisl = lp
                    .islands()
                    .get(gi as usize)
                    .ok_or_else(|| mismatch(format!("shard {s}: island {gi} out of range")))?;
                let lisl = &engine.partition().islands()[j];
                if lisl.nodes.len() != gisl.nodes.len() || lisl.hubs.len() != gisl.hubs.len() {
                    return Err(mismatch(format!(
                        "shard {s}: local island {j} shape disagrees with global island {gi}"
                    )));
                }
                island_home[gi as usize] = (s as u32, j as u32);
                local_to_layout.extend(gisl.nodes.iter().copied());
                // invariant: offsets starts as vec![0], so last() exists.
                offsets.push(offsets.last().expect("offsets seeded with 0") + gisl.hubs.len());
            }
            for (li, &lid) in local_to_layout.iter().enumerate() {
                let expected = layout.gather_order()[lid as usize];
                if entry.gather_original[li] != expected {
                    return Err(mismatch(format!(
                        "shard {s}: gather map entry {li} is {}, coordinator says {expected}",
                        entry.gather_original[li]
                    )));
                }
            }
            shards.push(Shard {
                engine,
                islands: entry.islands.clone(),
                hub_global: entry.hub_global.clone(),
                local_to_layout,
                gather_original: entry.gather_original.clone(),
                island_hub_offsets: offsets,
            });
        }
        if let Some(gi) = island_home.iter().position(|&(s, _)| s == u32::MAX) {
            return Err(mismatch(format!("island {gi} is owned by no shard")));
        }

        let pool = (exec_cfg.num_threads > 1).then(|| ThreadPool::new(exec_cfg.num_threads));
        let num_shards = shards.len();
        let mut engine = ShardedEngine {
            graph: Arc::clone(&coordinator.graph),
            partition: coordinator.partition.clone(),
            locator_stats: coordinator.locator_stats.clone(),
            layout,
            island_cfg: coordinator.island_cfg,
            consumer_cfg: coordinator.consumer_cfg,
            exec_cfg,
            shards,
            island_home,
            prepared: None,
            pool,
            state_pool: Arc::new(ShardStatePool::new()),
            health: Arc::new(HealthBoard::new(num_shards)),
            accountant: AccountantCache::default(),
        };
        if let Some((model, weights)) = &coordinator.model {
            engine.prepare_internal(model, weights)?;
        }
        Ok(engine)
    }
}

impl Accelerator for ShardedEngine {
    fn name(&self) -> String {
        format!("I-GCN-sharded[{}]", self.shards.len())
    }

    fn graph(&self) -> &CsrGraph {
        &self.graph
    }

    fn prepare(&mut self, model: &GnnModel, weights: &ModelWeights) -> Result<(), CoreError> {
        self.prepare_internal(model, weights)
    }

    fn infer(&self, request: &InferenceRequest) -> Result<InferenceResponse, CoreError> {
        let prepared = self.prepared()?;
        validate_request(&self.graph, &prepared.model, request)?;
        let _trace = igcn_obs::trace::with_ambient(request.trace);
        let output = self
            .execute(
                &request.features,
                &prepared.model,
                &prepared.weights,
                &prepared.norm,
                &prepared.shard_norms,
                self.shard_pool(),
            )
            .map_err(|e| self.failure_to_core(e))?;
        let stats = self.stats(&request.features, &prepared.model);
        Ok(InferenceResponse {
            id: request.id,
            output,
            report: ExecReport::from_stats(self.name(), &stats),
        })
    }

    fn infer_batch(
        &self,
        requests: &[InferenceRequest],
    ) -> Result<Vec<InferenceResponse>, CoreError> {
        if requests.is_empty() {
            return Ok(Vec::new());
        }
        let prepared = self.prepared()?;
        for request in requests {
            validate_request(&self.graph, &prepared.model, request)?;
        }
        let respond = |request: &InferenceRequest,
                       pool: Option<&ThreadPool>|
         -> Result<InferenceResponse, CoreError> {
            // Runs on pool threads under the batch fan-out: install the
            // request's own trace context there too.
            let _trace = igcn_obs::trace::with_ambient(request.trace);
            let output = self
                .execute(
                    &request.features,
                    &prepared.model,
                    &prepared.weights,
                    &prepared.norm,
                    &prepared.shard_norms,
                    pool,
                )
                .map_err(|e| self.failure_to_core(e))?;
            let stats = self.stats(&request.features, &prepared.model);
            Ok(InferenceResponse {
                id: request.id,
                output,
                report: ExecReport::from_stats(self.name(), &stats),
            })
        };
        if self.exec_cfg.num_threads > 1 && self.exec_cfg.parallel_batch && requests.len() > 1 {
            if let Some(pool) = &self.pool {
                // Fan requests across the pool; each request runs its
                // shards sequentially (no nested fan-out) — exactly the
                // computation a lone sequential infer performs, so
                // batched outputs are bit-identical at any thread
                // count.
                return pool
                    .par_map(requests, |_, request| respond(request, None))
                    .into_iter()
                    .collect();
            }
        }
        requests.iter().map(|request| respond(request, self.shard_pool())).collect()
    }

    fn report(&self, request: &InferenceRequest) -> Result<ExecReport, CoreError> {
        let prepared = self.prepared()?;
        validate_request(&self.graph, &prepared.model, request)?;
        let stats = self.stats(&request.features, &prepared.model);
        Ok(ExecReport::from_stats(self.name(), &stats))
    }

    fn health(&self) -> BackendHealth {
        let down = self.health.down_shards();
        if down.is_empty() {
            BackendHealth::Ready
        } else {
            BackendHealth::Degraded {
                detail: format!(
                    "{}/{} shards down ({down:?}); call heal() to rebuild",
                    down.len(),
                    self.shards.len()
                ),
            }
        }
    }

    fn component_health(&self) -> Vec<(String, BackendHealth)> {
        self.health
            .snapshot()
            .into_iter()
            .enumerate()
            .map(|(i, status)| {
                let health = match status {
                    ShardHealth::Up => BackendHealth::Ready,
                    ShardHealth::Down { detail } => BackendHealth::Degraded { detail },
                };
                (format!("shard{i}"), health)
            })
            .collect()
    }
}

/// One shard's half of a layer: receive the halo (hub XW rows), run the
/// local islands, leave activated island rows in `pong` and exported
/// hub contributions in `contrib`.
#[allow(clippy::too_many_arguments)]
fn run_shard_layer(
    shard: &Shard,
    st: &mut ShardRunState,
    first_layer: bool,
    weights: &DenseMatrix,
    norm: &GcnNormalization,
    activation: igcn_gnn::Activation,
    global_hub_y: &[f32],
    width: usize,
) {
    // Chaos seam: `panic`-action injections here simulate a shard
    // dying mid-layer; the fan-out above contains the unwind.
    igcn_fail::fail_point!("shard::run_layer");
    let hs = shard.num_hubs();
    let n_local = shard.num_nodes();
    // Halo broadcast: this shard's replicated hub XW rows.
    st.hub_y.clear();
    st.hub_y.resize(hs * width, 0.0);
    for (li, &g) in shard.hub_global.iter().enumerate() {
        st.hub_y[li * width..][..width]
            .copy_from_slice(&global_hub_y[g as usize * width..][..width]);
    }
    st.pong.resize_in_place(n_local, width);
    st.contrib.clear();
    st.contrib.resize(shard.contrib_slots() * width, 0.0);

    let ShardRunState { gathered, ping, pong, contrib, hub_y, arena } = st;
    let input = if first_layer { LayerInput::Sparse(gathered) } else { LayerInput::Dense(ping) };
    let node_out = &mut pong.as_mut_slice()[hs * width..];
    // The fleet's local layer compute is this call, not
    // `IGcnEngine::execute` — record the same stage the single-engine
    // path does so `layer_execute` covers both serving shapes.
    let _layer_span = igcn_obs::Span::enter(igcn_obs::stage::LAYER_EXECUTE);
    execute_islands(
        shard.engine.layout(),
        &shard.engine.scan_plan(norm),
        input,
        weights,
        norm,
        activation,
        hub_y,
        0..shard.islands.len(),
        arena,
        node_out,
        contrib,
    );
}

/// A staged fleet: the shards, the `island_home` routing table, and the
/// assignment that produced them.
type StagedFleet = (Vec<Shard>, Vec<(u32, u32)>, ShardAssignment);

/// Assigns islands and builds the whole shard fleet over `layout` —
/// pure with respect to any existing engine, so callers can stage a
/// rebuild and commit only on success. `num_shards` is clamped to the
/// island count; a zero-island layout is unservable.
fn build_fleet_for(
    layout: &Arc<IslandLayout>,
    island_cfg: IslandizationConfig,
    consumer_cfg: ConsumerConfig,
    num_shards: usize,
    prefer: Option<&[Option<u32>]>,
) -> Result<StagedFleet, ShardError> {
    let num_islands = layout.partition().num_islands();
    if num_islands == 0 {
        return Err(ShardError::ShardUnservable {
            shard: 0,
            detail: "graph islandized to zero islands (all hubs)".to_string(),
        });
    }
    let k = num_shards.min(num_islands);
    let assignment = assign_islands(layout.partition(), layout.schedule(), k, prefer);
    let mut shards = Vec::with_capacity(k);
    for (s, islands) in assignment.shards.iter().enumerate() {
        shards.push(
            build_shard(layout, island_cfg, consumer_cfg, islands)
                .map_err(|e| annotate_shard(e, s))?,
        );
    }
    let mut island_home = vec![(u32::MAX, u32::MAX); num_islands];
    for (s, shard) in shards.iter().enumerate() {
        for (j, &gi) in shard.islands.iter().enumerate() {
            island_home[gi as usize] = (s as u32, j as u32);
        }
    }
    Ok((shards, island_home, assignment))
}

/// Builds one shard's subgraph, partition, layout and engine from the
/// global layout — no locator pass, only validated reassembly.
fn build_shard(
    layout: &IslandLayout,
    island_cfg: IslandizationConfig,
    consumer_cfg: ConsumerConfig,
    islands_idx: &[u32],
) -> Result<Shard, ShardError> {
    let lp = layout.partition();
    let num_hubs_global = layout.num_hubs();

    // The halo: hubs contacted by any owned island, ascending global
    // hub ID (which preserves detection order, so local neighbor-sort
    // order is isomorphic to the global one — the bit-identity lever).
    let mut hub_seen = vec![false; num_hubs_global];
    for &gi in islands_idx {
        for &h in &lp.islands()[gi as usize].hubs {
            hub_seen[h as usize] = true;
        }
    }
    let hub_global: Vec<u32> =
        (0..num_hubs_global as u32).filter(|&h| hub_seen[h as usize]).collect();
    let hs = hub_global.len();

    let mut layout_to_local = vec![u32::MAX; layout.graph().num_nodes()];
    for (li, &h) in hub_global.iter().enumerate() {
        layout_to_local[h as usize] = li as u32;
    }
    let mut local_to_layout = hub_global.clone();
    let mut islands_local: Vec<Island> = Vec::with_capacity(islands_idx.len());
    let mut offsets = vec![0usize];
    for &gi in islands_idx {
        let gisl = &lp.islands()[gi as usize];
        let mut nodes_local = Vec::with_capacity(gisl.nodes.len());
        for &v in &gisl.nodes {
            layout_to_local[v as usize] = local_to_layout.len() as u32;
            nodes_local.push(local_to_layout.len() as u32);
            local_to_layout.push(v);
        }
        let hubs_local: Vec<u32> = gisl.hubs.iter().map(|&h| layout_to_local[h as usize]).collect();
        // invariant: offsets starts as vec![0], so last() exists.
        offsets.push(offsets.last().expect("offsets seeded with 0") + hubs_local.len());
        islands_local.push(Island {
            nodes: nodes_local,
            hubs: hubs_local,
            round: gisl.round,
            engine: gisl.engine,
        });
    }
    let n_local = local_to_layout.len();

    // Subgraph edges: every owned island node's full adjacency (island
    // closure keeps it local), hub rows mirrored, plus the inter-hub
    // edges both of whose endpoints are replicated here.
    let mut edges: Vec<(u32, u32)> = Vec::new();
    for &gi in islands_idx {
        for &v in &lp.islands()[gi as usize].nodes {
            let lv = layout_to_local[v as usize];
            for &nb in layout.graph().neighbors(NodeId::new(v)) {
                let lnb = layout_to_local[nb as usize];
                debug_assert_ne!(lnb, u32::MAX, "island closure guarantees local neighbors");
                edges.push((lv, lnb));
                if (nb as usize) < num_hubs_global {
                    edges.push((lnb, lv));
                }
            }
        }
    }
    let mut inter_hub_local: Vec<(u32, u32)> = Vec::new();
    for &(a, b) in lp.inter_hub_edges() {
        let (la, lb) = (layout_to_local[a as usize], layout_to_local[b as usize]);
        if la != u32::MAX && lb != u32::MAX {
            edges.push((la, lb));
            edges.push((lb, la));
            inter_hub_local.push((la.min(lb), la.max(lb)));
        }
    }
    inter_hub_local.sort_unstable();
    let local_graph = CsrGraph::from_directed_edges(n_local, &edges)?;

    let mut node_class = vec![NodeClass::Unclassified; n_local];
    for c in node_class.iter_mut().take(hs) {
        *c = NodeClass::Hub;
    }
    for (j, isl) in islands_local.iter().enumerate() {
        for &v in &isl.nodes {
            node_class[v as usize] = NodeClass::Island(j as u32);
        }
    }
    let local_partition = IslandPartition::from_raw_parts(
        n_local,
        islands_local,
        (0..hs as u32).collect(),
        inter_hub_local,
        node_class,
        lp.c_max(),
    )?;
    // Local IDs are already in schedule order (hubs first, islands back
    // to back), so the composed local layout's permutation is the
    // identity and its bitmaps/member order mirror the global ones.
    let local_layout = IslandLayout::new(&local_graph, &local_partition, consumer_cfg.num_pes);
    let engine = IGcnEngine::builder(local_graph)
        .island_config(island_cfg)
        .consumer_config(consumer_cfg)
        .build_from_parts(EngineParts {
            partition: local_partition,
            locator_stats: LocatorStats::default(),
            layout: Arc::new(local_layout),
        })?;

    let gather_original: Vec<u32> =
        local_to_layout.iter().map(|&lid| layout.gather_order()[lid as usize]).collect();
    Ok(Shard {
        engine,
        islands: islands_idx.to_vec(),
        hub_global,
        local_to_layout,
        gather_original,
        island_hub_offsets: offsets,
    })
}

fn annotate_shard(e: ShardError, shard: usize) -> ShardError {
    match e {
        ShardError::Core(CoreError::EmptyGraph { num_nodes, num_edges }) => {
            ShardError::ShardUnservable {
                shard,
                detail: format!(
                    "subgraph has {num_nodes} nodes and {num_edges} edges — lower the shard count"
                ),
            }
        }
        other => other,
    }
}
