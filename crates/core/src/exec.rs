//! End-to-end islandized GNN inference: the owned, serving-ready
//! I-GCN engine.

use std::sync::{Arc, Mutex};

use igcn_gnn::{GnnModel, ModelWeights};
use igcn_graph::{CsrGraph, NodeId, SparseFeatures};
use igcn_linalg::{DenseMatrix, GcnNormalization};
use threadpool::ThreadPool;

use crate::accel::{
    validate_request, validate_weights, Accelerator, ExecReport, GraphUpdate, InferenceRequest,
    InferenceResponse, UpdateReport,
};
use crate::config::{ConsumerConfig, ExecConfig, IslandizationConfig};
use crate::consumer::account::{Accountant, AccountantCache};
use crate::consumer::executor::{run_layer, LayerScratch};
use crate::consumer::plan::{ScanPlan, ScanPlanCache};
use crate::consumer::LayerInput;
use crate::error::CoreError;
use crate::incremental::apply_update_structural;
use crate::layout::IslandLayout;
use crate::locator::IslandLocator;
use crate::partition::IslandPartition;
use crate::stats::ExecStats;

/// Per-request execution scratch: the layer arena plus the
/// schedule-order feature buffer and the ping-pong layer activations.
/// Pooled by the engine so repeated `infer` calls reuse steady-state
/// buffers instead of reallocating per layer.
struct ExecScratch {
    layer: LayerScratch,
    features: SparseFeatures,
    ping: DenseMatrix,
    pong: DenseMatrix,
}

impl Default for ExecScratch {
    fn default() -> Self {
        ExecScratch {
            layer: LayerScratch::new(),
            features: SparseFeatures::from_rows(0, 0, Vec::new()),
            ping: DenseMatrix::zeros(0, 0),
            pong: DenseMatrix::zeros(0, 0),
        }
    }
}

/// A small lock-guarded pool of [`ExecScratch`] arenas shared by all
/// clones of one engine; concurrent requests each take a private arena
/// and return it when done.
struct ScratchPool {
    inner: Arc<Mutex<Vec<ExecScratch>>>,
}

/// At most this many warm arenas are retained; beyond it (transient
/// concurrency spikes) arenas are simply dropped.
const SCRATCH_POOL_CAP: usize = 16;

impl ScratchPool {
    fn new() -> Self {
        ScratchPool { inner: Arc::new(Mutex::new(Vec::new())) }
    }

    fn take(&self) -> ExecScratch {
        self.inner.lock().expect("scratch pool lock").pop().unwrap_or_default()
    }

    fn put(&self, scratch: ExecScratch) {
        let mut pool = self.inner.lock().expect("scratch pool lock");
        if pool.len() < SCRATCH_POOL_CAP {
            pool.push(scratch);
        }
    }
}

impl Clone for ScratchPool {
    fn clone(&self) -> Self {
        ScratchPool { inner: Arc::clone(&self.inner) }
    }
}

impl std::fmt::Debug for ScratchPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let pooled = self.inner.lock().map(|p| p.len()).unwrap_or(0);
        f.debug_struct("ScratchPool").field("pooled", &pooled).finish()
    }
}

/// The I-GCN engine: islandizes a graph once, then executes GNN layers
/// at island granularity with shared-neighbor redundancy removal.
///
/// The engine *owns* its graph (behind an `Arc`, so construction from a
/// shared graph is free) and is `Send + Sync`: prepare it once, wrap it
/// in an `Arc`, and serve [`Accelerator::infer`] /
/// [`Accelerator::infer_batch`] calls from any number of threads.
/// Islandization runs once at build time — the structure is independent
/// of the layer — and is reused by every layer of every request, exactly
/// as the hardware overlaps the Island Locator with the first layer's
/// Island Consumer and replays the stored islands afterwards. Evolving
/// graphs stay inside the same engine through
/// [`IGcnEngine::apply_update`].
///
/// # Example
///
/// ```
/// use igcn_core::accel::{Accelerator, InferenceRequest};
/// use igcn_core::IGcnEngine;
/// use igcn_gnn::{GnnModel, ModelWeights};
/// use igcn_graph::generate::HubIslandConfig;
/// use igcn_graph::SparseFeatures;
///
/// let g = HubIslandConfig::new(200, 8).noise_fraction(0.0).generate(4);
/// let mut engine = IGcnEngine::builder(g.graph).build()?;
///
/// let model = GnnModel::gcn(16, 8, 3);
/// let weights = ModelWeights::glorot(&model, 2);
/// engine.prepare(&model, &weights)?;
///
/// let request = InferenceRequest::new(SparseFeatures::random(200, 16, 0.3, 1));
/// let response = engine.infer(&request)?;
/// assert_eq!(response.output.rows(), 200);
/// assert!(response.report.aggregation_pruning_rate >= 0.0);
/// # Ok::<(), igcn_core::CoreError>(())
/// ```
#[derive(Debug, Clone)]
pub struct IGcnEngine {
    graph: Arc<CsrGraph>,
    island_cfg: IslandizationConfig,
    consumer_cfg: ConsumerConfig,
    exec_cfg: ExecConfig,
    partition: IslandPartition,
    locator_stats: crate::stats::LocatorStats,
    prepared: Option<(GnnModel, ModelWeights)>,
    /// The schedule-ordered physical layout (rebuilt by `apply_update`).
    layout: Arc<IslandLayout>,
    /// Persistent worker pool (present when `num_threads > 1`); clones
    /// of the engine share the same workers.
    pool: Option<ThreadPool>,
    /// Warm per-request scratch arenas, shared across clones.
    scratch: ScratchPool,
    /// The structural accountant of the current layout, filled on first
    /// use; replaced by `prepare` and `apply_update`.
    accountant: AccountantCache,
    /// The window-scan plan of the current layout, filled on first use;
    /// replaced by `prepare` and `apply_update`.
    scan_plans: ScanPlanCache,
}

/// Configures and builds an [`IGcnEngine`]; created by
/// [`IGcnEngine::builder`].
#[derive(Debug, Clone)]
pub struct IGcnEngineBuilder {
    graph: Arc<CsrGraph>,
    island_cfg: IslandizationConfig,
    consumer_cfg: ConsumerConfig,
    exec_cfg: ExecConfig,
}

impl IGcnEngineBuilder {
    /// Overrides the Island Locator configuration.
    pub fn island_config(mut self, cfg: IslandizationConfig) -> Self {
        self.island_cfg = cfg;
        self
    }

    /// Overrides the Island Consumer configuration.
    pub fn consumer_config(mut self, cfg: ConsumerConfig) -> Self {
        self.consumer_cfg = cfg;
        self
    }

    /// Overrides the parallel-execution configuration (thread count and
    /// fan-out dimensions). The default is fully sequential.
    pub fn exec_config(mut self, cfg: ExecConfig) -> Self {
        self.exec_cfg = cfg;
        self
    }

    /// Islandizes the graph and builds the engine.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::EmptyGraph`] if the graph has no nodes or no
    /// edges (there is nothing to islandize or aggregate),
    /// [`CoreError::SelfLoops`] if the graph has self-loops (the GCN
    /// self contribution is handled by the normalisation; strip loops
    /// first), or [`CoreError::RoundLimitExceeded`] if the locator fails
    /// to converge.
    pub fn build(self) -> Result<IGcnEngine, CoreError> {
        check_not_empty(&self.graph)?;
        check_loop_free(&self.graph)?;
        let (partition, locator_stats) = IslandLocator::new(&self.graph, &self.island_cfg).run()?;
        let layout =
            Arc::new(IslandLayout::new(&self.graph, &partition, self.consumer_cfg.num_pes));
        let pool =
            (self.exec_cfg.num_threads > 1).then(|| ThreadPool::new(self.exec_cfg.num_threads));
        Ok(IGcnEngine {
            graph: self.graph,
            island_cfg: self.island_cfg,
            consumer_cfg: self.consumer_cfg,
            exec_cfg: self.exec_cfg,
            partition,
            locator_stats,
            prepared: None,
            layout,
            pool,
            scratch: ScratchPool::new(),
            accountant: AccountantCache::default(),
            scan_plans: ScanPlanCache::default(),
        })
    }
}

/// Pre-composed islandization state for a warm engine boot: everything
/// [`IGcnEngineBuilder::build`] normally derives from the graph, loaded
/// instead from a snapshot (see `igcn-store`).
#[derive(Debug, Clone)]
pub struct EngineParts {
    /// The islandization partition over *original* node IDs.
    pub partition: IslandPartition,
    /// The locator statistics recorded when the partition was built.
    pub locator_stats: crate::stats::LocatorStats,
    /// The composed physical layout.
    pub layout: Arc<IslandLayout>,
}

impl IGcnEngineBuilder {
    /// Builds the engine from pre-composed islandization parts — the
    /// **warm-start** path: the Island Locator pass and the layout
    /// composition are both skipped, and only cheap structural checks
    /// run (the parts must belong to this builder's graph).
    ///
    /// Snapshot loading (`igcn::store::from_snapshot`) is the intended
    /// caller; the parts it supplies were validated structurally at
    /// decode time by `IslandLayout::from_raw_parts` and
    /// `IslandPartition::from_raw_parts`.
    ///
    /// # Errors
    ///
    /// [`CoreError::EmptyGraph`] / [`CoreError::SelfLoops`] as
    /// [`IGcnEngineBuilder::build`], plus [`CoreError::ShapeMismatch`]
    /// if the parts do not match the graph (node or edge counts).
    pub fn build_from_parts(self, parts: EngineParts) -> Result<IGcnEngine, CoreError> {
        check_not_empty(&self.graph)?;
        check_loop_free(&self.graph)?;
        let n = self.graph.num_nodes();
        if parts.partition.num_nodes() != n {
            return Err(CoreError::ShapeMismatch {
                what: "warm-start partition vs graph nodes".to_string(),
                expected: n,
                got: parts.partition.num_nodes(),
            });
        }
        if parts.layout.graph().num_nodes() != n {
            return Err(CoreError::ShapeMismatch {
                what: "warm-start layout vs graph nodes".to_string(),
                expected: n,
                got: parts.layout.graph().num_nodes(),
            });
        }
        if parts.layout.graph().num_directed_edges() != self.graph.num_directed_edges() {
            return Err(CoreError::ShapeMismatch {
                what: "warm-start layout vs graph edges".to_string(),
                expected: self.graph.num_directed_edges(),
                got: parts.layout.graph().num_directed_edges(),
            });
        }
        if parts.layout.partition().num_islands() != parts.partition.num_islands() {
            return Err(CoreError::ShapeMismatch {
                what: "warm-start layout islands vs partition islands".to_string(),
                expected: parts.partition.num_islands(),
                got: parts.layout.partition().num_islands(),
            });
        }
        let pool =
            (self.exec_cfg.num_threads > 1).then(|| ThreadPool::new(self.exec_cfg.num_threads));
        Ok(IGcnEngine {
            graph: self.graph,
            island_cfg: self.island_cfg,
            consumer_cfg: self.consumer_cfg,
            exec_cfg: self.exec_cfg,
            partition: parts.partition,
            locator_stats: parts.locator_stats,
            prepared: None,
            layout: parts.layout,
            pool,
            scratch: ScratchPool::new(),
            accountant: AccountantCache::default(),
            scan_plans: ScanPlanCache::default(),
        })
    }
}

impl IGcnEngine {
    /// Starts building an engine over `graph`.
    ///
    /// Accepts either a `CsrGraph` by value or an existing
    /// `Arc<CsrGraph>` (no copy in either case).
    pub fn builder(graph: impl Into<Arc<CsrGraph>>) -> IGcnEngineBuilder {
        IGcnEngineBuilder {
            graph: graph.into(),
            island_cfg: IslandizationConfig::default(),
            consumer_cfg: ConsumerConfig::default(),
            exec_cfg: ExecConfig::default(),
        }
    }

    /// The graph this engine serves (also available through
    /// [`Accelerator::graph`]).
    pub fn graph_arc(&self) -> Arc<CsrGraph> {
        Arc::clone(&self.graph)
    }

    /// The partition produced by the Island Locator.
    pub fn partition(&self) -> &IslandPartition {
        &self.partition
    }

    /// The Island Locator statistics of the most recent (re)structuring
    /// — the initial build, or the incremental rounds of the last
    /// [`IGcnEngine::apply_update`].
    pub fn locator_stats(&self) -> &crate::stats::LocatorStats {
        &self.locator_stats
    }

    /// The Island Locator configuration.
    pub fn island_config(&self) -> IslandizationConfig {
        self.island_cfg
    }

    /// The Island Consumer configuration.
    pub fn consumer_config(&self) -> ConsumerConfig {
        self.consumer_cfg
    }

    /// The parallel-execution configuration.
    pub fn exec_config(&self) -> ExecConfig {
        self.exec_cfg
    }

    /// Replaces the parallel-execution configuration in place.
    ///
    /// Unlike the island/consumer configurations, the thread count is a
    /// pure runtime knob — it never changes outputs (bit-identical at
    /// every setting) or the partition, so it can be retuned on a built
    /// engine without re-islandizing. Changing the thread count
    /// replaces the persistent worker pool.
    pub fn set_exec_config(&mut self, cfg: ExecConfig) {
        if cfg.num_threads != self.exec_cfg.num_threads {
            self.pool = (cfg.num_threads > 1).then(|| ThreadPool::new(cfg.num_threads));
        }
        self.exec_cfg = cfg;
    }

    /// The physical data layout the engine executes over (schedule-order
    /// permutation, permuted graph/partition, prebuilt bitmaps).
    pub fn layout(&self) -> &IslandLayout {
        &self.layout
    }

    /// The window-scan plan of the current layout for a model with
    /// normalisation `norm` — built on first use and cached until
    /// [`Accelerator::prepare`] or [`IGcnEngine::apply_update`].
    pub fn scan_plan(&self, norm: &GcnNormalization) -> Arc<ScanPlan> {
        self.scan_plans.get(&self.layout, self.consumer_cfg, norm)
    }

    /// The layout behind its shared handle (free to clone; used by the
    /// snapshot store to capture an engine image without copying).
    pub fn layout_arc(&self) -> Arc<IslandLayout> {
        Arc::clone(&self.layout)
    }

    /// The model and weights installed by [`Accelerator::prepare`], if
    /// any (used by the snapshot store to persist a complete engine
    /// image).
    pub fn prepared_model(&self) -> Option<(&GnnModel, &ModelWeights)> {
        self.prepared.as_ref().map(|(m, w)| (m, w))
    }

    /// Worker count the island schedule is fanned across inside one
    /// inference (1 when island-level parallelism is off).
    fn island_workers(&self) -> usize {
        if self.exec_cfg.num_threads > 1 && self.exec_cfg.parallel_islands {
            self.exec_cfg.num_threads
        } else {
            1
        }
    }

    /// The persistent pool used for island fan-out inside one inference
    /// (`None` = sequential layers).
    fn island_pool(&self) -> Option<&ThreadPool> {
        if self.island_workers() > 1 {
            self.pool.as_ref()
        } else {
            None
        }
    }

    /// Applies a batch of structural changes to the serving graph,
    /// incrementally re-islandizing only the disturbed neighborhood.
    ///
    /// Added edges dissolve the islands they touch (hubs never dissolve
    /// on additions — their degree only grew). Removed edges dissolve
    /// the islands of their endpoints; a hub endpoint whose loop-free
    /// degree falls below the configured hub floor is *demoted* back
    /// into the unclassified pool along with every island it contacts,
    /// and the locator rounds re-run over the disturbed region.
    /// Subsequent inference runs on the updated graph.
    ///
    /// # Errors
    ///
    /// [`CoreError::ShapeMismatch`] if the update shrinks the graph or
    /// references nodes beyond its (new) size;
    /// [`CoreError::SelfLoops`] if an added edge is a self-loop;
    /// [`CoreError::MissingEdge`] if a removed edge is not present;
    /// [`CoreError::RoundLimitExceeded`] if the incremental rounds fail
    /// to converge.
    pub fn apply_update(&mut self, update: GraphUpdate) -> Result<UpdateReport, CoreError> {
        let mut reports = self.apply_updates_batched(std::slice::from_ref(&update))?;
        Ok(reports.pop().expect("one update yields one report"))
    }

    /// Applies a whole batch of [`GraphUpdate`]s, recomposing the
    /// physical layout **once** at the end instead of once per update —
    /// the boot-time replay path of `igcn-store`'s write-ahead log,
    /// where a long log would otherwise pay the O(n + m) layout
    /// composition per record.
    ///
    /// The observable result (graph, partition, locator statistics,
    /// layout, and the returned [`UpdateReport`]s) is identical to
    /// calling [`IGcnEngine::apply_update`] once per update in order.
    /// On error the engine is left exactly as before the call — no
    /// prefix of the batch is applied.
    ///
    /// # Errors
    ///
    /// As [`IGcnEngine::apply_update`], for the first failing update.
    pub fn apply_updates_batched(
        &mut self,
        updates: &[GraphUpdate],
    ) -> Result<Vec<UpdateReport>, CoreError> {
        if updates.is_empty() {
            return Ok(Vec::new());
        }
        let mut graph = Arc::clone(&self.graph);
        let mut partition = self.partition.clone();
        let mut stats = self.locator_stats.clone();
        let mut reports = Vec::with_capacity(updates.len());
        for update in updates {
            let (new_graph, result) =
                apply_update_structural(&graph, &partition, &self.island_cfg, update)?;
            graph = Arc::new(new_graph);
            partition = result.partition;
            stats = result.stats.clone();
            reports.push(UpdateReport {
                dissolved_islands: result.dissolved_islands,
                reclassified_nodes: result.reclassified_nodes,
                demoted_hubs: result.demoted_hubs,
                num_nodes: graph.num_nodes(),
                locator_stats: result.stats,
            });
        }
        // Commit: one layout recomposition for the whole batch.
        self.layout = Arc::new(IslandLayout::new(&graph, &partition, self.consumer_cfg.num_pes));
        self.graph = graph;
        self.partition = partition;
        self.locator_stats = stats;
        self.accountant = AccountantCache::default();
        self.scan_plans = ScanPlanCache::default();
        Ok(reports)
    }

    fn check_features(&self, features: &SparseFeatures, model: &GnnModel) -> Result<(), CoreError> {
        check_features_for(&self.graph, features, model)
    }

    /// Computes the Ã normalisation `infer`/`infer_batch` amortise
    /// across a batch. It is computed over the layout-permuted graph
    /// the hot path executes on; degrees are preserved by the layout
    /// permutation, so the scales equal the original-order ones
    /// bitwise.
    fn normalization(&self, model: &GnnModel) -> GcnNormalization {
        model.normalization(self.layout.graph())
    }

    /// The execution path: gather features into schedule order, run
    /// every layer through the island executor with pooled scratch
    /// arenas (ping-pong activations), scatter the final rows back to
    /// original node IDs. `pool` carries the island fan-out (`None` =
    /// sequential layers, the path batch-parallel requests use to avoid
    /// nested pools).
    fn execute_layout(
        &self,
        norm: &GcnNormalization,
        features: &SparseFeatures,
        model: &GnnModel,
        weights: &ModelWeights,
        pool: Option<&ThreadPool>,
    ) -> DenseMatrix {
        assert!(!model.layers().is_empty(), "models have at least one layer");
        let layout = &*self.layout;
        let n = self.graph.num_nodes();
        let plan = self.scan_plan(norm);
        let mut scratch = self.scratch.take();
        let ExecScratch { layer: layer_scratch, features: gathered, ping, pong } = &mut scratch;
        features.gather_rows_into(layout.gather_order(), gathered);
        let mut src: &mut DenseMatrix = ping;
        let mut dst: &mut DenseMatrix = pong;
        // Trace-tree parent for this request (NONE on untraced paths:
        // the per-layer tree spans below are then single-branch inert).
        let trace_parent = igcn_obs::trace::ambient();
        for (i, layer) in model.layers().iter().enumerate() {
            let w = weights.layer(i);
            dst.resize_in_place(n, w.cols());
            let input =
                if i == 0 { LayerInput::Sparse(gathered) } else { LayerInput::Dense(&*src) };
            // Stage timing only — outputs are identical whether
            // telemetry is enabled or not.
            let _layer_span = igcn_obs::Span::enter(igcn_obs::stage::LAYER_EXECUTE);
            let mut layer_tree_span =
                igcn_obs::trace::OpenSpan::child(trace_parent, igcn_obs::stage::LAYER_EXECUTE);
            layer_tree_span.tag("layer", i);
            layer_tree_span.tag("waves", layout.schedule().num_waves());
            run_layer(
                layout,
                &plan,
                input,
                w,
                norm,
                layer.activation,
                pool,
                layer_scratch,
                dst.as_mut_slice(),
            );
            std::mem::swap(&mut src, &mut dst);
        }

        // Scatter the final layer's rows back to original node IDs —
        // requests and responses always speak original IDs.
        let mut out = DenseMatrix::zeros(n, src.cols());
        for (old, &new) in layout.forward().iter().enumerate() {
            out.row_mut(old).copy_from_slice(src.row(new as usize));
        }
        self.scratch.put(scratch);
        out
    }

    /// The statistics of one inference of `model` on `features`, with
    /// occupancy modelled over `workers` threads: the cached structural
    /// accountant plus the request's layer-0 feature terms.
    fn stats(&self, features: &SparseFeatures, model: &GnnModel, workers: usize) -> ExecStats {
        self.accountant
            .get(&self.layout, self.consumer_cfg, model, &self.locator_stats)
            .stats(features, self.layout.schedule().occupancy(workers))
    }

    /// Wraps an executed request's output with its report.
    fn respond(
        &self,
        model: &GnnModel,
        request: &InferenceRequest,
        output: DenseMatrix,
        workers: usize,
    ) -> InferenceResponse {
        let stats = self.stats(&request.features, model, workers);
        InferenceResponse {
            id: request.id,
            output,
            report: ExecReport::from_stats(self.name(), &stats),
        }
    }

    /// Runs full-model inference, returning the output features and the
    /// complete execution statistics.
    ///
    /// This is the direct-call path; the serving path is
    /// [`Accelerator::infer`] with a model installed through
    /// [`Accelerator::prepare`].
    ///
    /// # Errors
    ///
    /// [`CoreError::ShapeMismatch`] if the feature or weight shapes do
    /// not match the graph and model.
    pub fn run(
        &self,
        features: &SparseFeatures,
        model: &GnnModel,
        weights: &ModelWeights,
    ) -> Result<(DenseMatrix, ExecStats), CoreError> {
        self.check_features(features, model)?;
        validate_weights(model, weights)?;
        let norm = self.normalization(model);
        let out = self.execute_layout(&norm, features, model, weights, self.island_pool());
        Ok((out, self.stats(features, model, self.island_workers())))
    }

    /// Computes the statistics [`IGcnEngine::run`] would produce
    /// without any floating-point work (used by the hardware timing
    /// model on large graphs).
    ///
    /// # Errors
    ///
    /// [`CoreError::ShapeMismatch`] if the feature shape does not match
    /// the graph.
    pub fn account(
        &self,
        features: &SparseFeatures,
        model: &GnnModel,
    ) -> Result<ExecStats, CoreError> {
        self.check_features(features, model)?;
        Ok(self.stats(features, model, self.island_workers()))
    }

    /// Verifies islandized inference against the plain software
    /// reference, returning the maximum absolute output difference.
    ///
    /// # Errors
    ///
    /// As [`IGcnEngine::run`].
    pub fn verify(
        &self,
        features: &SparseFeatures,
        model: &GnnModel,
        weights: &ModelWeights,
    ) -> Result<f32, CoreError> {
        let (out, _) = self.run(features, model, weights)?;
        let reference = igcn_gnn::reference_forward(&self.graph, features, model, weights);
        Ok(out.max_abs_diff(&reference))
    }

    /// Convenience access to a node's output class (argmax over the
    /// final layer), for the example applications.
    pub fn predict_class(output: &DenseMatrix, node: NodeId) -> usize {
        let row = output.row(node.index());
        row.iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
            .map(|(i, _)| i)
            .unwrap_or(0)
    }

    fn prepared(&self) -> Result<&(GnnModel, ModelWeights), CoreError> {
        self.prepared.as_ref().ok_or_else(|| CoreError::NotPrepared { backend: self.name() })
    }
}

impl Accelerator for IGcnEngine {
    fn name(&self) -> String {
        "I-GCN".to_string()
    }

    fn graph(&self) -> &CsrGraph {
        &self.graph
    }

    fn prepare(&mut self, model: &GnnModel, weights: &ModelWeights) -> Result<(), CoreError> {
        validate_weights(model, weights)?;
        self.prepared = Some((model.clone(), weights.clone()));
        self.accountant = AccountantCache::default();
        self.scan_plans = ScanPlanCache::default();
        Ok(())
    }

    fn infer(&self, request: &InferenceRequest) -> Result<InferenceResponse, CoreError> {
        let (model, weights) = self.prepared()?;
        validate_request(&self.graph, model, request)?;
        let norm = self.normalization(model);
        let _trace = igcn_obs::trace::with_ambient(request.trace);
        let output =
            self.execute_layout(&norm, &request.features, model, weights, self.island_pool());
        Ok(self.respond(model, request, output, self.island_workers()))
    }

    fn infer_batch(
        &self,
        requests: &[InferenceRequest],
    ) -> Result<Vec<InferenceResponse>, CoreError> {
        // An empty batch asks for nothing; answer it without demanding a
        // prepared model.
        if requests.is_empty() {
            return Ok(Vec::new());
        }
        let (model, weights) = self.prepared()?;
        // Amortise the per-call setup across the batch: the Ã
        // normalisation depends only on the graph and model, not on
        // the request.
        let norm = self.normalization(model);
        // Validate the whole batch up front (first failure aborts), so
        // the parallel path never does work for a doomed batch.
        for request in requests {
            validate_request(&self.graph, model, request)?;
        }
        if self.exec_cfg.num_threads > 1 && self.exec_cfg.parallel_batch && requests.len() > 1 {
            if let Some(pool) = &self.pool {
                // Fan requests across the persistent pool; each request
                // executes its layers sequentially (no nested pools),
                // which is exactly the computation a lone sequential
                // `infer` would run, so batched outputs are
                // bit-identical at any thread count.
                return pool
                    .par_map(requests, |_, request| {
                        // Ambient trace context does not cross into pool
                        // threads — re-install each request's own.
                        let _trace = igcn_obs::trace::with_ambient(request.trace);
                        let output =
                            self.execute_layout(&norm, &request.features, model, weights, None);
                        Ok(self.respond(model, request, output, 1))
                    })
                    .into_iter()
                    .collect();
            }
        }
        requests
            .iter()
            .map(|request| {
                let _trace = igcn_obs::trace::with_ambient(request.trace);
                let output = self.execute_layout(
                    &norm,
                    &request.features,
                    model,
                    weights,
                    self.island_pool(),
                );
                Ok(self.respond(model, request, output, self.island_workers()))
            })
            .collect()
    }

    fn report(&self, request: &InferenceRequest) -> Result<ExecReport, CoreError> {
        let (model, _) = self.prepared()?;
        validate_request(&self.graph, model, request)?;
        let stats = self.account(&request.features, model)?;
        Ok(ExecReport::from_stats(self.name(), &stats))
    }
}

fn check_not_empty(graph: &CsrGraph) -> Result<(), CoreError> {
    if graph.num_nodes() == 0 || graph.num_directed_edges() == 0 {
        return Err(CoreError::EmptyGraph {
            num_nodes: graph.num_nodes(),
            num_edges: graph.num_directed_edges(),
        });
    }
    Ok(())
}

fn check_loop_free(graph: &CsrGraph) -> Result<(), CoreError> {
    for v in graph.iter_nodes() {
        if graph.has_edge(v, v) {
            return Err(CoreError::SelfLoops { node: v.value() });
        }
    }
    Ok(())
}

fn check_features_for(
    graph: &CsrGraph,
    features: &SparseFeatures,
    model: &GnnModel,
) -> Result<(), CoreError> {
    if features.num_rows() != graph.num_nodes() {
        return Err(CoreError::ShapeMismatch {
            what: "feature rows vs graph nodes".to_string(),
            expected: graph.num_nodes(),
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

/// Islandizes `graph` and computes the statistics [`IGcnEngine::run`]
/// would produce, without taking ownership of (or copying) the graph.
///
/// This is the borrowed accounting path for timing models that receive
/// `&CsrGraph` per call (e.g. `igcn_sim`'s `GcnAccelerator::simulate`);
/// long-lived callers should build an [`IGcnEngine`] instead so the
/// islandization is done once.
///
/// # Errors
///
/// As [`IGcnEngineBuilder::build`] (including [`CoreError::EmptyGraph`]
/// for graphs with no nodes or no edges) plus
/// [`CoreError::ShapeMismatch`] for feature shapes that do not match the
/// graph and model.
pub fn account_islandized(
    graph: &CsrGraph,
    island_cfg: IslandizationConfig,
    consumer_cfg: ConsumerConfig,
    features: &SparseFeatures,
    model: &GnnModel,
) -> Result<ExecStats, CoreError> {
    check_not_empty(graph)?;
    check_loop_free(graph)?;
    check_features_for(graph, features, model)?;
    let (partition, locator_stats) = IslandLocator::new(graph, &island_cfg).run()?;
    let layout = IslandLayout::new(graph, &partition, consumer_cfg.num_pes);
    let accountant = Accountant::new(&layout, consumer_cfg, model, &locator_stats);
    // The borrowed path feeds hardware timing models, so occupancy is
    // modelled over the *PEs* (the engine's own `run`/`account` model it
    // over the configured software threads instead).
    Ok(accountant.stats(features, layout.schedule().occupancy(consumer_cfg.num_pes)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use igcn_gnn::GnnKind;
    use igcn_graph::generate::HubIslandConfig;

    fn engine_setup(n: usize, noise: f64, seed: u64) -> (CsrGraph, SparseFeatures) {
        let g = HubIslandConfig::new(n, (n / 25).max(2)).noise_fraction(noise).generate(seed);
        let x = SparseFeatures::random(n, 10, 0.4, seed + 100);
        (g.graph, x)
    }

    #[test]
    fn end_to_end_matches_reference_gcn() {
        let (g, x) = engine_setup(200, 0.05, 1);
        let engine = IGcnEngine::builder(g).build().unwrap();
        let model = GnnModel::gcn(10, 8, 4);
        let w = ModelWeights::glorot(&model, 2);
        let diff = engine.verify(&x, &model, &w).unwrap();
        assert!(diff < 1e-4, "output diverges from reference by {diff}");
    }

    #[test]
    fn end_to_end_matches_reference_all_models() {
        let (g, x) = engine_setup(150, 0.0, 2);
        let engine = IGcnEngine::builder(g).build().unwrap();
        for model in
            [GnnModel::gcn(10, 6, 3), GnnModel::graphsage(10, 6, 3), GnnModel::gin(10, 6, 3, 0.2)]
        {
            let w = ModelWeights::glorot(&model, 4);
            let diff = engine.verify(&x, &model, &w).unwrap();
            // GIN's unnormalised sum aggregation accumulates larger
            // magnitudes, so FP reassociation noise is larger in absolute
            // terms.
            assert!(diff < 5e-3, "{:?} diverges by {diff}", model.kind());
        }
    }

    #[test]
    fn self_loops_rejected() {
        let g = CsrGraph::from_undirected_edges(3, &[(0, 0), (0, 1)]).unwrap();
        let err = IGcnEngine::builder(g).build().unwrap_err();
        assert!(matches!(err, CoreError::SelfLoops { node: 0 }));
    }

    #[test]
    fn pruning_rate_in_plausible_band() {
        // Densely clustered graphs should prune a substantial fraction of
        // aggregation ops — the paper reports 29–46% across datasets.
        let g = HubIslandConfig::new(500, 20).island_density(0.6).noise_fraction(0.0).generate(7);
        let x = SparseFeatures::random(500, 16, 0.3, 8);
        let engine = IGcnEngine::builder(g.graph).build().unwrap();
        let model = GnnModel::gcn(16, 8, 4);
        let stats = engine.account(&x, &model).unwrap();
        let rate = stats.aggregation_pruning_rate();
        assert!(rate > 0.1, "pruning rate {rate} too low for a dense-island graph");
        assert!(rate < 0.8, "pruning rate {rate} implausibly high");
    }

    #[test]
    fn predict_class_argmax() {
        let out = DenseMatrix::from_vec(2, 3, vec![0.1, 0.9, 0.2, 0.5, 0.1, 0.4]);
        assert_eq!(IGcnEngine::predict_class(&out, NodeId::new(0)), 1);
        assert_eq!(IGcnEngine::predict_class(&out, NodeId::new(1)), 0);
    }

    #[test]
    fn gin_kind_marker() {
        // Ensure GnnKind is re-exported usefully for downstream matching.
        assert_eq!(GnnModel::gin(4, 4, 2, 0.1).kind(), GnnKind::Gin);
    }

    #[test]
    fn engine_is_owned_send_sync() {
        fn assert_send_sync<T: Send + Sync + 'static>() {}
        assert_send_sync::<IGcnEngine>();
    }

    #[test]
    fn shape_mismatch_is_an_error_not_a_panic() {
        let (g, _) = engine_setup(150, 0.0, 4);
        let engine = IGcnEngine::builder(g).build().unwrap();
        let model = GnnModel::gcn(10, 6, 3);
        let w = ModelWeights::glorot(&model, 1);
        let wrong_rows = SparseFeatures::random(99, 10, 0.4, 2);
        assert!(matches!(
            engine.run(&wrong_rows, &model, &w),
            Err(CoreError::ShapeMismatch { .. })
        ));
        // Wrong feature width (cols vs the model's in_dim) must also be
        // an error on the direct path, not a panic deep in the consumer.
        let wrong_cols = SparseFeatures::random(150, 7, 0.4, 2);
        assert!(matches!(
            engine.run(&wrong_cols, &model, &w),
            Err(CoreError::ShapeMismatch { .. })
        ));
        assert!(matches!(
            engine.account(&wrong_cols, &model),
            Err(CoreError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn trait_infer_matches_direct_run() {
        let (g, x) = engine_setup(160, 0.02, 5);
        let mut engine = IGcnEngine::builder(g).build().unwrap();
        let model = GnnModel::gcn(10, 8, 4);
        let w = ModelWeights::glorot(&model, 6);
        engine.prepare(&model, &w).unwrap();
        let resp = engine.infer(&InferenceRequest::new(x.clone()).with_id(3)).unwrap();
        let (direct, stats) = engine.run(&x, &model, &w).unwrap();
        assert_eq!(resp.id, 3);
        assert_eq!(resp.output, direct);
        assert_eq!(resp.report, ExecReport::from_stats("I-GCN", &stats));
    }

    #[test]
    fn apply_update_keeps_inference_exact() {
        let (g, _) = engine_setup(300, 0.01, 6);
        let mut engine = IGcnEngine::builder(g).build().unwrap();
        let model = GnnModel::gcn(10, 8, 4);
        let w = ModelWeights::glorot(&model, 7);
        engine.prepare(&model, &w).unwrap();

        // Wire two fresh nodes onto an existing hub and grow the graph.
        let n = engine.graph().num_nodes();
        let hub = engine.partition().hubs()[0];
        let update = GraphUpdate::add_edges(vec![(n as u32, hub), (n as u32 + 1, n as u32)])
            .with_num_nodes(n + 2);
        let report = engine.apply_update(update).unwrap();
        assert_eq!(report.num_nodes, n + 2);
        engine.partition().check_invariants(engine.graph()).unwrap();

        let x = SparseFeatures::random(n + 2, 10, 0.4, 8);
        let diff = engine.verify(&x, &model, &w).unwrap();
        assert!(diff < 1e-3, "post-update inference diverged by {diff}");
    }

    #[test]
    fn parallel_engine_outputs_are_bit_identical() {
        let (g, _) = engine_setup(260, 0.05, 9);
        let mut sequential = IGcnEngine::builder(g.clone()).build().unwrap();
        let model = GnnModel::gcn(10, 8, 4);
        let w = ModelWeights::glorot(&model, 12);
        sequential.prepare(&model, &w).unwrap();
        let requests: Vec<InferenceRequest> = (0..5)
            .map(|i| {
                InferenceRequest::new(SparseFeatures::random(260, 10, 0.4, 500 + i)).with_id(i)
            })
            .collect();
        let baseline = sequential.infer_batch(&requests).unwrap();
        for threads in [2, 8] {
            let mut engine = IGcnEngine::builder(g.clone())
                .exec_config(ExecConfig::default().with_threads(threads))
                .build()
                .unwrap();
            engine.prepare(&model, &w).unwrap();
            // Batch fan-out path.
            let batched = engine.infer_batch(&requests).unwrap();
            for (a, b) in baseline.iter().zip(&batched) {
                assert_eq!(a.id, b.id);
                assert_eq!(a.output, b.output, "batch output diverges at {threads} threads");
            }
            // Island fan-out path (single infer).
            let solo = engine.infer(&requests[0]).unwrap();
            assert_eq!(solo.output, baseline[0].output, "island-parallel diverges at {threads}");
            // Island fan-out inside infer_batch when batch fan-out is off.
            let mut engine2 = IGcnEngine::builder(g.clone())
                .exec_config(ExecConfig::default().with_threads(threads).with_parallel_batch(false))
                .build()
                .unwrap();
            engine2.prepare(&model, &w).unwrap();
            let islands_only = engine2.infer_batch(&requests).unwrap();
            for (a, b) in baseline.iter().zip(&islands_only) {
                assert_eq!(a.output, b.output, "island-parallel batch diverges at {threads}");
            }
        }
    }

    #[test]
    fn occupancy_models_the_serving_path_workers() {
        let (g, x) = engine_setup(200, 0.05, 10);
        let mut engine = IGcnEngine::builder(g)
            .exec_config(ExecConfig::default().with_threads(4))
            .build()
            .unwrap();
        let model = GnnModel::gcn(10, 8, 4);
        let w = ModelWeights::glorot(&model, 13);
        engine.prepare(&model, &w).unwrap();
        let (_, stats) = engine.run(&x, &model, &w).unwrap();
        assert_eq!(stats.occupancy.workers(), 4);
        assert_eq!(stats.occupancy.total_busy(), engine.layout().schedule().total_work());
        let request = InferenceRequest::new(x);
        assert_eq!(engine.infer(&request).unwrap().report.num_workers(), 4);
        assert_eq!(engine.report(&request).unwrap().num_workers(), 4);
        // Batch fan-out runs each request on one thread.
        let batch = engine.infer_batch(&[request.clone(), request]).unwrap();
        assert!(batch.iter().all(|r| r.report.num_workers() == 1));
    }

    #[test]
    fn statistics_follow_the_model_asked_for() {
        // The accountant cache is keyed by model: a direct `run` with a
        // model other than the prepared one must not see (or evict into
        // serving) the prepared model's statistics.
        let (g, x) = engine_setup(180, 0.05, 14);
        let prepared = GnnModel::gcn(10, 8, 4);
        let other = GnnModel::gin(10, 6, 3, 0.2);
        let other_w = ModelWeights::glorot(&other, 16);
        let mut engine = IGcnEngine::builder(g.clone()).build().unwrap();
        engine.prepare(&prepared, &ModelWeights::glorot(&prepared, 15)).unwrap();
        let request = InferenceRequest::new(x.clone());
        let serving = engine.infer(&request).unwrap().report;
        let fresh = IGcnEngine::builder(g).build().unwrap();
        assert_eq!(engine.run(&x, &other, &other_w).unwrap().1, fresh.account(&x, &other).unwrap());
        assert_eq!(engine.infer(&request).unwrap().report, serving);
    }

    #[test]
    fn empty_graphs_are_an_error_not_a_panic() {
        let no_nodes = CsrGraph::from_undirected_edges(0, &[]).unwrap();
        assert!(matches!(
            IGcnEngine::builder(no_nodes).build(),
            Err(CoreError::EmptyGraph { num_nodes: 0, .. })
        ));
        let no_edges = CsrGraph::from_undirected_edges(5, &[]).unwrap();
        assert!(matches!(
            IGcnEngine::builder(no_edges.clone()).build(),
            Err(CoreError::EmptyGraph { num_edges: 0, .. })
        ));
        let model = GnnModel::gcn(4, 4, 2);
        let x = SparseFeatures::random(5, 4, 0.5, 1);
        assert!(matches!(
            account_islandized(
                &no_edges,
                IslandizationConfig::default(),
                ConsumerConfig::default(),
                &x,
                &model,
            ),
            Err(CoreError::EmptyGraph { .. })
        ));
    }

    #[test]
    fn empty_batches_are_accepted() {
        let (g, _) = engine_setup(150, 0.0, 11);
        let mut engine = IGcnEngine::builder(g).build().unwrap();
        // Even before prepare: an empty batch asks for nothing.
        assert_eq!(engine.infer_batch(&[]).unwrap(), Vec::new());
        let model = GnnModel::gcn(10, 6, 3);
        let w = ModelWeights::glorot(&model, 14);
        engine.prepare(&model, &w).unwrap();
        assert_eq!(engine.infer_batch(&[]).unwrap(), Vec::new());
    }

    #[test]
    fn apply_update_supports_removals() {
        let (g, _) = engine_setup(300, 0.01, 12);
        let mut engine = IGcnEngine::builder(g).build().unwrap();
        let model = GnnModel::gcn(10, 8, 4);
        let w = ModelWeights::glorot(&model, 15);
        engine.prepare(&model, &w).unwrap();

        // Remove one existing island-internal or island-hub edge.
        let island = engine.partition().islands().iter().find(|i| i.len() >= 2).unwrap();
        let a = island.nodes[0];
        let b = *engine
            .graph()
            .neighbors(NodeId::new(a))
            .iter()
            .find(|&&nb| nb != a)
            .expect("island node has a neighbor");
        let report = engine.apply_update(GraphUpdate::remove_edges(vec![(a, b)])).unwrap();
        assert!(report.dissolved_islands >= 1, "the endpoint island must dissolve");
        engine.partition().check_invariants(engine.graph()).unwrap();
        assert!(!engine.graph().has_edge(NodeId::new(a), NodeId::new(b)));

        let n = engine.graph().num_nodes();
        let x = SparseFeatures::random(n, 10, 0.4, 16);
        let diff = engine.verify(&x, &model, &w).unwrap();
        assert!(diff < 1e-3, "post-removal inference diverged by {diff}");

        // Removing a non-existent edge is an error.
        assert!(matches!(
            engine.apply_update(GraphUpdate::remove_edges(vec![(a, b)])),
            Err(CoreError::MissingEdge { .. })
        ));
    }

    #[test]
    fn batched_updates_match_sequential_replay() {
        // The WAL-replay contract: applying a batch with one final
        // layout recomposition must land in exactly the state (graph,
        // partition, locator stats, outputs, reports) that per-update
        // replay produces.
        let (g, _) = engine_setup(320, 0.02, 20);
        let model = GnnModel::gcn(10, 8, 4);
        let w = ModelWeights::glorot(&model, 21);
        let mut sequential = IGcnEngine::builder(g.clone()).build().unwrap();
        let mut batched = IGcnEngine::builder(g).build().unwrap();
        sequential.prepare(&model, &w).unwrap();
        batched.prepare(&model, &w).unwrap();

        let n = sequential.graph().num_nodes() as u32;
        let hub = sequential.partition().hubs()[0];
        let island = sequential.partition().islands().iter().find(|i| i.len() >= 2).unwrap();
        let a = island.nodes[0];
        let b = *sequential
            .graph()
            .neighbors(NodeId::new(a))
            .iter()
            .find(|&&nb| nb != a)
            .expect("island node has a neighbor");
        let updates = vec![
            GraphUpdate::add_edges(vec![(n, hub), (n + 1, n)]).with_num_nodes(n as usize + 2),
            GraphUpdate::remove_edges(vec![(a, b)]),
            GraphUpdate::add_edges(vec![(a, n + 1)]),
        ];

        let mut seq_reports = Vec::new();
        for u in &updates {
            seq_reports.push(sequential.apply_update(u.clone()).unwrap());
        }
        let batch_reports = batched.apply_updates_batched(&updates).unwrap();

        assert_eq!(seq_reports.len(), batch_reports.len());
        for (s, b) in seq_reports.iter().zip(&batch_reports) {
            assert_eq!(s.dissolved_islands, b.dissolved_islands);
            assert_eq!(s.reclassified_nodes, b.reclassified_nodes);
            assert_eq!(s.demoted_hubs, b.demoted_hubs);
            assert_eq!(s.num_nodes, b.num_nodes);
            assert_eq!(s.locator_stats, b.locator_stats);
        }
        assert_eq!(sequential.graph(), batched.graph());
        assert_eq!(sequential.partition(), batched.partition());
        assert_eq!(sequential.locator_stats(), batched.locator_stats());
        assert_eq!(sequential.layout(), batched.layout());

        let x = SparseFeatures::random(sequential.graph().num_nodes(), 10, 0.4, 22);
        let (so, ss) = sequential.run(&x, &model, &w).unwrap();
        let (bo, bs) = batched.run(&x, &model, &w).unwrap();
        assert_eq!(so, bo, "batched replay output diverged");
        assert_eq!(ss, bs, "batched replay stats diverged");
    }

    #[test]
    fn batched_updates_abort_atomically() {
        let (g, _) = engine_setup(200, 0.0, 23);
        let mut engine = IGcnEngine::builder(g).build().unwrap();
        let before_graph = engine.graph().clone();
        let before_partition = engine.partition().clone();
        // Second update is invalid (self-loop): nothing may apply.
        let updates =
            vec![GraphUpdate::add_edges(vec![(0, 5)]), GraphUpdate::add_edges(vec![(3, 3)])];
        assert!(matches!(
            engine.apply_updates_batched(&updates),
            Err(CoreError::SelfLoops { node: 3 })
        ));
        assert_eq!(engine.graph(), &before_graph, "batch must not partially apply");
        assert_eq!(engine.partition(), &before_partition);
        assert!(engine.apply_updates_batched(&[]).unwrap().is_empty());
    }

    #[test]
    fn apply_update_rejects_bad_updates() {
        let (g, _) = engine_setup(150, 0.0, 7);
        let n = g.num_nodes();
        let mut engine = IGcnEngine::builder(g).build().unwrap();
        assert!(matches!(
            engine.apply_update(GraphUpdate::add_edges(vec![(0, 0)])),
            Err(CoreError::SelfLoops { node: 0 })
        ));
        assert!(matches!(
            engine.apply_update(GraphUpdate::add_edges(vec![(0, 9_999)])),
            Err(CoreError::ShapeMismatch { .. })
        ));
        assert!(matches!(
            engine.apply_update(GraphUpdate::default().with_num_nodes(n - 1)),
            Err(CoreError::ShapeMismatch { .. })
        ));
    }
}
