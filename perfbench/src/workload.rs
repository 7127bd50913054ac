//! The three workloads: their fixed graphs, seeded inputs and set-up.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use igcn_core::accel::InferenceRequest;
use igcn_core::{ExecConfig, IGcnEngine};
use igcn_gnn::{reference_forward, GnnModel, ModelWeights};
use igcn_graph::datasets::Dataset;
use igcn_graph::generate::HubIslandConfig;
use igcn_graph::{CsrGraph, SparseFeatures};
use igcn_linalg::DenseMatrix;

use crate::measure::ms;

/// Each workload serves one fixed graph and model, as a deployment
/// serves one dataset; `--seed` draws the request features and the
/// churned edges.
const GRAPH_SEED: u64 = 1;
const WEIGHT_SEED: u64 = 7;
/// Feature sets in the input pool, generated before timing and cycled.
const POOL: usize = 4;
/// Edges each `noisy-churn` update removes or re-adds.
const CHURN_EDGES: usize = 32;
/// Largest tolerated `|engine - reference_forward|`, relative to the
/// reference's largest magnitude (floored at 1). The islandized engine
/// sums in island order, so it matches the reference to rounding, not
/// bit for bit.
const REFERENCE_TOLERANCE: f64 = 1e-4;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    CoraEdge,
    PubmedFleet,
    NoisyChurn,
}

impl Workload {
    pub const ALL: [Workload; 3] =
        [Workload::CoraEdge, Workload::PubmedFleet, Workload::NoisyChurn];

    pub fn name(self) -> &'static str {
        match self {
            Workload::CoraEdge => "cora-edge",
            Workload::PubmedFleet => "pubmed-fleet",
            Workload::NoisyChurn => "noisy-churn",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Closed-loop client connections (at most `nproc` = 2).
    pub fn connections(self) -> usize {
        match self {
            Workload::PubmedFleet => 2,
            Workload::CoraEdge | Workload::NoisyChurn => 1,
        }
    }

    /// Shards behind the gateway (0 = a single engine).
    pub fn shards(self) -> usize {
        match self {
            Workload::PubmedFleet => 2,
            Workload::CoraEdge | Workload::NoisyChurn => 0,
        }
    }

    /// Operations one second of `--seconds` buys on a 2-CPU x86-64
    /// container. The count, not the clock, ends a run, so every run of
    /// one seed does the same work from the same state; for
    /// `noisy-churn` an operation is one infer-infer-update cycle.
    fn ops_per_second(self) -> f64 {
        match self {
            Workload::CoraEdge => 80.0,
            Workload::PubmedFleet => 16.0,
            Workload::NoisyChurn => 6.0,
        }
    }

    /// Measured operations for a run of `seconds`, never fewer than 200
    /// latency samples so that ten lie beyond p95.
    pub fn ops(self, seconds: u64) -> usize {
        let per_op_samples = if self == Workload::NoisyChurn { 2 } else { 1 };
        let ops = (self.ops_per_second() * seconds as f64).ceil() as usize;
        ops.max(200usize.div_ceil(per_op_samples))
    }
}

/// Everything a run needs that is generated before any timing.
pub struct Inputs {
    pub graph: Arc<CsrGraph>,
    pub model: GnnModel,
    pub weights: ModelWeights,
    /// Pooled requests, ids `1..=POOL`.
    pub pool: Vec<InferenceRequest>,
    /// Seeded existing undirected edges for the update schedule.
    pub churn: Vec<(u32, u32)>,
}

impl Inputs {
    pub fn generate(workload: Workload, seed: u64) -> Inputs {
        let (graph, cols, density, model) = match workload {
            Workload::CoraEdge | Workload::PubmedFleet => {
                let dataset =
                    if workload == Workload::CoraEdge { Dataset::Cora } else { Dataset::Pubmed };
                let spec = dataset.spec();
                let model = GnnModel::gcn(spec.feature_dim, spec.hidden_algo, spec.num_classes);
                let graph = dataset.generate(GRAPH_SEED).graph;
                (graph, spec.feature_dim, spec.feature_density, model)
            }
            Workload::NoisyChurn => {
                let graph = HubIslandConfig::new(20_000, 10)
                    .noise_fraction(0.03)
                    .generate(GRAPH_SEED)
                    .graph;
                (graph, 64, 0.3, GnnModel::gcn(64, 16, 8))
            }
        };
        let n = graph.num_nodes();
        let pool = (0..POOL)
            .map(|i| {
                let features = SparseFeatures::random(n, cols, density, mix(seed, i as u64));
                InferenceRequest::new(features).with_id(i as u64 + 1)
            })
            .collect();
        let churn = pick_edges(&graph, CHURN_EDGES, mix(seed, 0xC4u64));
        let weights = ModelWeights::glorot(&model, WEIGHT_SEED);
        Inputs { graph: Arc::new(graph), model, weights, pool, churn }
    }

    /// Islandizes the graph and prepares the model on one thread,
    /// returning the engine and the `build` time in milliseconds.
    pub fn build_engine(&self) -> Result<(IGcnEngine, f64), String> {
        let t = Instant::now();
        let mut engine = IGcnEngine::builder(Arc::clone(&self.graph))
            .exec_config(ExecConfig::default().with_threads(1))
            .build()
            .map_err(|e| format!("engine build: {e}"))?;
        let build_ms = ms(t.elapsed());
        igcn_core::Accelerator::prepare(&mut engine, &self.model, &self.weights)
            .map_err(|e| format!("prepare: {e}"))?;
        Ok((engine, build_ms))
    }

    pub fn reference(&self, graph: &CsrGraph, request: &InferenceRequest) -> DenseMatrix {
        reference_forward(graph, &request.features, &self.model, &self.weights)
    }
}

/// SplitMix64 of `seed` and `stream`: independent seeded streams.
fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// `count` distinct existing undirected edges `(u, v)`, `u < v`, drawn
/// by `seed`.
fn pick_edges(graph: &CsrGraph, count: usize, seed: u64) -> Vec<(u32, u32)> {
    let (row_ptr, col_idx) = (graph.row_ptr(), graph.col_idx());
    let mut picked = Vec::with_capacity(count);
    let mut state = seed;
    while picked.len() < count {
        state = mix(state, 1);
        let slot = (state % col_idx.len() as u64) as usize;
        let u = row_ptr.partition_point(|&p| p <= slot) as u32 - 1;
        let v = col_idx[slot];
        let edge = (u.min(v), u.max(v));
        if u != v && !picked.contains(&edge) {
            picked.push(edge);
        }
    }
    picked
}

/// Checks `got` against the reference output `want`: same shape, and
/// no `|got - want|` above [`REFERENCE_TOLERANCE`] of
/// `max(1, max |want|)`.
pub fn matches_reference(got: &DenseMatrix, want: &DenseMatrix) -> Result<(), String> {
    if (got.rows(), got.cols()) != (want.rows(), want.cols()) {
        return Err("output shape differs from the reference".to_string());
    }
    let scale = want.as_slice().iter().fold(1.0f64, |m, &v| m.max(f64::from(v.abs())));
    let worst = got
        .as_slice()
        .iter()
        .zip(want.as_slice())
        .fold(0.0f64, |m, (&a, &b)| m.max(f64::from((a - b).abs())));
    let error = worst / scale;
    if error <= REFERENCE_TOLERANCE {
        Ok(())
    } else {
        Err(format!("relative error {error:e} against the reference, over {REFERENCE_TOLERANCE:e}"))
    }
}

pub fn bit_identical(got: &DenseMatrix, want: &DenseMatrix) -> bool {
    (got.rows(), got.cols()) == (want.rows(), want.cols())
        && got.as_slice().iter().zip(want.as_slice()).all(|(a, b)| a.to_bits() == b.to_bits())
}

/// Counts a run produces deterministically for one seed. A change that
/// moves one shows as a count change; a value that differs between
/// runs of one build is nondeterminism and fails the run.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Counters(pub BTreeMap<&'static str, f64>);

impl Counters {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, value);
    }

    /// Records the partition and locator state of a freshly built engine.
    pub fn structure(engine: &IGcnEngine) -> Counters {
        let mut c = Counters::default();
        c.set("core.hub_fraction", engine.partition().hub_fraction());
        c.set("core.islands", engine.partition().num_islands() as f64);
        c.set("core.locator_rounds", engine.locator_stats().num_rounds() as f64);
        c.set("core.cmax_overflows", engine.locator_stats().tasks_dropped_overflow as f64);
        c
    }
}

impl Counters {
    /// Compares these counters with those an earlier run of the same
    /// seed by the same build left at `path` (counters both runs
    /// measured must be equal), then records the union there.
    pub fn check_and_record(&self, path: &Path) -> Result<(), String> {
        let build = build_fingerprint()?;
        let mut known = BTreeMap::new();
        if let Ok(text) = std::fs::read_to_string(path) {
            let mut lines = text.lines();
            if lines.next() == Some(build.as_str()) {
                for line in lines {
                    if let Some((name, value)) = line.split_once(' ') {
                        known.insert(name.to_string(), value.to_string());
                    }
                }
            }
        }
        for (name, value) in &self.0 {
            let value = format!("{value:?}");
            match known.insert(name.to_string(), value.clone()) {
                Some(before) if before != value => {
                    return Err(format!(
                        "{name} is {value}, but {before} in an earlier run of this seed"
                    ))
                }
                _ => {}
            }
        }
        let mut text = build;
        for (name, value) in &known {
            text.push_str(&format!("\n{name} {value}"));
        }
        let tmp = path.with_extension("tmp");
        std::fs::write(&tmp, text + "\n")
            .and_then(|()| std::fs::rename(&tmp, path))
            .map_err(|e| format!("recording counters in {}: {e}", path.display()))
    }
}

/// Identifies the running executable, so a rebuilt program starts a
/// fresh record instead of being compared with the old one.
fn build_fingerprint() -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let meta = std::fs::metadata(&exe).map_err(|e| format!("{}: {e}", exe.display()))?;
    let modified = meta
        .modified()
        .ok()
        .and_then(|t| t.duration_since(std::time::UNIX_EPOCH).ok())
        .map_or(0, |d| d.as_nanos());
    Ok(format!("build {} {modified}", meta.len()))
}
