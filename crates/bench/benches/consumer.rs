//! Island Consumer layer-execution bench on the vendored harness.
//!
//! Measures one island-executor layer over the physical layout with and
//! without redundancy removal, across pre-aggregation window widths
//! `k`, with the island chunks fanned across a 2-thread pool, plus the
//! per-epoch costs a layer replays: the scan plan's build and the
//! structural accountant's uncached pass (the ablations behind
//! Figure 10 and the §3.3.1 design choice).
//!
//! Run: `cargo bench -p igcn-bench --bench consumer`

use igcn_bench::table::fmt_sig;
use igcn_bench::{BenchHarness, Table};
use igcn_core::consumer::account::Accountant;
use igcn_core::consumer::executor::{run_layer, LayerScratch};
use igcn_core::consumer::plan::ScanPlan;
use igcn_core::consumer::LayerInput;
use igcn_core::{ConsumerConfig, IslandLayout, IslandLocator, IslandizationConfig};
use igcn_gnn::{Activation, GnnKind, GnnModel, LayerConfig};
use igcn_graph::generate::HubIslandConfig;
use igcn_graph::SparseFeatures;
use igcn_linalg::{DenseMatrix, GcnNormalization};
use threadpool::ThreadPool;

fn main() {
    let harness = BenchHarness::new(2, 10);
    let g = HubIslandConfig::new(4_000, 160).island_density(0.5).generate(6);
    let (partition, locator) =
        IslandLocator::new(&g.graph, &IslandizationConfig::default()).run().expect("converges");
    let layout = IslandLayout::new(&g.graph, &partition, ConsumerConfig::default().num_pes);
    let x = SparseFeatures::random(4_000, 64, 0.05, 7).gather_rows(layout.gather_order());
    let w = DenseMatrix::from_vec(64, 16, vec![0.1f32; 64 * 16]);
    let norm = GcnNormalization::symmetric(layout.graph());
    let mut out = vec![0.0f32; g.graph.num_nodes() * 16];
    let mut scratch = LayerScratch::new();

    let mut table = Table::new(vec!["case", "median (ms)", "p95 (ms)"]);
    let mut record = |label: String, stats: igcn_bench::BenchStats| {
        table.row(vec![label, fmt_sig(stats.median_s() * 1e3), fmt_sig(stats.p95_s() * 1e3)]);
    };
    let mut layer = |cfg: ConsumerConfig, pool: Option<&ThreadPool>| {
        // The plan is built once per epoch, outside the timed layer.
        let plan = ScanPlan::build(&layout, cfg.k, cfg.redundancy_removal, true);
        harness.run(|| {
            let input = LayerInput::Sparse(&x);
            run_layer(
                &layout,
                &plan,
                input,
                &w,
                &norm,
                Activation::Relu,
                pool,
                &mut scratch,
                &mut out,
            )
        })
    };

    for redundancy in [true, false] {
        let cfg = ConsumerConfig::default().with_redundancy_removal(redundancy);
        let label = if redundancy { "layer/with_reuse" } else { "layer/no_reuse" };
        record(label.to_string(), layer(cfg, None));
    }
    for k in [2usize, 4, 8] {
        record(format!("layer/k={k}"), layer(ConsumerConfig::default().with_k(k), None));
    }
    // Island chunks claimed by two threads (outputs are bit-identical
    // to the sequential rows).
    let pool = ThreadPool::new(2);
    record("layer/hotpath".to_string(), layer(ConsumerConfig::default(), Some(&pool)));
    let plan = harness.run(|| ScanPlan::build(&layout, 4, true, true));
    record("scan_plan_build".to_string(), plan);
    {
        let model = GnnModel::from_layers(
            GnnKind::Gcn,
            vec![LayerConfig { in_dim: 64, out_dim: 16, activation: Activation::Relu }],
            0.0,
        );
        let cfg = ConsumerConfig::default();
        let stats = harness
            .run(|| Accountant::new(&layout, cfg, &model, &locator).stats(&x, Default::default()));
        record("account_only".to_string(), stats);
    }

    println!("\n# Island Consumer layer execution (4000 nodes, 64→16)\n");
    println!("{}", table.to_markdown());
}
