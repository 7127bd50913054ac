//! Single-thread layer-throughput pin of the island executor, timed
//! against the plain CSR software reference in the same run.
//!
//! Both paths run on the same power-law graph, model and features in
//! one process, so their ratio (`engine_over_reference`) compares like
//! with like; wall-clock numbers still do not transfer between
//! machines, so the ratio is recorded, not asserted. What *is* asserted
//! — the CI smoke contract — is what holds everywhere:
//!
//! * the engine output matches `igcn_gnn::reference_forward` within
//!   `max |engine − reference| ≤ 1e-4`;
//! * the timed inference produces **bit-identical** outputs and
//!   `ExecStats` across repeated runs (the executor is deterministic);
//! * forcing the scalar kernel fallback (`igcn_simd::force_scalar`)
//!   reproduces the SIMD run **bit for bit** — the end-to-end form of
//!   the per-kernel identity contract;
//! * the measured medians are finite and non-zero (the harness really
//!   timed work).
//!
//! The SIMD-vs-scalar wall-clock ratio is reported alongside
//! (informational on a 1-CPU container, where the scalar loops
//! auto-vectorize).
//!
//! Run: `cargo run --release -p igcn-bench --bin layer_hotpath -- --quick`

use igcn_bench::table::fmt_sig;
use igcn_bench::{write_result, BenchHarness, HarnessArgs, Table};
use igcn_core::IGcnEngine;
use igcn_gnn::{reference_forward, GnnModel, ModelWeights};
use igcn_graph::generate::barabasi_albert;
use igcn_graph::SparseFeatures;
use serde::json::{obj, JsonValue};

/// Largest tolerated `max |engine − reference|`.
const REFERENCE_TOLERANCE: f32 = 1e-4;

fn main() {
    let args = HarnessArgs::parse();
    // The 50k-node power-law bin of the serving scaling sweep.
    let n = if args.quick { 4_000 } else { 50_000 };
    let edges_per_node = 8;
    let feature_dim = 32;
    let density = 0.05;
    let graph = barabasi_albert(n, edges_per_node, args.seed);
    let reference_graph = graph.clone();
    let model = GnnModel::gcn(feature_dim, 16, 8);
    let num_layers = model.num_layers();
    let weights = ModelWeights::glorot(&model, args.seed);
    let x = SparseFeatures::random(n, feature_dim, density, args.seed + 1);

    eprintln!("[hotpath] islandizing {n} nodes...");
    let engine = IGcnEngine::builder(graph).build().expect("BA graphs are loop-free");

    // The CI smoke contract, part 1: repeated runs of the hot path are
    // bit-identical in both outputs and the complete ExecStats.
    eprintln!("[hotpath] checking run-to-run bit-identity...");
    let (out_a, stats_a) = engine.run(&x, &model, &weights).expect("hot path runs");
    let (out_b, stats_b) = engine.run(&x, &model, &weights).expect("hot path runs");
    assert_eq!(out_a, out_b, "hot-path outputs must be bit-identical across runs");
    assert_eq!(stats_a, stats_b, "hot-path ExecStats must be bit-identical across runs");
    let reference = reference_forward(&reference_graph, &x, &model, &weights);
    let max_abs_diff = out_a.max_abs_diff(&reference);
    assert!(
        max_abs_diff <= REFERENCE_TOLERANCE,
        "engine output diverges from the reference by {max_abs_diff}"
    );

    // Part 1b: the scalar-fallback kernels are the *same function* in
    // different clothes — forcing them must not move a single bit of
    // either the outputs or the statistics (the SIMD bit-identity
    // contract, end to end rather than per kernel).
    eprintln!("[hotpath] checking SIMD-vs-scalar bit-identity...");
    igcn_simd::force_scalar(true);
    let (out_s, stats_s) = engine.run(&x, &model, &weights).expect("scalar fallback runs");
    igcn_simd::force_scalar(false);
    assert_eq!(out_a, out_s, "scalar-fallback outputs must match the SIMD path bit for bit");
    assert_eq!(stats_a, stats_s, "scalar-fallback ExecStats must match the SIMD path");

    let harness = if args.quick { BenchHarness::quick() } else { BenchHarness::new(1, 5) };
    eprintln!("[hotpath] timing hot path ({} warmup + {} iters)...", harness.warmup, harness.iters);
    let timed = harness.run(|| engine.run(&x, &model, &weights).expect("engine runs"));
    let median_s = timed.median_s();
    let p95_s = timed.p95_s();
    let layers_per_s = num_layers as f64 / median_s.max(1e-12);

    eprintln!("[hotpath] timing the software reference in the same run...");
    let timed_reference = harness.run(|| reference_forward(&reference_graph, &x, &model, &weights));
    let reference_median_s = timed_reference.median_s();
    let engine_over_reference = median_s / reference_median_s.max(1e-12);

    // End-to-end A/B against the forced-scalar fallback. Reported, not
    // asserted: on the 1-CPU container the scalar loops auto-vectorize,
    // so this ratio hovers near 1x by construction (kernel_bench owns
    // the per-kernel non-regression assert).
    eprintln!("[hotpath] timing scalar fallback for the end-to-end A/B...");
    igcn_simd::force_scalar(true);
    let timed_scalar = harness.run(|| engine.run(&x, &model, &weights).expect("engine runs"));
    igcn_simd::force_scalar(false);
    let scalar_median_s = timed_scalar.median_s();
    let simd_vs_scalar = scalar_median_s / median_s.max(1e-12);

    let mut table = Table::new(vec!["path", "median (ms)", "p95 (ms)", "layers/s"]);
    table.row(vec![
        "hot path (live)".to_string(),
        fmt_sig(median_s * 1e3),
        fmt_sig(p95_s * 1e3),
        fmt_sig(layers_per_s),
    ]);
    table.row(vec![
        "scalar fallback (live)".to_string(),
        fmt_sig(scalar_median_s * 1e3),
        fmt_sig(timed_scalar.p95_s() * 1e3),
        fmt_sig(num_layers as f64 / scalar_median_s.max(1e-12)),
    ]);
    table.row(vec![
        "reference_forward".to_string(),
        fmt_sig(reference_median_s * 1e3),
        fmt_sig(timed_reference.p95_s() * 1e3),
        fmt_sig(num_layers as f64 / reference_median_s.max(1e-12)),
    ]);
    println!("\n# Single-thread layer hot path vs the software reference (power-law, {n} nodes)\n");
    println!("{}", table.to_markdown());
    println!(
        "engine / reference median: {engine_over_reference:.3} \
         (informational — same run, same inputs; max |engine - reference| = {max_abs_diff:e})"
    );
    println!(
        "SIMD vs forced-scalar end to end: {simd_vs_scalar:.3}x \
         (informational — scalar loops auto-vectorize on this container)"
    );

    let result = obj([
        (
            "note",
            JsonValue::Str(
                "single-thread engine timing against igcn_gnn::reference_forward on the same \
                 graph, model and features in the same run; engine_over_reference is \
                 informational (wall clock), max_abs_diff is asserted <= 1e-4"
                    .to_string(),
            ),
        ),
        (
            "graph",
            obj([
                ("kind", JsonValue::Str("barabasi_albert".to_string())),
                ("nodes", JsonValue::Uint(n as u64)),
                ("edges_per_node", JsonValue::Uint(edges_per_node as u64)),
                ("seed", JsonValue::Uint(args.seed)),
            ]),
        ),
        (
            "model",
            obj([
                ("kind", JsonValue::Str("gcn".to_string())),
                ("in_dim", JsonValue::Uint(feature_dim as u64)),
                ("hidden", JsonValue::Uint(16)),
                ("classes", JsonValue::Uint(8)),
                ("layers", JsonValue::Uint(num_layers as u64)),
            ]),
        ),
        (
            "harness",
            obj([
                ("warmup", JsonValue::Uint(harness.warmup as u64)),
                ("iters", JsonValue::Uint(harness.iters as u64)),
                ("threads", JsonValue::Uint(1)),
            ]),
        ),
        ("bit_identical_across_runs", JsonValue::Bool(true)),
        ("bit_identical_simd_vs_scalar", JsonValue::Bool(true)),
        ("median_s", JsonValue::from_f64_rounded(median_s)),
        ("p95_s", JsonValue::from_f64_rounded(p95_s)),
        ("layers_per_s", JsonValue::from_f64_rounded(layers_per_s)),
        ("scalar_median_s", JsonValue::from_f64_rounded(scalar_median_s)),
        ("simd_vs_scalar", JsonValue::from_f64_rounded(simd_vs_scalar)),
        ("reference_median_s", JsonValue::from_f64_rounded(reference_median_s)),
        ("engine_over_reference", JsonValue::from_f64_rounded(engine_over_reference)),
        ("max_abs_diff", JsonValue::Float(f64::from(max_abs_diff))),
    ]);
    let path = write_result("locality_speedup.json", result.encode_pretty().as_bytes());
    eprintln!("wrote {}", path.display());

    // The CI smoke contract, part 2: the harness measured real work.
    for (what, t) in [("hot-path", median_s), ("reference", reference_median_s)] {
        assert!(t.is_finite() && t > 0.0, "{what} median must be a positive finite time, got {t}");
    }
}
