//! Golden statistics and the accountant cache.
//!
//! The statistics every serving path reports come from one structural
//! accountant, cached per (layout, model). The golden table pins its
//! output — the complete `ExecStats`/`ExecReport` renderings of three
//! fixed hub-island graphs × {GCN, GIN} × redundancy removal {on, off}
//! across the direct `run`, a 3-thread engine, a 2-shard fleet and the
//! borrowed `account_islandized` path — to values recorded from the
//! earlier per-path counting implementation, together with the
//! bitwise output of the sequential engine. The cache tests check that
//! `apply_update` and a re-`prepare` never serve statistics of a
//! previous epoch.

use std::sync::Arc;

use igcn::core::accel::{Accelerator, GraphUpdate, InferenceRequest};
use igcn::core::{
    ConsumerConfig, EngineParts, ExecConfig, ExecReport, IGcnEngine, IslandizationConfig,
};
use igcn::gnn::{GnnModel, ModelWeights};
use igcn::graph::generate::HubIslandConfig;
use igcn::graph::SparseFeatures;
use igcn::shard::ShardedEngine;

/// FNV-1a 64 of a rendering.
fn fnv(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// `(n, hubs, noise, seed, model, redundancy removal, hash of the
/// 1-thread run stats, of the 3-thread run stats, of the 3-thread infer
/// report, of the 2-shard fleet infer report, of account_islandized,
/// total scalar ops, hash of the output bits)`.
type Golden = (usize, usize, f64, u64, &'static str, bool, u64, u64, u64, u64, u64, u64, u64);

#[rustfmt::skip]
const GOLDEN: [Golden; 12] = [
    (200, 8, 0.0, 1, "gcn", true, 0xdc4ab9419e832a31, 0x846e90b1820afbbc, 0x621d04b3aa301b91, 0x540a84659d9f0d03, 0xd14690443f4a1a05, 73220, 0x9c1e576d6458c62f),
    (200, 8, 0.0, 1, "gcn", false, 0x0191c1b3a0b29219, 0x8cf7d757ab4b70f4, 0xad1850a8b9f5359a, 0xc794e0d7b5b39528, 0xc9baa901c5893f9d, 79760, 0x82e2cf2127b9ce4c),
    (200, 8, 0.0, 1, "gin", true, 0xd42d9077a98a78c4, 0x9c2d6b0feb360f13, 0xf229f3b8f5ec2505, 0x4a645c15846d7f0f, 0xf2cadb071f0af73e, 152148, 0xe6cf0199df8746e3),
    (200, 8, 0.0, 1, "gin", false, 0x8658c32edc54fc40, 0x99c9b444f22c029f, 0x884db391696b39c0, 0x6702fe45daadddba, 0xeed38a156069f5aa, 159888, 0x8f1d2a09bee04888),
    (260, 10, 0.08, 2, "gcn", true, 0xa22ce158eb363f06, 0x741b70c82863656a, 0x83e1470840b0e69a, 0x01257a920a26404a, 0x6c46367d7f519cc1, 99660, 0xea5920ad0f236e84),
    (260, 10, 0.08, 2, "gcn", false, 0x3326bcd584eaab28, 0xccc3f20670ec276c, 0x607e002514b332ce, 0x36855bdf4ee9adda, 0x56e3141a677010a3, 100600, 0xe3c1edc41dba3ab0),
    (260, 10, 0.08, 2, "gin", true, 0xf1f8f1f97a49c7cf, 0xf3195a57d1c4380d, 0x4355b73df0500f9a, 0x883d61cff2969d3a, 0xababd3485952a2ee, 203556, 0xae43d55c56aff234),
    (260, 10, 0.08, 2, "gin", false, 0x10f51795cc4db9c1, 0x881ddbffd65caf97, 0x04a68ba8a9acec1f, 0xf89c77d408f7ce7f, 0xf5ed06a59b8b7b70, 202296, 0x292ec826436f31b9),
    (300, 12, 0.2, 3, "gcn", true, 0x91f9b7f6fa319640, 0xffff311d8f6313c1, 0xb277f17f1556ded9, 0x4c60411c86a3d35e, 0x645c572b4bd6ef77, 127420, 0xfb1a23bbf468ce31),
    (300, 12, 0.2, 3, "gcn", false, 0xd2118f801d028efc, 0x34b9f5b07150a605, 0x840aa08b55ab2380, 0x6a39b6571d0d474f, 0x826022befd8125a3, 127560, 0x68adee887c30e1c8),
    (300, 12, 0.2, 3, "gin", true, 0x732219c84915bf90, 0x074f954ab2f66711, 0xcfaba1f35b7ec490, 0xc2f0ebe1a843a49f, 0xa6424ac66f388207, 254664, 0x84e9378155cbe0bd),
    (300, 12, 0.2, 3, "gin", false, 0xae4050e8ed6948b1, 0x849d6b36ef2d44ce, 0x6da097f1d95d4196, 0x1216b980caff39a1, 0xae00fe6cdb69f864, 254088, 0xad918492887705d6),
];

#[test]
fn statistics_and_outputs_match_the_golden_table() {
    for (n, hubs, noise, seed, kind, rr, run1, run3, rep3, fleet, borrowed, ops, out) in GOLDEN {
        let case = format!("n={n} noise={noise} {kind} redundancy_removal={rr}");
        let g = HubIslandConfig::new(n, hubs).noise_fraction(noise).generate(seed).graph;
        let x = SparseFeatures::random(n, 12, 0.3, seed + 100);
        let model =
            if kind == "gcn" { GnnModel::gcn(12, 16, 4) } else { GnnModel::gin(12, 16, 4, 0.3) };
        let w = ModelWeights::glorot(&model, seed + 7);
        let cfg = ConsumerConfig::default().with_redundancy_removal(rr);
        let request = InferenceRequest::new(x.clone());

        let mut e1 = IGcnEngine::builder(g.clone()).consumer_config(cfg).build().unwrap();
        e1.prepare(&model, &w).unwrap();
        let (out1, stats1) = e1.run(&x, &model, &w).unwrap();
        assert_eq!(fnv(&format!("{stats1:?}")), run1, "{case}: run stats");
        assert_eq!(e1.account(&x, &model).unwrap(), stats1, "{case}: account");
        assert_eq!(stats1.total_scalar_ops(), ops, "{case}: total ops");
        let bits: String = out1.as_slice().iter().map(|v| format!("{:08x}", v.to_bits())).collect();
        assert_eq!(fnv(&bits), out, "{case}: output bits");

        let mut e3 = IGcnEngine::builder(g.clone())
            .consumer_config(cfg)
            .exec_config(ExecConfig::default().with_threads(3))
            .build()
            .unwrap();
        e3.prepare(&model, &w).unwrap();
        let (out3, stats3) = e3.run(&x, &model, &w).unwrap();
        assert_eq!(out3, out1, "{case}: 3-thread output");
        assert_eq!(fnv(&format!("{stats3:?}")), run3, "{case}: 3-thread run stats");
        let report3 = e3.infer(&request).unwrap().report;
        assert_eq!(fnv(&format!("{report3:?}")), rep3, "{case}: 3-thread report");
        assert_eq!(e3.report(&request).unwrap(), report3, "{case}: report()");

        let fleet_engine = ShardedEngine::from_engine(&e1, 2).unwrap();
        let fleet_response = fleet_engine.infer(&request).unwrap();
        assert_eq!(fleet_response.output, out1, "{case}: fleet output");
        assert_eq!(fnv(&format!("{:?}", fleet_response.report)), fleet, "{case}: fleet report");

        let stats = igcn::core::exec::account_islandized(
            &g,
            IslandizationConfig::default(),
            cfg,
            &x,
            &model,
        )
        .unwrap();
        assert_eq!(fnv(&format!("{stats:?}")), borrowed, "{case}: account_islandized");
    }
}

/// An engine with an empty accountant cache over `engine`'s current
/// structure, prepared with `model`.
fn fresh_twin(engine: &IGcnEngine, model: &GnnModel, w: &ModelWeights) -> IGcnEngine {
    let mut twin = IGcnEngine::builder(engine.graph_arc())
        .build_from_parts(EngineParts {
            partition: engine.partition().clone(),
            locator_stats: engine.locator_stats().clone(),
            layout: engine.layout_arc(),
        })
        .unwrap();
    twin.prepare(model, w).unwrap();
    twin
}

fn report_of(backend: &dyn Accelerator, x: &SparseFeatures) -> ExecReport {
    backend.infer(&InferenceRequest::new(x.clone())).unwrap().report
}

#[test]
fn cached_statistics_follow_updates_and_new_models() {
    let g = HubIslandConfig::new(300, 12).noise_fraction(0.02).generate(41).graph;
    let n = g.num_nodes();
    let model = GnnModel::gcn(12, 8, 4);
    let w = ModelWeights::glorot(&model, 42);
    let mut engine = IGcnEngine::builder(Arc::new(g)).build().unwrap();
    engine.prepare(&model, &w).unwrap();
    let mut fleet = ShardedEngine::from_engine(&engine, 2).unwrap();
    let x = SparseFeatures::random(n, 12, 0.3, 43);
    // Fill both caches.
    let before = report_of(&engine, &x);
    report_of(&fleet, &x);

    let hub = engine.partition().hubs()[0];
    let update = GraphUpdate::add_edges(vec![(n as u32, hub), (n as u32 + 1, n as u32)])
        .with_num_nodes(n + 2);
    engine.apply_update(update.clone()).unwrap();
    fleet.apply_update(update).unwrap();
    let x = SparseFeatures::random(n + 2, 12, 0.3, 44);
    let twin = fresh_twin(&engine, &model, &w);
    let after = report_of(&engine, &x);
    assert_ne!(after, before, "the update must move the statistics");
    assert_eq!(after, report_of(&twin, &x), "engine after apply_update");
    let twin_fleet = ShardedEngine::from_engine(&twin, 2).unwrap();
    assert_eq!(report_of(&fleet, &x), report_of(&twin_fleet, &x), "fleet after apply_update");

    let wider = GnnModel::gin(12, 24, 5, 0.1);
    let wider_w = ModelWeights::glorot(&wider, 45);
    engine.prepare(&wider, &wider_w).unwrap();
    fleet.prepare(&wider, &wider_w).unwrap();
    let twin = fresh_twin(&engine, &wider, &wider_w);
    let reprepared = report_of(&engine, &x);
    assert_ne!(reprepared, after, "a different model must move the statistics");
    assert_eq!(reprepared, report_of(&twin, &x), "engine after re-prepare");
    let twin_fleet = ShardedEngine::from_engine(&twin, 2).unwrap();
    assert_eq!(report_of(&fleet, &x), report_of(&twin_fleet, &x), "fleet after re-prepare");
}
