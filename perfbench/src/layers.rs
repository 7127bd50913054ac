//! The traced run's direct phase: each layer called on its own, after
//! the load phases, so the calls contend with nothing.

use std::time::Instant;

use igcn_core::{Accelerator, IGcnEngine};
use igcn_gateway::wire::{self, Frame};
use igcn_gnn::reference_forward;
use igcn_shard::ShardedEngine;

use crate::churn;
use crate::measure::{median, median_ms, ms};
use crate::workload::{bit_identical, Counters, Inputs};

/// Repetitions of each direct call (the metric is their median).
const REPS: usize = 9;
/// Updates applied to a copy of the engine for the update metrics.
const UPDATES: usize = 16;
/// Shards of the fleet the shard metrics run on.
const SHARDS: usize = 2;

/// Times every per-layer call on `core` (the workload's engine as set
/// up) and `frame` (its first pooled request, encoded). `served_fleet`
/// says the workload serves a fleet, whose `infer` then sets
/// `gnn.engine_over_reference`. Deterministic counts go to `counters`.
pub fn direct(
    inputs: &Inputs,
    core: &IGcnEngine,
    frame: &[u8],
    served_fleet: bool,
    counters: &mut Counters,
) -> Result<Vec<(&'static str, f64)>, String> {
    let request = &inputs.pool[0];
    let expected = core.infer(request).map_err(|e| format!("core infer: {e}"))?;
    let reply = Frame::Ok { id: request.id, output: expected.output.clone() };
    let core_infer_ms = median_ms(REPS, || core.infer(request));
    let mut out = vec![
        ("gateway.decode_ms", median_ms(REPS, || wire::decode(frame))),
        ("gateway.encode_ms", median_ms(REPS, || wire::encode(&reply))),
        ("core.infer_ms", core_infer_ms),
        ("core.report_ms", median_ms(REPS, || core.report(request))),
    ];
    out.extend(updates(inputs, core, counters)?);

    let (mut from_engine, mut fleet) = (Vec::new(), None);
    for _ in 0..REPS {
        let t = Instant::now();
        let built = ShardedEngine::from_engine(core, SHARDS);
        from_engine.push(ms(t.elapsed()));
        // The previous fleet is dropped here, outside the timing.
        fleet = Some(built.map_err(|e| format!("ShardedEngine::from_engine: {e}"))?);
    }
    let fleet = fleet.expect("REPS > 0");
    let sharded = fleet.infer(request).map_err(|e| format!("fleet infer: {e}"))?;
    if !bit_identical(&sharded.output, &expected.output) {
        return Err("fleet output differs from the single engine's".to_string());
    }
    let shard_infer_ms = median_ms(REPS, || fleet.infer(request));
    let work: Vec<f64> = fleet.sharding_report().per_shard.iter().map(|s| s.work as f64).collect();
    let mean_work = work.iter().sum::<f64>() / work.len() as f64;
    counters.set("shard.halo_bytes", fleet.halo_bytes_per_inference(&inputs.model) as f64);
    out.extend([
        ("shard.from_engine_ms", median(&from_engine)),
        ("shard.infer_ms", shard_infer_ms),
        ("shard.report_ms", median_ms(REPS, || fleet.report(request))),
        ("shard.work_balance", work.iter().copied().fold(0.0, f64::max) / mean_work),
    ]);

    let reference_ms = median_ms(REPS, || {
        reference_forward(core.graph(), &request.features, &inputs.model, &inputs.weights)
    });
    let served_ms = if served_fleet { shard_infer_ms } else { core_infer_ms };
    out.extend([
        ("gnn.reference_ms", reference_ms),
        ("gnn.engine_over_reference", served_ms / reference_ms),
    ]);
    Ok(out)
}

/// `UPDATES` alternating removals and re-additions of the churn edges
/// on a copy of `core`.
fn updates(
    inputs: &Inputs,
    core: &IGcnEngine,
    counters: &mut Counters,
) -> Result<Vec<(&'static str, f64)>, String> {
    let mut engine = core.clone();
    let (mut times, mut dissolved, mut reclassified, mut demoted) = (Vec::new(), 0, 0, 0);
    for cycle in 0..UPDATES {
        let t = Instant::now();
        let report = engine
            .apply_update(churn::update(inputs, cycle))
            .map_err(|e| format!("apply_update: {e}"))?;
        times.push(ms(t.elapsed()));
        dissolved += report.dissolved_islands;
        reclassified += report.reclassified_nodes;
        demoted += report.demoted_hubs;
    }
    counters.set("core.dissolved_islands", dissolved as f64);
    counters.set("core.reclassified_nodes", reclassified as f64);
    counters.set("core.demoted_hubs", demoted as f64);
    Ok(vec![("core.update_ms", median(&times))])
}
