//! `noisy-churn`: in-process reads and writes on one engine, on the
//! fixed schedule infer, infer, update; updates alternate between
//! removing the seeded edges and re-adding them.

use std::time::{Duration, Instant};

use igcn_core::{Accelerator, GraphUpdate, IGcnEngine};
use igcn_linalg::DenseMatrix;

use crate::measure::{ms, process_cpu, thread_cpu, Phase};
use crate::trace::{ClientSpan, Traced};
use crate::workload::{bit_identical, matches_reference, Inputs};

/// Inferences per cycle; each cycle ends with one update.
const INFERS_PER_CYCLE: usize = 2;

/// A `noisy-churn` phase: the inference [`Phase`], whose elapsed time
/// is the summed time of the timed calls (updates included, the checks
/// between them left out), plus the updates.
pub struct ChurnPhase {
    pub phase: Phase,
    pub update_ms: Vec<f64>,
    pub hub_fraction_end: f64,
}

/// The update of cycle `cycle`: even cycles remove the churn edges, odd
/// cycles re-add them.
pub fn update(inputs: &Inputs, cycle: usize) -> GraphUpdate {
    if cycle.is_multiple_of(2) {
        GraphUpdate::remove_edges(inputs.churn.clone())
    } else {
        GraphUpdate::add_edges(inputs.churn.clone())
    }
}

/// Runs `warmup` then `cycles` measured cycles on `engine`; the
/// decorator records spans during the measured cycles when `record`.
pub fn run(
    engine: &mut Traced<IGcnEngine>,
    inputs: &Inputs,
    warmup: usize,
    cycles: usize,
    phase_tag: u64,
    record: bool,
) -> ChurnPhase {
    let mut requests = inputs.pool.clone();
    let mut phase = Phase {
        latencies_ms: Vec::new(),
        spans: Vec::new(),
        elapsed: Duration::ZERO,
        cpu: Duration::ZERO,
        attempted: 0,
        failed: 0,
        first_failure: None,
    };
    let mut update_ms = Vec::new();
    // reference[edges removed][pool slot], filled on first use.
    let mut reference: [Vec<Option<DenseMatrix>>; 2] =
        [vec![None; requests.len()], vec![None; requests.len()]];
    let mut check_cpu = Duration::ZERO;
    let mut cpu0 = process_cpu();
    for cycle in 0..warmup + cycles {
        let measured = cycle >= warmup;
        if cycle == warmup {
            engine.set_recording(record);
            check_cpu = Duration::ZERO;
            cpu0 = process_cpu();
        }
        let removed = cycle % 2;
        for j in 0..INFERS_PER_CYCLE {
            let slot = (cycle * INFERS_PER_CYCLE + j) % requests.len();
            let key = (phase_tag << 48) | (cycle * INFERS_PER_CYCLE + j + 1) as u64;
            requests[slot].id = key;
            phase.attempted += 1;
            let start = Instant::now();
            let result = engine.infer(&requests[slot]);
            let end = Instant::now();
            if measured {
                phase.latencies_ms.push(ms(end - start));
                phase.spans.push(ClientSpan { key, start, end });
                phase.elapsed += end - start;
            }
            let cpu = thread_cpu();
            let want = reference[removed][slot]
                .get_or_insert_with(|| inputs.reference(engine.graph(), &requests[slot]));
            let verdict = match result {
                Ok(response) => matches_reference(&response.output, want),
                Err(e) => Err(format!("infer: {e}")),
            };
            if let Err(why) = verdict {
                phase.failed += 1;
                phase.first_failure.get_or_insert(format!("cycle {cycle}: {why}"));
            }
            check_cpu += thread_cpu() - cpu;
        }
        phase.attempted += 1;
        let inner = engine.inner_mut().expect("the churn engine has a single owner");
        let start = Instant::now();
        let result = inner.apply_update(update(inputs, cycle));
        let took = start.elapsed();
        if measured {
            update_ms.push(ms(took));
            phase.elapsed += took;
        }
        let cpu = thread_cpu();
        let verdict = match result {
            Err(e) => Err(format!("apply_update: {e}")),
            // Once per remove/re-add cycle, the cached reference of the
            // restored graph must still be the reference of the
            // engine's current graph.
            Ok(_) if removed == 1 => match &reference[0][0] {
                Some(cached) => {
                    let fresh = inputs.reference(engine.graph(), &requests[0]);
                    if bit_identical(cached, &fresh) {
                        Ok(())
                    } else {
                        Err("restored graph has a different reference output".to_string())
                    }
                }
                None => Ok(()),
            },
            Ok(_) => Ok(()),
        };
        if let Err(why) = verdict {
            phase.failed += 1;
            phase.first_failure.get_or_insert(format!("cycle {cycle}: {why}"));
        }
        check_cpu += thread_cpu() - cpu;
    }
    engine.set_recording(false);
    phase.cpu = (process_cpu() - cpu0).saturating_sub(check_cpu);
    let hub_fraction_end = engine.inner().partition().hub_fraction();
    ChurnPhase { phase, update_ms, hub_fraction_end }
}
