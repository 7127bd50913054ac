//! The repository's benchmark: one workload per invocation, run against
//! the public APIs of `gateway`, `serve`, `core`, `shard` and `gnn`.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload cora-edge --seed 1 --seconds 15 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics; `--trace 1` runs the
//! same load untraced and then traced, followed by direct calls into
//! each layer, and reports the per-layer metrics. The last line of
//! standard output is one JSON object; the exit code is nonzero when any
//! operation failed or any output check did not hold. README.md lists
//! the workloads, the metrics and what each metric should move.

mod churn;
mod gateway_load;
mod layers;
mod measure;
mod trace;
mod workload;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use igcn_core::{Accelerator, IGcnEngine};
use igcn_gateway::{Gateway, GatewayConfig};
use igcn_linalg::DenseMatrix;
use igcn_serve::ServingConfig;
use igcn_shard::ShardedEngine;

use measure::{median, ms, peak_rss_mb, percentile, Phase};
use trace::Traced;
use workload::{matches_reference, Counters, Inputs, Workload};

const USAGE: &str = "usage: perfbench --workload <cora-edge|pubmed-fleet|noisy-churn> \
                     --seed <u64> --seconds <u64> --trace <0|1>";

/// Fresh set-ups per run; `setup_s` is their median.
const SETUPS: usize = 15;
/// Warm-up passes over the input pool before timing (per connection;
/// for `noisy-churn`, remove/re-add cycles, an even count so timing
/// starts on the full graph).
const WARMUP: usize = 4;

/// End-to-end metrics (`--trace 0`), in `BENCHMARK.json` order.
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("throughput_rps", "1/s"),
    ("cpu_ms_per_op", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics (`--trace 1`), in `BENCHMARK.json` order.
const PER_LAYER: [(&str, &str); 30] = [
    ("gateway.pre_dispatch_ms", "ms"),
    ("gateway.post_dispatch_ms", "ms"),
    ("gateway.decode_ms", "ms"),
    ("gateway.encode_ms", "ms"),
    ("gateway.request_bytes", "bytes"),
    ("serve.batch_size_mean", "count"),
    ("serve.dispatch_ms", "ms"),
    ("core.build_ms", "ms"),
    ("core.infer_ms", "ms"),
    ("core.report_ms", "ms"),
    ("core.update_ms", "ms"),
    ("core.hub_fraction", "ratio"),
    ("core.hub_fraction_end", "ratio"),
    ("core.islands", "count"),
    ("core.locator_rounds", "count"),
    ("core.cmax_overflows", "count"),
    ("core.dissolved_islands", "count"),
    ("core.reclassified_nodes", "count"),
    ("core.demoted_hubs", "count"),
    ("core.pruning_rate", "ratio"),
    ("core.total_ops", "count"),
    ("core.offchip_bytes", "bytes"),
    ("shard.from_engine_ms", "ms"),
    ("shard.infer_ms", "ms"),
    ("shard.report_ms", "ms"),
    ("shard.halo_bytes", "bytes"),
    ("shard.work_balance", "ratio"),
    ("gnn.reference_ms", "ms"),
    ("gnn.engine_over_reference", "ratio"),
    ("trace.overhead_p50_ms", "ms"),
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

impl Args {
    fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = args.next() {
            let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let number = || value.parse::<u64>().map_err(|e| format!("{flag} {value}: {e}"));
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        Workload::parse(&value)
                            .ok_or_else(|| format!("unknown workload {value}"))?,
                    )
                }
                "--seed" => seed = Some(number()?),
                "--seconds" => seconds = Some(number()?.max(1)),
                "--trace" => match value.as_str() {
                    "0" => trace = Some(false),
                    "1" => trace = Some(true),
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                },
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
        })
    }
}

/// What a run reports.
#[derive(Default)]
struct Outcome {
    values: BTreeMap<&'static str, f64>,
    /// Reported for the reader only: not part of the JSON result.
    notes: Vec<(&'static str, f64, &'static str)>,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Outcome {
    fn fail(&mut self, why: String) {
        self.failures.push(why);
    }

    fn count(&mut self, phase: &Phase) {
        self.attempted += phase.attempted;
        self.failed += phase.failed;
        self.failures.extend(phase.first_failure.clone());
    }

    /// The end-to-end metrics of an untraced phase of `ops` operations.
    fn end_to_end(&mut self, phase: &Phase, ops: usize, setup_s: &[f64]) {
        let inferences = phase.latencies_ms.len() as f64;
        self.values.extend([
            ("setup_s", median(setup_s)),
            ("latency_p50_ms", percentile(&phase.latencies_ms, 50.0)),
            ("throughput_rps", inferences / phase.elapsed.as_secs_f64()),
            ("cpu_ms_per_op", ms(phase.cpu) / ops as f64),
        ]);
        self.notes.push(("latency_p95_ms", percentile(&phase.latencies_ms, 95.0), "ms"));
    }

    /// Counts a traced phase and reports its serve-side metrics and its
    /// overhead over the untraced one; writes the spans out.
    fn traced(
        &mut self,
        args: &Args,
        plain: &Phase,
        traced: &Phase,
        dispatches: &[trace::DispatchSpan],
    ) -> Result<(), String> {
        self.count(traced);
        self.values.extend(trace::join(&traced.spans, dispatches)?);
        let p50 = |p: &Phase| percentile(&p.latencies_ms, 50.0);
        self.values.insert("trace.overhead_p50_ms", p50(traced) - p50(plain));
        let path = out_dir()?.join(format!("spans-{}-{}.jsonl", args.workload.name(), args.seed));
        trace::write_spans(&path, &traced.spans, dispatches)
            .map_err(|e| format!("writing {}: {e}", path.display()))
    }

    /// Reports the deterministic counters and checks them against
    /// earlier runs of the same seed by the same build.
    fn counters(&mut self, args: &Args, counters: Counters) {
        let recorded = out_dir().and_then(|dir| {
            let path = dir.join(format!("counters-{}-{}.txt", args.workload.name(), args.seed));
            counters.check_and_record(&path)
        });
        if let Err(why) = recorded {
            self.fail(why);
        }
        if args.trace {
            self.values.extend(counters.0);
        } else {
            self.notes.extend(counters.0.into_iter().map(|(name, value)| (name, value, "")));
        }
    }

    fn correct(&self) -> bool {
        self.failures.is_empty() && self.failed == 0
    }

    fn print(&self, workload: Workload, metrics: &[(&'static str, &'static str)]) {
        println!("workload {}", workload.name());
        for (name, value, unit) in &self.notes {
            println!("  {name:<28} {value:>16.6} {unit}");
        }
        let mut json = Vec::new();
        for &(name, unit) in metrics {
            let value = self.values[name];
            println!("  {name:<28} {value:>16.6} {unit}");
            json.push(format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"));
        }
        println!("  operations attempted {} failed {}", self.attempted, self.failed);
        for why in &self.failures {
            println!("  FAILED: {why}");
        }
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            json.join(", ")
        );
    }
}

fn main() {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(why) => {
            eprintln!("perfbench: {why}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let run = match args.workload {
        Workload::NoisyChurn => run_churn(&args),
        Workload::CoraEdge | Workload::PubmedFleet => run_gateway(&args),
    };
    let mut outcome = match run {
        Ok(outcome) => outcome,
        Err(why) => {
            eprintln!("perfbench: {why}");
            std::process::exit(1);
        }
    };
    match peak_rss_mb() {
        Ok(mb) => outcome.values.insert("peak_rss_mb", mb),
        Err(why) => {
            eprintln!("perfbench: {why}");
            std::process::exit(1);
        }
    };
    outcome.print(args.workload, if args.trace { &PER_LAYER } else { &END_TO_END });
    if !outcome.correct() {
        std::process::exit(1);
    }
}

/// The served stack of a gateway workload: the engine (also the fleet's
/// source), the traced backend the gateway serves, and the gateway.
struct Served {
    core: Arc<IGcnEngine>,
    backend: Arc<Traced<dyn Accelerator>>,
    fleet: Option<Arc<ShardedEngine>>,
    gateway: Gateway,
}

/// One gateway IO thread and one serving worker; engines and fleets run
/// on one thread each.
fn gateway_config() -> GatewayConfig {
    GatewayConfig::default()
        .with_io_threads(1)
        .with_serving(ServingConfig::default().with_workers(1))
}

fn serve(workload: Workload, inputs: &Inputs) -> Result<(Served, f64), String> {
    let (core, build_ms) = inputs.build_engine()?;
    let core = Arc::new(core);
    let fleet = match workload.shards() {
        0 => None,
        n => Some(Arc::new(
            ShardedEngine::from_engine(&core, n).map_err(|e| format!("from_engine: {e}"))?,
        )),
    };
    let inner: Arc<dyn Accelerator> = match &fleet {
        Some(fleet) => fleet.clone(),
        None => core.clone(),
    };
    let backend = Arc::new(Traced::new(inner));
    let gateway = Gateway::serve(backend.clone(), "127.0.0.1:0", gateway_config())
        .map_err(|e| format!("gateway: {e}"))?;
    Ok((Served { core, backend, fleet, gateway }, build_ms))
}

/// Repeats `setup` `SETUPS` times, timing each; returns the last set-up,
/// the set-up times in seconds and the `build` times in milliseconds.
/// Every set-up must islandize to the same structure.
fn setups<T>(
    outcome: &mut Outcome,
    counters: &mut Counters,
    mut setup: impl FnMut() -> Result<(T, f64), String>,
    engine: impl Fn(&T) -> &IGcnEngine,
) -> Result<(T, Vec<f64>, Vec<f64>), String> {
    let (mut last, mut setup_s, mut build_ms) = (None, Vec::new(), Vec::new());
    for _ in 0..SETUPS {
        let t = Instant::now();
        let (built, build) = setup()?;
        setup_s.push(t.elapsed().as_secs_f64());
        build_ms.push(build);
        let structure = Counters::structure(engine(&built));
        if last.is_some() && structure.0.iter().any(|(k, v)| counters.0.get(k) != Some(v)) {
            outcome.fail("two set-ups islandized the graph differently".to_string());
        }
        counters.0.extend(structure.0);
        // The previous set-up is torn down here, outside the timing.
        last = Some(built);
    }
    Ok((last.expect("SETUPS > 0"), setup_s, build_ms))
}

/// Runs each pooled request directly on the served backend, checks the
/// output against `reference_forward` and records the first response's
/// deterministic counts. Returns the expected outputs.
fn expected_outputs(
    outcome: &mut Outcome,
    inputs: &Inputs,
    backend: &dyn Accelerator,
    counters: &mut Counters,
) -> Result<Vec<DenseMatrix>, String> {
    let mut expected = Vec::new();
    for request in &inputs.pool {
        let response = backend.infer(request).map_err(|e| format!("expected output: {e}"))?;
        let want = inputs.reference(&inputs.graph, request);
        if let Err(why) = matches_reference(&response.output, &want) {
            outcome.fail(format!("request {}: {why}", request.id));
        }
        if expected.is_empty() {
            counters.set("core.pruning_rate", response.report.aggregation_pruning_rate);
            counters.set("core.total_ops", response.report.total_ops as f64);
            counters.set("core.offchip_bytes", response.report.offchip_bytes as f64);
        }
        expected.push(response.output);
    }
    Ok(expected)
}

fn run_gateway(args: &Args) -> Result<Outcome, String> {
    let w = args.workload;
    let inputs = Inputs::generate(w, args.seed);
    let mut outcome = Outcome::default();
    let mut counters = Counters::default();
    let (served, setup_s, build_ms) =
        setups(&mut outcome, &mut counters, || serve(w, &inputs), |s: &Served| &s.core)?;

    let expected = expected_outputs(&mut outcome, &inputs, served.backend.inner(), &mut counters)?;
    let frames = gateway_load::encode_pool(&inputs.pool);
    let ids: Vec<u64> = inputs.pool.iter().map(|r| r.id).collect();
    counters.set("gateway.request_bytes", frames[0].len() as f64);
    if let Some(fleet) = &served.fleet {
        counters.set("shard.halo_bytes", fleet.halo_bytes_per_inference(&inputs.model) as f64);
    }
    counters.set("core.hub_fraction_end", served.core.partition().hub_fraction());

    let addr = served.gateway.local_addr();
    let load = |tag: u64, on_measure: &dyn Fn(bool)| {
        gateway_load::run(
            addr,
            &frames,
            &ids,
            &expected,
            w.connections(),
            WARMUP * frames.len(),
            w.ops(args.seconds),
            tag,
            on_measure,
        )
    };
    let plain = load(1, &|_| {})?;
    outcome.count(&plain);
    if args.trace {
        let traced = load(2, &|on| served.backend.set_recording(on))?;
        outcome.traced(args, &plain, &traced, &served.backend.take_spans())?;
    } else {
        outcome.end_to_end(&plain, plain.latencies_ms.len(), &setup_s);
    }

    // Failures the gateway saw, which a client may not (a reply that
    // never came is a failed request even if the client timed out).
    let stats = served.gateway.stats();
    let gateway_failed = stats.shed + stats.deadline_expired + stats.failed + stats.protocol_errors;
    outcome.notes.push(("gateway.failures", gateway_failed as f64, "count"));
    outcome.failed = outcome.failed.max(gateway_failed);
    let Served { core, backend, fleet, gateway } = served;
    gateway.shutdown();
    drop((backend, fleet));

    if args.trace {
        outcome.values.insert("core.build_ms", median(&build_ms));
        let direct = layers::direct(&inputs, &core, &frames[0], w.shards() > 0, &mut counters)?;
        outcome.values.extend(direct);
    }
    outcome.counters(args, counters);
    Ok(outcome)
}

fn run_churn(args: &Args) -> Result<Outcome, String> {
    let inputs = Inputs::generate(args.workload, args.seed);
    let mut outcome = Outcome::default();
    let mut counters = Counters::default();
    let (initial, setup_s, build_ms) =
        setups(&mut outcome, &mut counters, || inputs.build_engine(), |e: &IGcnEngine| e)?;

    expected_outputs(&mut outcome, &inputs, &initial, &mut counters)?;
    let frame = gateway_load::encode_pool(&inputs.pool[..1]).remove(0);
    counters.set("gateway.request_bytes", frame.len() as f64);

    let cycles = args.workload.ops(args.seconds);
    let phase = |tag: u64, record: bool| {
        let mut engine = Traced::new(Arc::new(initial.clone()));
        let phase = churn::run(&mut engine, &inputs, WARMUP, cycles, tag, record);
        (phase, engine.take_spans())
    };
    let (plain, _) = phase(1, false);
    outcome.count(&plain.phase);
    counters.set("core.hub_fraction_end", plain.hub_fraction_end);
    if args.trace {
        let (traced, dispatches) = phase(2, true);
        if traced.hub_fraction_end != plain.hub_fraction_end {
            outcome.fail("the traced phase ended in another partition".to_string());
        }
        outcome.traced(args, &plain.phase, &traced.phase, &dispatches)?;
        outcome.values.insert("core.build_ms", median(&build_ms));
        let direct = layers::direct(&inputs, &initial, &frame, false, &mut counters)?;
        outcome.values.extend(direct);
    } else {
        let ops = plain.phase.latencies_ms.len() + plain.update_ms.len();
        outcome.end_to_end(&plain.phase, ops, &setup_s);
        outcome.notes.extend([
            ("update_p50_ms", percentile(&plain.update_ms, 50.0), "ms"),
            ("update_p95_ms", percentile(&plain.update_ms, 95.0), "ms"),
        ]);
    }
    outcome.counters(args, counters);
    Ok(outcome)
}

/// Where the benchmark keeps its outputs: inside its own directory.
fn out_dir() -> Result<PathBuf, String> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    Ok(dir)
}
