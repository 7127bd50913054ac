//! The benchmark's spans: a decorator around the served backend and the
//! join of its spans with the client's.

use std::collections::HashMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use igcn_core::accel::{InferenceRequest, InferenceResponse};
use igcn_core::{Accelerator, BackendHealth, CoreError, ExecReport};
use igcn_gnn::{GnnModel, ModelWeights};
use igcn_graph::CsrGraph;

use crate::measure::{median, ms};

/// A request's span key: the client-stamped trace id on gateway
/// requests, the request id on in-process calls (which carry no trace).
fn key(request: &InferenceRequest) -> u64 {
    if request.trace.trace_id != 0 {
        request.trace.trace_id
    } else {
        request.id
    }
}

/// One span per client request: write of the first byte (or the call)
/// to the last reply byte (or the return).
#[derive(Debug, Clone, Copy)]
pub struct ClientSpan {
    pub key: u64,
    pub start: Instant,
    pub end: Instant,
}

/// One span per backend call the serving tier makes.
#[derive(Debug, Clone)]
pub struct DispatchSpan {
    pub keys: Vec<u64>,
    pub enter: Instant,
    pub exit: Instant,
}

/// Delegates every [`Accelerator`] method to `inner`; while recording,
/// it keeps a [`DispatchSpan`] per `infer` / `infer_batch` call. Spans
/// stay in memory until [`Traced::take_spans`].
pub struct Traced<A: ?Sized> {
    inner: Arc<A>,
    recording: AtomicBool,
    spans: Mutex<Vec<DispatchSpan>>,
}

impl<A: Accelerator + ?Sized> Traced<A> {
    pub fn new(inner: Arc<A>) -> Self {
        Traced { inner, recording: AtomicBool::new(false), spans: Mutex::new(Vec::new()) }
    }

    pub fn inner(&self) -> &A {
        &self.inner
    }

    /// The wrapped backend, mutably, while no other handle shares it.
    pub fn inner_mut(&mut self) -> Option<&mut A> {
        Arc::get_mut(&mut self.inner)
    }

    pub fn set_recording(&self, on: bool) {
        self.recording.store(on, Ordering::SeqCst);
    }

    pub fn take_spans(&self) -> Vec<DispatchSpan> {
        std::mem::take(&mut *self.spans.lock().expect("span log holders never panic"))
    }

    fn record<T>(&self, requests: &[InferenceRequest], call: impl FnOnce() -> T) -> T {
        if !self.recording.load(Ordering::Relaxed) {
            return call();
        }
        let enter = Instant::now();
        let out = call();
        let exit = Instant::now();
        let keys = requests.iter().map(key).collect();
        self.spans.lock().expect("span log holders never panic").push(DispatchSpan {
            keys,
            enter,
            exit,
        });
        out
    }
}

impl<A: Accelerator + ?Sized> Accelerator for Traced<A> {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn graph(&self) -> &CsrGraph {
        self.inner.graph()
    }

    fn prepare(&mut self, model: &GnnModel, weights: &ModelWeights) -> Result<(), CoreError> {
        match Arc::get_mut(&mut self.inner) {
            Some(inner) => inner.prepare(model, weights),
            None => Err(CoreError::BackendFailed {
                backend: self.inner.name(),
                detail: "prepare needs the only handle to the traced backend".to_string(),
            }),
        }
    }

    fn infer(&self, request: &InferenceRequest) -> Result<InferenceResponse, CoreError> {
        self.record(std::slice::from_ref(request), || self.inner.infer(request))
    }

    fn infer_batch(
        &self,
        requests: &[InferenceRequest],
    ) -> Result<Vec<InferenceResponse>, CoreError> {
        self.record(requests, || self.inner.infer_batch(requests))
    }

    fn report(&self, request: &InferenceRequest) -> Result<ExecReport, CoreError> {
        self.inner.report(request)
    }

    fn health(&self) -> BackendHealth {
        self.inner.health()
    }

    fn component_health(&self) -> Vec<(String, BackendHealth)> {
        self.inner.component_health()
    }
}

/// The serve-side metrics of a traced phase: time before and after the
/// backend call per request, backend call time, and batch size.
pub fn join(
    clients: &[ClientSpan],
    dispatches: &[DispatchSpan],
) -> Result<Vec<(&'static str, f64)>, String> {
    let by_key: HashMap<u64, &ClientSpan> = clients.iter().map(|c| (c.key, c)).collect();
    let (mut pre, mut post) = (Vec::new(), Vec::new());
    for d in dispatches {
        for k in &d.keys {
            let c = by_key.get(k).ok_or_else(|| format!("dispatch span for unknown key {k:#x}"))?;
            pre.push(ms(d.enter.duration_since(c.start)));
            post.push(ms(c.end.duration_since(d.exit)));
        }
    }
    if pre.len() != clients.len() {
        return Err(format!(
            "{} client spans but {} dispatched requests",
            clients.len(),
            pre.len()
        ));
    }
    let dispatch: Vec<f64> =
        dispatches.iter().map(|d| ms(d.exit.duration_since(d.enter))).collect();
    Ok(vec![
        ("gateway.pre_dispatch_ms", median(&pre)),
        ("gateway.post_dispatch_ms", median(&post)),
        ("serve.batch_size_mean", pre.len() as f64 / dispatches.len() as f64),
        ("serve.dispatch_ms", median(&dispatch)),
    ])
}

/// Writes the spans as JSON lines, times in microseconds from the first
/// client span's start.
pub fn write_spans(
    path: &Path,
    clients: &[ClientSpan],
    dispatches: &[DispatchSpan],
) -> std::io::Result<()> {
    let origin = clients.iter().map(|c| c.start).min().unwrap_or_else(Instant::now);
    let us = |t: Instant| t.saturating_duration_since(origin).as_secs_f64() * 1e6;
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for c in clients {
        writeln!(
            out,
            "{{\"span\":\"client\",\"key\":{},\"start_us\":{},\"end_us\":{}}}",
            c.key,
            us(c.start),
            us(c.end)
        )?;
    }
    for d in dispatches {
        let keys: Vec<String> = d.keys.iter().map(u64::to_string).collect();
        writeln!(
            out,
            "{{\"span\":\"dispatch\",\"keys\":[{}],\"start_us\":{},\"end_us\":{}}}",
            keys.join(","),
            us(d.enter),
            us(d.exit)
        )?;
    }
    out.flush()
}
