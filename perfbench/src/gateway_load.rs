//! Closed-loop load over the binary wire protocol from pre-encoded
//! frames, so the client's encoding and reply checking stay outside
//! every timed window.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use igcn_core::accel::InferenceRequest;
use igcn_gateway::wire::{self, Decoded, Frame, HEADER_LEN, MAX_PAYLOAD};
use igcn_linalg::DenseMatrix;

use crate::measure::{ms, process_cpu, thread_cpu, Phase};
use crate::trace::ClientSpan;
use crate::workload::bit_identical;

/// Byte range of the header's trace id: it sits outside the checksum, so
/// a pooled frame takes a fresh id without being re-encoded.
const TRACE_FIELD: std::ops::Range<usize> = 24..32;

/// Encodes each pooled request as a binary `Infer` frame.
pub fn encode_pool(pool: &[InferenceRequest]) -> Vec<Vec<u8>> {
    pool.iter()
        .map(|r| {
            wire::encode(&Frame::Infer { id: r.id, deadline_ms: 0, features: r.features.clone() })
        })
        .collect()
}

/// A reply that takes longer than this fails the request, so a stuck
/// gateway cannot hang the run.
const REPLY_TIMEOUT: Duration = Duration::from_secs(30);

/// Runs `warmup` requests per connection, then `ops` measured requests
/// split evenly over `conns` closed-loop connections, each cycling the
/// pooled `frames` (whose payload ids are `ids`). Every reply must be an
/// `Ok` frame bit-identical to `expected` for its frame. `phase_tag` keeps each phase's trace ids
/// distinct; `on_measure` is called with `true` once every warm-up
/// reply is in and before any measured request is sent, and with
/// `false` once the last measured reply is in.
#[allow(clippy::too_many_arguments)]
pub fn run(
    addr: SocketAddr,
    frames: &[Vec<u8>],
    ids: &[u64],
    expected: &[DenseMatrix],
    conns: usize,
    warmup: usize,
    ops: usize,
    phase_tag: u64,
    on_measure: impl Fn(bool),
) -> Result<Phase, String> {
    let streams = (0..conns)
        .map(|_| {
            let s = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
            s.set_nodelay(true).map_err(|e| format!("set_nodelay: {e}"))?;
            s.set_read_timeout(Some(REPLY_TIMEOUT)).map_err(|e| format!("read timeout: {e}"))?;
            Ok(s)
        })
        .collect::<Result<Vec<_>, String>>()?;
    let per_conn = ops.div_ceil(conns);
    let barrier = Barrier::new(conns + 1);
    std::thread::scope(|scope| {
        let workers: Vec<_> = streams
            .into_iter()
            .enumerate()
            .map(|(c, stream)| {
                let barrier = &barrier;
                let mut frames = frames.to_vec();
                scope.spawn(move || {
                    let mut client =
                        Client { stream, broken: false, reply: Vec::new(), frames: &mut frames };
                    let tag = (phase_tag << 48) | ((c as u64 + 1) << 40);
                    let (mut warm, mut measured) = (Tally::default(), Tally::default());
                    for i in 0..warmup {
                        client.request(tag | 1 << 39 | (i as u64 + 1), i, ids, expected, &mut warm);
                    }
                    barrier.wait();
                    barrier.wait();
                    for i in 0..per_conn {
                        client.request(tag | (i as u64 + 1), i, ids, expected, &mut measured);
                    }
                    (warm, measured)
                })
            })
            .collect();
        barrier.wait();
        on_measure(true);
        let (t0, cpu0) = (Instant::now(), process_cpu());
        barrier.wait();
        let results: Vec<_> =
            workers.into_iter().map(|w| w.join().expect("client threads do not panic")).collect();
        let (wall, cpu) = (t0.elapsed(), process_cpu() - cpu0);
        on_measure(false);
        let mut phase = Phase {
            latencies_ms: Vec::new(),
            spans: Vec::new(),
            elapsed: wall,
            cpu,
            attempted: 0,
            failed: 0,
            first_failure: None,
        };
        for (warm, measured) in results {
            phase.latencies_ms.extend(measured.spans.iter().map(|s| ms(s.end - s.start)));
            phase.spans.extend(measured.spans);
            phase.cpu = phase.cpu.saturating_sub(measured.check_cpu);
            phase.attempted += (warmup + per_conn) as u64;
            phase.failed += warm.failed + measured.failed;
            phase.first_failure =
                phase.first_failure.take().or(warm.first_failure).or(measured.first_failure);
        }
        Ok(phase)
    })
}

#[derive(Default)]
struct Tally {
    spans: Vec<ClientSpan>,
    check_cpu: Duration,
    failed: u64,
    first_failure: Option<String>,
}

impl Tally {
    fn fail(&mut self, why: String) {
        self.failed += 1;
        self.first_failure.get_or_insert(why);
    }
}

struct Client<'a> {
    stream: TcpStream,
    /// Set by a transport error: the stream's framing is lost, so every
    /// later request on it fails without touching the socket.
    broken: bool,
    reply: Vec<u8>,
    frames: &'a mut [Vec<u8>],
}

impl Client<'_> {
    /// Sends pooled frame `i % pool` stamped with trace id `key`, reads
    /// the whole reply frame inside the timed window, then checks it.
    fn request(
        &mut self,
        key: u64,
        i: usize,
        ids: &[u64],
        expected: &[DenseMatrix],
        tally: &mut Tally,
    ) {
        if self.broken {
            tally.fail(format!("request {key:#x}: connection lost earlier"));
            return;
        }
        let slot = i % self.frames.len();
        let frame = &mut self.frames[slot];
        frame[TRACE_FIELD].copy_from_slice(&key.to_le_bytes());
        let start = Instant::now();
        let sent = self.stream.write_all(frame);
        if let Err(e) = sent.and_then(|()| self.read_reply()) {
            self.broken = true;
            tally.fail(format!("request {key:#x}: {e}"));
            return;
        }
        let end = Instant::now();
        tally.spans.push(ClientSpan { key, start, end });
        let cpu = thread_cpu();
        if let Err(why) = check(&self.reply, key, ids[slot], &expected[slot]) {
            tally.fail(format!("request {key:#x}: {why}"));
        }
        tally.check_cpu += thread_cpu() - cpu;
    }

    fn read_reply(&mut self) -> std::io::Result<()> {
        self.reply.resize(HEADER_LEN, 0);
        self.stream.read_exact(&mut self.reply)?;
        let len = u64::from_le_bytes(self.reply[8..16].try_into().expect("8-byte field"));
        if len > MAX_PAYLOAD {
            return Err(std::io::Error::other(format!("reply payload of {len} bytes")));
        }
        self.reply.resize(HEADER_LEN + len as usize, 0);
        self.stream.read_exact(&mut self.reply[HEADER_LEN..])
    }
}

fn check(reply: &[u8], key: u64, id: u64, expected: &DenseMatrix) -> Result<(), String> {
    match wire::decode(reply) {
        Decoded::Frame(Frame::Ok { id: got_id, output }, trace, used) => {
            if used != reply.len() || trace != key || got_id != id {
                Err(format!(
                    "reply framing: {used}/{} bytes, trace {trace:#x}, id {got_id}",
                    reply.len()
                ))
            } else if !bit_identical(&output, expected) {
                Err("output differs from the expected output".to_string())
            } else {
                Ok(())
            }
        }
        Decoded::Frame(other, _, _) => Err(format!("reply {other:?}")),
        Decoded::NeedMore => Err("truncated reply frame".to_string()),
        Decoded::Corrupt(why) => Err(format!("corrupt reply frame: {why}")),
    }
}
