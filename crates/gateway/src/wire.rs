//! The length-prefixed binary wire protocol, version 3.
//!
//! Framing follows the `igcn-store` snapshot conventions — magic,
//! little-endian version, little-endian payload length, a 64-bit
//! payload checksum, a trace id, then the payload:
//!
//! ```text
//! magic(4) | version(u32 LE) | payload_len(u64 LE) | checksum(u64 LE) | trace_id(u64 LE) | payload
//! ```
//!
//! The checksum is XXH64 with seed 0 over the payload ([`xxh64`],
//! implemented here). It consumes the payload a 32-byte stripe at a
//! time in four independent 64-bit lanes, where version 2's FNV-1a-64
//! took one byte per dependent multiply — on the multi-megabyte
//! `Infer` frames of a Pubmed-sized graph that serial loop was about
//! half of the decode time. The header layout is unchanged from version 2;
//! only the checksum function (and therefore the version) differs, so
//! a version-2 peer is refused by version rather than by a checksum
//! mismatch.
//!
//! The trace id correlates a request across the gateway's telemetry
//! (flight recorder, slow-request log lines) and is echoed verbatim on
//! every reply frame; `0` means "unassigned" and makes the server mint
//! one. It lives in the header — not the payload — so it is readable
//! even on frames whose payload fails to parse, and it is deliberately
//! excluded from the checksum's coverage (the checksum guards the
//! payload only).
//!
//! The magic's first byte is `0x89` — not a valid leading byte of any
//! HTTP method — which is how the gateway sniffs the protocol from the
//! first byte of a fresh connection. The payload is
//! `kind(u8) | id(u64 LE) | body`; see [`Frame`] for the per-kind body
//! layouts. All floats travel as raw little-endian IEEE-754 bits, so
//! the binary protocol is bit-exact by construction (NaN payloads
//! included). The decoder bounds every length and count field by the
//! bytes the payload actually holds before it reserves anything, then
//! converts whole arrays at once.

use igcn_graph::SparseFeatures;
use igcn_linalg::DenseMatrix;

/// Frame magic: `0x89` (never a printable HTTP byte) then `IGW`.
pub const WIRE_MAGIC: [u8; 4] = [0x89, b'I', b'G', b'W'];

/// Wire format version. Bumped on any layout or checksum change; the
/// server rejects frames with a different version rather than guessing.
/// Version 2 added the header `trace_id` field (version 1 had a
/// 24-byte header ending at the checksum); version 3 replaced the
/// payload checksum FNV-1a-64 with [`xxh64`].
pub const WIRE_VERSION: u32 = 3;

/// Fixed header size: magic + version + payload_len + checksum +
/// trace_id.
pub const HEADER_LEN: usize = 4 + 4 + 8 + 8 + 8;

/// Hard cap on a frame payload (defence against corrupt or hostile
/// length fields).
pub const MAX_PAYLOAD: u64 = 256 << 20;

const KIND_INFER: u8 = 1;
const KIND_OK: u8 = 2;
const KIND_ERR: u8 = 3;
const KIND_SHED: u8 = 4;
const KIND_DEADLINE: u8 = 5;
const KIND_HEALTH_CHECK: u8 = 6;
const KIND_HEALTH: u8 = 7;

/// The gateway's live health, as reported on `GET /healthz` and the
/// binary [`Frame::Health`] reply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HealthState {
    /// Serving normally: admit away.
    Ready,
    /// Still serving, but impaired (wedged backend, dead shards, or
    /// sustained shed pressure) — a load balancer should prefer other
    /// replicas.
    Degraded,
    /// Draining: in-flight requests finish, new work is refused.
    Draining,
}

impl HealthState {
    /// The wire byte for this state.
    pub fn as_u8(self) -> u8 {
        match self {
            HealthState::Ready => 0,
            HealthState::Degraded => 1,
            HealthState::Draining => 2,
        }
    }

    /// Parses a wire byte.
    ///
    /// # Errors
    ///
    /// A human-readable message for unknown bytes.
    pub fn from_u8(v: u8) -> Result<HealthState, String> {
        match v {
            0 => Ok(HealthState::Ready),
            1 => Ok(HealthState::Degraded),
            2 => Ok(HealthState::Draining),
            other => Err(format!("unknown health state byte {other}")),
        }
    }

    /// The lowercase label used in the `/healthz` JSON body.
    pub fn label(self) -> &'static str {
        match self {
            HealthState::Ready => "ready",
            HealthState::Degraded => "degraded",
            HealthState::Draining => "draining",
        }
    }
}

/// One decoded frame of the binary protocol.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Client → server: run one inference.
    ///
    /// Body: `deadline_ms(u64, 0 = none) | rows(u64) | cols(u64) |
    /// nnz(u64) | row_ptr((rows+1)×u64) | col_idx(nnz×u32) |
    /// values(nnz×f32)`.
    Infer {
        /// Correlation id, echoed on the response frame.
        id: u64,
        /// Relative deadline budget in milliseconds (0 = no deadline).
        deadline_ms: u64,
        /// The request's sparse feature matrix.
        features: SparseFeatures,
    },
    /// Server → client: the inference output.
    ///
    /// Body: `rows(u64) | cols(u64) | data(rows·cols×f32)`.
    Ok {
        /// The request's correlation id.
        id: u64,
        /// Dense output, row-major.
        output: DenseMatrix,
    },
    /// Server → client: the request failed (backend or protocol error).
    ///
    /// Body: `len(u64) | utf8 message`.
    Err {
        /// The request's correlation id (0 when the failure predates a
        /// parsed id).
        id: u64,
        /// Human-readable failure description.
        message: String,
    },
    /// Server → client: load shed at admission — retry later.
    Shed {
        /// The request's correlation id.
        id: u64,
    },
    /// Server → client: the deadline expired before dispatch.
    Deadline {
        /// The request's correlation id.
        id: u64,
    },
    /// Client → server: report your health (the binary-protocol
    /// equivalent of `GET /healthz`). Body: empty.
    HealthCheck {
        /// Correlation id, echoed on the [`Frame::Health`] reply.
        id: u64,
    },
    /// Server → client: the gateway's live health.
    ///
    /// Body: `state(u8) | len(u64) | utf8 detail`.
    Health {
        /// The request's correlation id.
        id: u64,
        /// Ready / degraded / draining.
        state: HealthState,
        /// Human-readable explanation (why degraded, what is draining).
        detail: String,
    },
}

/// Outcome of [`decode`] on a byte buffer.
#[derive(Debug)]
pub enum Decoded {
    /// The buffer does not yet hold a complete frame.
    NeedMore,
    /// One complete frame: the frame, its header trace id (0 when the
    /// client sent none), and how many bytes it consumed.
    Frame(Frame, u64, usize),
    /// The stream is unrecoverable (bad magic/version/checksum/layout);
    /// the connection must be closed.
    Corrupt(String),
}

/// Encodes one frame with an unassigned (zero) trace id.
pub fn encode(frame: &Frame) -> Vec<u8> {
    encode_traced(frame, 0)
}

/// Encodes one frame, header included, stamping `trace_id` into the
/// header's trace field.
pub fn encode_traced(frame: &Frame, trace_id: u64) -> Vec<u8> {
    // The payload is written straight behind a header placeholder; the
    // length and checksum are filled in once it is complete.
    let mut out = vec![0u8; HEADER_LEN];
    match frame {
        Frame::Infer { id, deadline_ms, features } => {
            let (rows, nnz) = (features.num_rows(), features.nnz());
            out.reserve(1 + 8 * 5 + (rows + 1) * 8 + nnz * 8);
            out.push(KIND_INFER);
            put_u64(&mut out, *id);
            put_u64(&mut out, *deadline_ms);
            put_u64(&mut out, rows as u64);
            put_u64(&mut out, features.num_cols() as u64);
            put_u64(&mut out, nnz as u64);
            out.extend(features.row_ptr().iter().flat_map(|&p| (p as u64).to_le_bytes()));
            out.extend(features.col_idx().iter().flat_map(|c| c.to_le_bytes()));
            out.extend(features.values().iter().flat_map(|v| v.to_le_bytes()));
        }
        Frame::Ok { id, output } => {
            out.reserve(1 + 8 * 3 + output.as_slice().len() * 4);
            out.push(KIND_OK);
            put_u64(&mut out, *id);
            put_u64(&mut out, output.rows() as u64);
            put_u64(&mut out, output.cols() as u64);
            out.extend(output.as_slice().iter().flat_map(|v| v.to_le_bytes()));
        }
        Frame::Err { id, message } => {
            out.push(KIND_ERR);
            put_u64(&mut out, *id);
            put_u64(&mut out, message.len() as u64);
            out.extend_from_slice(message.as_bytes());
        }
        Frame::Shed { id } => {
            out.push(KIND_SHED);
            put_u64(&mut out, *id);
        }
        Frame::Deadline { id } => {
            out.push(KIND_DEADLINE);
            put_u64(&mut out, *id);
        }
        Frame::HealthCheck { id } => {
            out.push(KIND_HEALTH_CHECK);
            put_u64(&mut out, *id);
        }
        Frame::Health { id, state, detail } => {
            out.push(KIND_HEALTH);
            put_u64(&mut out, *id);
            out.push(state.as_u8());
            put_u64(&mut out, detail.len() as u64);
            out.extend_from_slice(detail.as_bytes());
        }
    }
    let (header, payload) = out.split_at_mut(HEADER_LEN);
    header[..4].copy_from_slice(&WIRE_MAGIC);
    header[4..8].copy_from_slice(&WIRE_VERSION.to_le_bytes());
    header[8..16].copy_from_slice(&(payload.len() as u64).to_le_bytes());
    header[16..24].copy_from_slice(&xxh64(payload).to_le_bytes());
    header[24..32].copy_from_slice(&trace_id.to_le_bytes());
    out
}

/// Tries to decode one frame from the front of `buf`.
pub fn decode(buf: &[u8]) -> Decoded {
    if buf.len() < HEADER_LEN {
        return Decoded::NeedMore;
    }
    if buf[..4] != WIRE_MAGIC {
        return Decoded::Corrupt("bad frame magic".to_string());
    }
    let version = u32::from_le_bytes(buf[4..8].try_into().expect("4 bytes"));
    if version != WIRE_VERSION {
        return Decoded::Corrupt(format!(
            "unsupported wire version {version} (this gateway speaks {WIRE_VERSION})"
        ));
    }
    let payload_len = u64::from_le_bytes(buf[8..16].try_into().expect("8 bytes"));
    if payload_len > MAX_PAYLOAD {
        return Decoded::Corrupt(format!(
            "frame payload of {payload_len} bytes exceeds the {MAX_PAYLOAD}-byte cap"
        ));
    }
    let checksum = u64::from_le_bytes(buf[16..24].try_into().expect("8 bytes"));
    let trace_id = u64::from_le_bytes(buf[24..32].try_into().expect("8 bytes"));
    let total = HEADER_LEN + payload_len as usize;
    if buf.len() < total {
        return Decoded::NeedMore;
    }
    let payload = &buf[HEADER_LEN..total];
    if xxh64(payload) != checksum {
        return Decoded::Corrupt("frame checksum mismatch".to_string());
    }
    match decode_payload(payload) {
        Ok(frame) => Decoded::Frame(frame, trace_id, total),
        Err(msg) => Decoded::Corrupt(msg),
    }
}

const PRIME64_1: u64 = 0x9E37_79B1_85EB_CA87;
const PRIME64_2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const PRIME64_3: u64 = 0x1656_67B1_9E37_79F9;
const PRIME64_4: u64 = 0x85EB_CA77_C2B2_AE63;
const PRIME64_5: u64 = 0x27D4_EB2F_1656_67C5;

fn xxh64_round(acc: u64, lane: u64) -> u64 {
    acc.wrapping_add(lane.wrapping_mul(PRIME64_2)).rotate_left(31).wrapping_mul(PRIME64_1)
}

fn xxh64_merge(hash: u64, acc: u64) -> u64 {
    (hash ^ xxh64_round(0, acc)).wrapping_mul(PRIME64_1).wrapping_add(PRIME64_4)
}

fn le_u64(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes[..8].try_into().expect("8 bytes"))
}

/// XXH64 of `data` with seed 0 — the payload checksum of wire version 3
/// (the reference algorithm of the xxHash specification: four lanes
/// over 32-byte stripes, then the 8-, 4- and 1-byte tail, then the
/// avalanche).
pub fn xxh64(data: &[u8]) -> u64 {
    let mut stripes = data.chunks_exact(32);
    let mut hash = if data.len() >= 32 {
        let mut acc =
            [PRIME64_1.wrapping_add(PRIME64_2), PRIME64_2, 0, 0u64.wrapping_sub(PRIME64_1)];
        for stripe in &mut stripes {
            for (lane, word) in acc.iter_mut().zip(stripe.chunks_exact(8)) {
                *lane = xxh64_round(*lane, le_u64(word));
            }
        }
        let mut hash = acc[0]
            .rotate_left(1)
            .wrapping_add(acc[1].rotate_left(7))
            .wrapping_add(acc[2].rotate_left(12))
            .wrapping_add(acc[3].rotate_left(18));
        for lane in acc {
            hash = xxh64_merge(hash, lane);
        }
        hash
    } else {
        PRIME64_5
    };
    hash = hash.wrapping_add(data.len() as u64);
    let mut words = stripes.remainder().chunks_exact(8);
    for word in &mut words {
        hash ^= xxh64_round(0, le_u64(word));
        hash = hash.rotate_left(27).wrapping_mul(PRIME64_1).wrapping_add(PRIME64_4);
    }
    let mut tail = words.remainder();
    if tail.len() >= 4 {
        let half = u32::from_le_bytes(tail[..4].try_into().expect("4 bytes"));
        hash ^= u64::from(half).wrapping_mul(PRIME64_1);
        hash = hash.rotate_left(23).wrapping_mul(PRIME64_2).wrapping_add(PRIME64_3);
        tail = &tail[4..];
    }
    for &byte in tail {
        hash ^= u64::from(byte).wrapping_mul(PRIME64_5);
        hash = hash.rotate_left(11).wrapping_mul(PRIME64_1);
    }
    hash ^= hash >> 33;
    hash = hash.wrapping_mul(PRIME64_2);
    hash ^= hash >> 29;
    hash = hash.wrapping_mul(PRIME64_3);
    hash ^ (hash >> 32)
}

fn decode_payload(payload: &[u8]) -> Result<Frame, String> {
    let mut r = Reader { buf: payload, pos: 0 };
    let kind = r.u8()?;
    let id = r.u64()?;
    let frame = match kind {
        KIND_INFER => {
            let deadline_ms = r.u64()?;
            // rows drives (rows+1)×u64 row_ptr reads, nnz drives
            // nnz×u32 + nnz×f32 reads: both bounded by what the
            // payload actually holds before any reserve.
            let rows = r.count_field("rows", 8)?;
            let cols = r.dim_field("cols")?;
            let nnz = r.count_field("nnz", 8)?;
            let row_ptr = r
                .bytes((rows + 1) * 8)?
                .chunks_exact(8)
                .map(|b| checked_dim("row_ptr entry", le_u64(b)))
                .collect::<Result<Vec<usize>, String>>()?;
            let col_idx: Vec<u32> = r
                .bytes(nnz * 4)?
                .chunks_exact(4)
                .map(|b| u32::from_le_bytes(b.try_into().expect("4 bytes")))
                .collect();
            let values = f32s(r.bytes(nnz * 4)?);
            let features = SparseFeatures::from_raw_parts(rows, cols, row_ptr, col_idx, values)
                .map_err(|e| format!("invalid sparse features: {e}"))?;
            Frame::Infer { id, deadline_ms, features }
        }
        KIND_OK => {
            let rows = r.dim_field("rows")?;
            let cols = r.dim_field("cols")?;
            let n =
                rows.checked_mul(cols).ok_or_else(|| "output rows×cols overflows".to_string())?;
            if n > r.remaining() / 4 {
                return Err(format!(
                    "output of {rows}×{cols} f32s cannot fit the frame's remaining {} payload bytes",
                    r.remaining()
                ));
            }
            let data = f32s(r.bytes(n * 4)?);
            Frame::Ok { id, output: DenseMatrix::from_vec(rows, cols, data) }
        }
        KIND_ERR => {
            let len = r.count_field("message length", 1)?;
            let bytes = r.bytes(len)?;
            let message = std::str::from_utf8(bytes)
                .map_err(|_| "error message is not UTF-8".to_string())?
                .to_string();
            Frame::Err { id, message }
        }
        KIND_SHED => Frame::Shed { id },
        KIND_DEADLINE => Frame::Deadline { id },
        KIND_HEALTH_CHECK => Frame::HealthCheck { id },
        KIND_HEALTH => {
            let state = HealthState::from_u8(r.u8()?)?;
            let len = r.count_field("detail length", 1)?;
            let bytes = r.bytes(len)?;
            let detail = std::str::from_utf8(bytes)
                .map_err(|_| "health detail is not UTF-8".to_string())?
                .to_string();
            Frame::Health { id, state, detail }
        }
        other => return Err(format!("unknown frame kind {other}")),
    };
    if r.pos != payload.len() {
        return Err(format!(
            "frame payload has {} trailing bytes after kind {kind}",
            payload.len() - r.pos
        ));
    }
    Ok(frame)
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Little-endian f32s, converted as a whole array.
fn f32s(bytes: &[u8]) -> Vec<f32> {
    bytes.chunks_exact(4).map(|b| f32::from_le_bytes(b.try_into().expect("4 bytes"))).collect()
}

/// A u64 scalar (dimension or pointer) value that never drives an
/// allocation by itself: only sanity-capped so the `usize` conversion
/// and later arithmetic stay well-behaved.
fn checked_dim(what: &str, v: u64) -> Result<usize, String> {
    if v > MAX_PAYLOAD {
        return Err(format!("{what} of {v} is implausibly large"));
    }
    Ok(v as usize)
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn bytes(&mut self, n: usize) -> Result<&'a [u8], String> {
        if self.buf.len() - self.pos < n {
            return Err("frame payload truncated".to_string());
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    fn u8(&mut self) -> Result<u8, String> {
        Ok(self.bytes(1)?[0])
    }

    fn u64(&mut self) -> Result<u64, String> {
        Ok(le_u64(self.bytes(8)?))
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// A u64 scalar (dimension) field, sanity-capped by
    /// [`checked_dim`].
    fn dim_field(&mut self, what: &str) -> Result<usize, String> {
        checked_dim(what, self.u64()?)
    }

    /// A u64 element-count field whose elements occupy `elem_bytes`
    /// each: rejected unless the *remaining* payload can actually hold
    /// that many elements, so a hostile count in a tiny frame is
    /// refused before any `Vec` is reserved.
    fn count_field(&mut self, what: &str, elem_bytes: usize) -> Result<usize, String> {
        let v = self.u64()?;
        let remaining = self.remaining() as u64;
        if v > remaining / elem_bytes as u64 {
            return Err(format!(
                "{what} of {v} cannot fit the frame's remaining {remaining} payload bytes"
            ));
        }
        Ok(v as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use igcn_store::snapshot::fnv1a64;

    #[test]
    fn xxh64_matches_known_answers() {
        // Reference values of XXH64 with seed 0; the last input is long
        // enough to run the 32-byte stripe loop, the others exercise
        // the 1-, 4- and 8-byte tails.
        assert_eq!(xxh64(b""), 0xEF46_DB37_51D8_E999);
        assert_eq!(xxh64(b"a"), 0xD24E_C4F1_A98C_6E5B);
        assert_eq!(xxh64(b"abc"), 0x44BC_2CF5_AD77_0999);
        assert_eq!(xxh64(b"Nobody inspects the spammish repetition"), 0xFBCE_A83C_8A37_8BF1);
    }

    #[test]
    fn every_single_bit_flip_in_a_payload_fails_the_checksum() {
        let frame = Frame::Health {
            id: 0x0102_0304_0506_0708,
            state: HealthState::Degraded,
            detail: "one shard down".to_string(),
        };
        let bytes = encode(&frame);
        assert!(matches!(decode(&bytes), Decoded::Frame(..)));
        for bit in 0..(bytes.len() - HEADER_LEN) * 8 {
            let mut flipped = bytes.clone();
            flipped[HEADER_LEN + bit / 8] ^= 1 << (bit % 8);
            assert!(
                matches!(decode(&flipped), Decoded::Corrupt(msg) if msg.contains("checksum")),
                "flipping payload bit {bit} went unnoticed"
            );
        }
    }

    fn features() -> SparseFeatures {
        SparseFeatures::from_raw_parts(
            3,
            4,
            vec![0, 2, 2, 3],
            vec![0, 3, 1],
            vec![1.5, -0.25, f32::MIN_POSITIVE],
        )
        .unwrap()
    }

    #[test]
    fn all_frame_kinds_round_trip() {
        let frames = [
            Frame::Infer { id: u64::MAX, deadline_ms: 250, features: features() },
            Frame::Ok {
                id: 7,
                output: DenseMatrix::from_vec(2, 2, vec![0.1, -0.0, f32::NAN, 3.25]),
            },
            Frame::Err { id: 9, message: "backend error: späße".to_string() },
            Frame::Shed { id: 1 },
            Frame::Deadline { id: 2 },
            Frame::HealthCheck { id: 4 },
            Frame::Health {
                id: 4,
                state: HealthState::Degraded,
                detail: "2/3 shards down".to_string(),
            },
        ];
        for frame in &frames {
            let bytes = encode(frame);
            match decode(&bytes) {
                Decoded::Frame(decoded, trace, consumed) => {
                    assert_eq!(consumed, bytes.len());
                    assert_eq!(trace, 0, "plain encode stamps an unassigned trace id");
                    // NaN != NaN under PartialEq; compare bits instead.
                    match (&decoded, frame) {
                        (Frame::Ok { output: a, .. }, Frame::Ok { output: b, .. }) => {
                            let bits = |m: &DenseMatrix| {
                                m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>()
                            };
                            assert_eq!(bits(a), bits(b));
                        }
                        _ => assert_eq!(&decoded, frame),
                    }
                }
                other => panic!("expected a frame, got {other:?}"),
            }
        }
    }

    #[test]
    fn trace_id_rides_the_header_round_trip() {
        let frame = Frame::Infer { id: 11, deadline_ms: 0, features: features() };
        let bytes = encode_traced(&frame, 0xDEAD_BEEF_CAFE_F00D);
        match decode(&bytes) {
            Decoded::Frame(decoded, trace, consumed) => {
                assert_eq!(consumed, bytes.len());
                assert_eq!(trace, 0xDEAD_BEEF_CAFE_F00D);
                assert_eq!(decoded, frame);
            }
            other => panic!("expected a frame, got {other:?}"),
        }
        // The trace id is outside the checksum's coverage: restamping
        // it must not invalidate the frame.
        let mut restamped = bytes;
        restamped[24..32].copy_from_slice(&7u64.to_le_bytes());
        assert!(matches!(decode(&restamped), Decoded::Frame(_, 7, _)));
    }

    #[test]
    fn version_1_frames_are_cleanly_rejected() {
        // A byte-faithful version-1 frame: 24-byte header with no
        // trace field. The decoder must refuse it with a version
        // message — not misparse the payload's first 8 bytes as a
        // trace id.
        let mut payload = vec![KIND_SHED];
        payload.extend_from_slice(&3u64.to_le_bytes());
        let mut v1 = Vec::new();
        v1.extend_from_slice(&WIRE_MAGIC);
        v1.extend_from_slice(&1u32.to_le_bytes());
        v1.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        v1.extend_from_slice(&fnv1a64(&payload).to_le_bytes());
        v1.extend_from_slice(&payload);
        assert!(
            matches!(decode(&v1), Decoded::Corrupt(msg) if msg.contains("version 1")),
            "a v1 frame must be rejected by version, not misparsed"
        );
    }

    #[test]
    fn version_2_frames_are_cleanly_rejected() {
        // A byte-faithful version-2 frame: the same header layout with
        // an FNV-1a-64 payload checksum. The v3 decoder must refuse it
        // by version, not report a checksum mismatch.
        let mut payload = vec![KIND_SHED];
        payload.extend_from_slice(&3u64.to_le_bytes());
        let mut v2 = Vec::new();
        v2.extend_from_slice(&WIRE_MAGIC);
        v2.extend_from_slice(&2u32.to_le_bytes());
        v2.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        v2.extend_from_slice(&fnv1a64(&payload).to_le_bytes());
        v2.extend_from_slice(&0u64.to_le_bytes()); // trace id
        v2.extend_from_slice(&payload);
        assert!(
            matches!(decode(&v2), Decoded::Corrupt(msg) if msg.contains("unsupported wire version 2")),
            "a v2 frame must be rejected by version"
        );
    }

    #[test]
    fn partial_buffers_ask_for_more() {
        let bytes = encode(&Frame::Shed { id: 3 });
        for cut in 0..bytes.len() {
            assert!(matches!(decode(&bytes[..cut]), Decoded::NeedMore), "cut at {cut}");
        }
    }

    #[test]
    fn corruption_is_detected() {
        let mut bad_magic = encode(&Frame::Shed { id: 3 });
        bad_magic[0] = b'G'; // looks like the start of "GET ..."
        assert!(matches!(decode(&bad_magic), Decoded::Corrupt(_)));

        let mut bad_version = encode(&Frame::Shed { id: 3 });
        bad_version[4] = 0xFF;
        assert!(matches!(decode(&bad_version), Decoded::Corrupt(_)));

        let mut bad_payload = encode(&Frame::Err { id: 3, message: "x".to_string() });
        let last = bad_payload.len() - 1;
        bad_payload[last] ^= 0x01;
        assert!(
            matches!(decode(&bad_payload), Decoded::Corrupt(msg) if msg.contains("checksum")),
            "flipped payload bit must fail the checksum"
        );
    }

    /// Wraps a raw payload in a valid header (correct checksum), the
    /// way a hostile client would.
    fn raw_frame(payload: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&WIRE_MAGIC);
        out.extend_from_slice(&WIRE_VERSION.to_le_bytes());
        out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        out.extend_from_slice(&xxh64(payload).to_le_bytes());
        out.extend_from_slice(&0u64.to_le_bytes()); // trace id
        out.extend_from_slice(payload);
        out
    }

    #[test]
    fn hostile_length_fields_are_rejected_before_allocation() {
        let mut huge = encode(&Frame::Shed { id: 3 });
        huge[8..16].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(matches!(decode(&huge), Decoded::Corrupt(msg) if msg.contains("cap")));
    }

    #[test]
    fn hostile_count_fields_are_rejected_before_allocation() {
        // A tiny valid-checksum Ok frame claiming a 2^28×2^28 output:
        // each dimension passes the MAX_PAYLOAD scalar cap, but the
        // product must be refused against the (empty) remaining payload
        // before any Vec is reserved.
        let mut ok = vec![KIND_OK];
        ok.extend_from_slice(&1u64.to_le_bytes()); // id
        ok.extend_from_slice(&(1u64 << 28).to_le_bytes()); // rows
        ok.extend_from_slice(&(1u64 << 28).to_le_bytes()); // cols
        assert!(
            matches!(decode(&raw_frame(&ok)), Decoded::Corrupt(msg) if msg.contains("cannot fit")),
            "hostile Ok dimensions must be refused"
        );

        // An Infer frame claiming huge rows / nnz with no data behind
        // them: the counts must be bounded by the remaining bytes.
        for (rows, nnz) in [(1u64 << 28, 0u64), (0, 1 << 28)] {
            let mut infer = vec![KIND_INFER];
            infer.extend_from_slice(&1u64.to_le_bytes()); // id
            infer.extend_from_slice(&0u64.to_le_bytes()); // deadline
            infer.extend_from_slice(&rows.to_le_bytes());
            infer.extend_from_slice(&4u64.to_le_bytes()); // cols
            infer.extend_from_slice(&nnz.to_le_bytes());
            assert!(
                matches!(decode(&raw_frame(&infer)), Decoded::Corrupt(msg) if msg.contains("cannot fit")),
                "hostile Infer counts (rows {rows}, nnz {nnz}) must be refused"
            );
        }

        // An Err frame whose message length overruns the payload.
        let mut err = vec![KIND_ERR];
        err.extend_from_slice(&1u64.to_le_bytes()); // id
        err.extend_from_slice(&(1u64 << 20).to_le_bytes()); // message len
        err.push(b'x');
        assert!(matches!(
            decode(&raw_frame(&err)),
            Decoded::Corrupt(msg) if msg.contains("cannot fit")
        ));
    }

    #[test]
    fn trailing_payload_bytes_are_an_error() {
        let mut payload = vec![KIND_SHED];
        payload.extend_from_slice(&3u64.to_le_bytes());
        payload.push(0xAB); // stray byte
        assert!(matches!(
            decode(&raw_frame(&payload)),
            Decoded::Corrupt(msg) if msg.contains("trailing")
        ));
    }
}
