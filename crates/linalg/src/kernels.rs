//! Column-vectorized hot kernels over the vendored SIMD layer.
//!
//! Everything here preserves the workspace's **bit-identity contract**:
//! per output element, floating-point operations happen in exactly the
//! order the plain scalar loops used — kernels vectorize across
//! *independent* elements (feature columns), never by re-associating a
//! reduction, and every multiply-accumulate is non-fused (see
//! `igcn_simd`'s crate docs). Flipping `igcn_simd::force_scalar` or
//! moving between CPUs changes speed, never bits.

use igcn_simd as simd;

/// `acc[i] += alpha * x[i]` over `min(acc.len(), x.len())` elements —
/// the row-aggregation primitive of the island hot path, dispatched
/// once per call to the active SIMD backend.
#[inline]
pub fn axpy_f32(acc: &mut [f32], x: &[f32], alpha: f32) {
    simd::axpy(acc, x, alpha);
}

/// Whole-row gather-accumulate `out[j] += Σ_i alpha[i] · rows[idx[i]·stride + j]`
/// over `j < out.len()`: one call per output row of the island hot path
/// (sparse and dense combination, the scan plan's aggregation). Terms
/// accumulate in index order with non-fused multiply + add, so the
/// result equals one [`axpy_f32`] per term bit for bit, while the
/// accumulators stay in registers across the terms.
///
/// # Panics
///
/// Panics if `idx` and `alpha` differ in length, `out` is wider than
/// `stride`, or a gathered row runs past the end of `rows`.
#[inline]
pub fn gather_axpy_f32(out: &mut [f32], rows: &[f32], stride: usize, idx: &[u32], alpha: &[f32]) {
    simd::gather_axpy(out, rows, stride, idx, alpha);
}

/// `xs[i] *= s` for every element (the normalisation-scale application),
/// dispatched once per call to the active SIMD backend.
#[inline]
pub fn scale_f32(xs: &mut [f32], s: f32) {
    simd::scale(xs, s);
}

/// k-dimension cache-block size of [`gemm_blocked_into`]: one block of
/// B (`GEMM_KC × n` floats) stays resident while a sweep of A row tiles
/// streams past. 256 rows × 32 columns × 4 bytes = 32 KiB, sized for a
/// typical L1d.
pub const GEMM_KC: usize = 256;

/// `out += a × b` for row-major `a` (`m × k`), `b` (`k × n`) and `out`
/// (`m × n`), cache-blocked over `k` ([`GEMM_KC`]) with
/// [`igcn_simd::GEMM_MR`]-row register tiles.
///
/// Per output element the products accumulate in ascending `k` order
/// with non-fused multiply + add — **bit-identical** to the textbook
/// triple loop `for r { for k { for j { out += a*b } } }` at every
/// shape.
///
/// # Panics
///
/// Panics if the slice lengths do not match the stated shapes.
pub fn gemm_blocked_acc(a: &[f32], m: usize, k: usize, b: &[f32], n: usize, out: &mut [f32]) {
    assert_eq!(a.len(), m * k, "A buffer does not match {m}x{k}");
    assert_eq!(b.len(), k * n, "B buffer does not match {k}x{n}");
    assert_eq!(out.len(), m * n, "out buffer does not match {m}x{n}");
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    for k0 in (0..k).step_by(GEMM_KC) {
        let kc = GEMM_KC.min(k - k0);
        let b_block = &b[k0 * n..(k0 + kc) * n];
        for r0 in (0..m).step_by(simd::GEMM_MR) {
            let mr = simd::GEMM_MR.min(m - r0);
            simd::gemm_panel(
                &a[r0 * k + k0..],
                k,
                b_block,
                n,
                &mut out[r0 * n..(r0 + mr) * n],
                mr,
                kc,
            );
        }
    }
}

/// `out = a × b`: zeroes `out`, then [`gemm_blocked_acc`]. This is the
/// allocation-free GEMM entry point — callers own `out` (typically a
/// reused scratch slab) and no buffer is allocated here.
///
/// # Panics
///
/// Panics if the slice lengths do not match the stated shapes.
pub fn gemm_blocked_into(a: &[f32], m: usize, k: usize, b: &[f32], n: usize, out: &mut [f32]) {
    assert_eq!(out.len(), m * n, "out buffer does not match {m}x{n}");
    out.fill(0.0);
    gemm_blocked_acc(a, m, k, b, n, out);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The reference semantics: the branch-free textbook triple loop.
    fn naive(a: &[f32], m: usize, k: usize, b: &[f32], n: usize) -> Vec<f32> {
        let mut out = vec![0.0f32; m * n];
        for r in 0..m {
            for kk in 0..k {
                let av = a[r * k + kk];
                for j in 0..n {
                    out[r * n + j] += av * b[kk * n + j];
                }
            }
        }
        out
    }

    fn pseudo(seed: u64, len: usize) -> Vec<f32> {
        let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        (0..len)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                // Mix in exact zeros so the sparse-aware comparison paths
                // are exercised too.
                if s.is_multiple_of(5) {
                    0.0
                } else {
                    ((s >> 11) as f32 / (1u64 << 53) as f32) * 4.0 - 2.0
                }
            })
            .collect()
    }

    #[test]
    fn blocked_gemm_matches_naive_bitwise_over_ragged_shapes() {
        // Deterministic sweep standing in for a proptest: ragged shapes
        // including 0-column, 0-row, width-not-multiple-of-8, single
        // element, k larger than one cache block, and tile remainders.
        let shapes: &[(usize, usize, usize)] = &[
            (1, 1, 1),
            (0, 3, 4),
            (3, 0, 4),
            (3, 4, 0),
            (4, 8, 8),
            (5, 7, 9),
            (4, 300, 8), // k spans two GEMM_KC blocks
            (13, 260, 19),
            (2, 17, 31),
            (9, 3, 33),
            (6, 512, 5),
        ];
        for (i, &(m, k, n)) in shapes.iter().enumerate() {
            let a = pseudo(100 + i as u64, m * k);
            let b = pseudo(200 + i as u64, k * n);
            let expect = naive(&a, m, k, &b, n);
            let mut got = vec![f32::NAN; m * n]; // gemm_blocked_into must overwrite
            gemm_blocked_into(&a, m, k, &b, n, &mut got);
            for e in 0..m * n {
                assert_eq!(got[e].to_bits(), expect[e].to_bits(), "shape {m}x{k}x{n} element {e}");
            }
            // The accumulating form must continue bit-exactly from a
            // non-zero starting value.
            let mut acc = expect.clone();
            gemm_blocked_acc(&a, m, k, &b, n, &mut acc);
            let mut expect_acc = expect.clone();
            for r in 0..m {
                for kk in 0..k {
                    let av = a[r * k + kk];
                    for j in 0..n {
                        expect_acc[r * n + j] += av * b[kk * n + j];
                    }
                }
            }
            for e in 0..m * n {
                assert_eq!(acc[e].to_bits(), expect_acc[e].to_bits(), "acc element {e}");
            }
        }
    }

    #[test]
    fn blocked_gemm_identical_across_backends() {
        let (m, k, n) = (7, 33, 21);
        let a = pseudo(1, m * k);
        let b = pseudo(2, k * n);
        let mut native = vec![0.0f32; m * n];
        gemm_blocked_into(&a, m, k, &b, n, &mut native);
        igcn_simd::force_scalar(true);
        let mut scalar = vec![0.0f32; m * n];
        gemm_blocked_into(&a, m, k, &b, n, &mut scalar);
        igcn_simd::force_scalar(false);
        for e in 0..m * n {
            assert_eq!(native[e].to_bits(), scalar[e].to_bits(), "element {e}");
        }
    }

    #[test]
    fn axpy_and_scale_wrappers_match_plain_loops() {
        let x = pseudo(3, 37);
        let mut acc = pseudo(4, 37);
        let mut expect = acc.clone();
        axpy_f32(&mut acc, &x, -1.5);
        for (e, &v) in expect.iter_mut().zip(&x) {
            *e += -1.5 * v;
        }
        assert_eq!(acc, expect);
        scale_f32(&mut acc, 0.25);
        for e in &mut expect {
            *e *= 0.25;
        }
        assert_eq!(acc, expect);
    }

    #[test]
    fn gather_axpy_equals_one_axpy_per_term() {
        let rows = pseudo(5, 6 * 19);
        let (idx, alpha) = ([4u32, 0, 4, 5, 2], [0.5f32, -1.0, 1.0, 0.0, 3.0]);
        let mut got = pseudo(6, 19);
        let mut expect = got.clone();
        gather_axpy_f32(&mut got, &rows, 19, &idx, &alpha);
        for (&i, &a) in idx.iter().zip(&alpha) {
            axpy_f32(&mut expect, &rows[i as usize * 19..][..19], a);
        }
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&got), bits(&expect));
    }

    #[test]
    #[should_panic(expected = "does not match")]
    fn shape_mismatch_panics() {
        let mut out = vec![0.0f32; 4];
        gemm_blocked_into(&[1.0; 6], 2, 3, &[1.0; 5], 2, &mut out);
    }
}
