//! Dense/sparse linear algebra for the I-GCN reproduction.
//!
//! GCN layers compute `σ(Ã · X · W)` (Equation 1 of the paper). Both
//! multiplications are sparse-dense matrix products (SpMM), and §2.2 of the
//! paper maps the PULL/PUSH graph-aggregation styles onto the four classic
//! SpMM dataflows. This crate implements all of them with exact operation
//! accounting so Table 1 and the baseline accelerator models can be
//! regenerated:
//!
//! * [`spmm::pull_row_wise`] — PULL, row-wise product (HyGCN-style);
//! * [`spmm::pull_inner_product`] — PULL, inner product;
//! * [`spmm::push_column_wise`] — PUSH, column-wise product (AWB-GCN-style);
//! * [`spmm::push_outer_product`] — PUSH, outer product (I-GCN inter-hub
//!   task order).
//!
//! It also provides [`DenseMatrix`], [`CsrMatrix`], and the GCN symmetric
//! normalisation [`norm::GcnNormalization`] in the *factored* form
//! `ã_ij = s_out(i) · s_in(j)` that islandization relies on for lossless
//! shared-neighbor reuse (see DESIGN.md §3).

//! # Kernels & SIMD
//!
//! The hot loops live in [`kernels`] ([`kernels::gather_axpy_f32`],
//! [`kernels::axpy_f32`], [`kernels::scale_f32`],
//! [`kernels::gemm_blocked_into`]) on top of the
//! vendored `igcn-simd` backend layer (scalar / AVX2 / NEON, dispatched
//! once per call). Every kernel vectorizes across *feature columns* —
//! independent output elements — and uses non-fused multiply + add, so
//! per-element accumulation order is exactly the scalar loops' order and
//! results are **bit-identical** on every backend
//! (`igcn_simd::force_scalar` flips the paths without changing a bit).
//! [`quant`] adds the int8 feature path: per-column symmetric scales,
//! f32 accumulation, documented `scale/2` error bound.

pub mod dense;
pub mod kernels;
pub mod norm;
pub mod ops;
pub mod quant;
pub mod sparse;
pub mod spmm;

pub use dense::DenseMatrix;
pub use norm::GcnNormalization;
pub use ops::OpCounter;
pub use quant::QuantizedFeatures;
pub use sparse::CsrMatrix;
