//! `dacc-linalg` — dense linear algebra for the dynamic accelerator cluster.
//!
//! A CPU BLAS/LAPACK subset (real arithmetic), GPU kernels registered on the
//! virtual device, and MAGMA-style hybrid CPU+GPU factorizations (QR and
//! Cholesky, single- and multi-GPU) driven through the middleware's
//! computation API — the workloads of the paper's Figures 9 and 10.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
// Numerical kernels index several arrays with one loop variable; iterator
// adaptors would obscure the LAPACK-style math.
#![allow(clippy::needless_range_loop)]

pub mod blas;
pub mod gpu;
pub mod hybrid;
pub mod lapack;
pub mod matrix;
