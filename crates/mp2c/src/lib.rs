//! `dacc-mp2c` — the MP2C molecular-dynamics / SRD mini-app (§V.C).
//!
//! A multi-particle-collision-dynamics fluid with geometric domain
//! decomposition over fabric ranks: ballistic streaming plus halo exchange
//! every step, and the SRD collision step offloaded to each rank's
//! accelerator (node-local GPU or network-attached accelerator) every 5th
//! step — the workload of the paper's Figure 11.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
// Numerical kernels index several arrays with one loop variable; iterator
// adaptors would obscure the LAPACK-style math.
#![allow(clippy::needless_range_loop)]

pub mod app;
pub mod md;
pub mod particles;
pub mod srd;
