//! # nexbench
//!
//! The NEXUS benchmark: three workloads driven through the program's
//! public API, end-to-end metrics with tracing off, and a separate
//! traced run that times each layer's public functions from here.
//! See `README.md` in this package for the workload definitions.

#![warn(missing_docs)]

pub mod digest;
pub mod explain;
pub mod references;
pub mod report;
pub mod serve;
pub mod spans;
pub mod stats;
