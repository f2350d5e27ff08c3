//! # nexus-info
//!
//! Information-theoretic estimators for the NEXUS system: plug-in entropy,
//! mutual information, and conditional mutual information over discretized
//! columns, with optional row masks (query contexts) and inverse-probability
//! weights, plus approximate-FD tests and a stratified-permutation
//! conditional-independence test.
//!
//! This crate replaces the `pyitlib` dependency of the original paper.
//!
//! All quantities are in **bits**. Estimation is over "complete cases": rows
//! inside the mask that are valid (non-null) in every participating
//! variable, matching Section 3.2 of the paper.
//!
//! ## Example
//!
//! ```
//! use nexus_table::Column;
//! use nexus_info::{mutual_information, cmi};
//!
//! let t = Column::from_strs(&["a", "a", "b", "b"]).category_codes().unwrap();
//! let o = Column::from_strs(&["hi", "hi", "lo", "lo"]).category_codes().unwrap();
//! let z = Column::from_strs(&["x", "x", "y", "y"]).category_codes().unwrap();
//! assert!(mutual_information(&t, &o) > 0.9);       // strong correlation
//! assert!(cmi(&t, &o, &[&z]) < 1e-9);              // explained away by z
//! ```

#![warn(missing_docs)]

pub mod counter;
pub mod estimator;
pub mod fd;
pub mod independence;
pub mod kernel;
pub mod marginal;

pub use counter::{
    dense_for_scan, entropy_from_counts, entropy_mm, scan_packed, Accumulator, JointCounts,
};
pub use estimator::{cmi, entropy, mutual_information, InfoContext};
pub use fd::{approx_fd, logically_dependent, DEFAULT_FD_EPSILON};
pub use independence::{ci_test, ci_test_default, CiTestOptions, CiTestResult};
pub use kernel::{KernelCounters, KernelSnapshot, MemoKind, ScanWidth, MEMO_KINDS};
pub use marginal::OrderedMarginal;
