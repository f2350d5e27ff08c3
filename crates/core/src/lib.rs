//! # nexus-core
//!
//! The core of NEXUS, a reproduction of SIGMOD 2023 *"On Explaining
//! Confounding Bias"*: given an aggregate SQL query whose result shows an
//! unexpected correlation between a grouping attribute `T` (exposure) and
//! an aggregated attribute `O` (outcome), find the set of confounding
//! attributes — mined from the input table *and* a knowledge graph — that
//! explains the correlation away (minimizes `I(O;T|E,C)`).
//!
//! The crate implements:
//!
//! * candidate assembly from base-table columns and multi-hop KG extraction
//!   ([`build_candidates`]),
//! * the contingency-table estimation [`Engine`] that scores hundreds of
//!   candidates without rescanning millions of rows,
//! * offline/online pruning ([`prune_offline`], [`prune_online`]),
//! * selection-bias detection + entity-level IPW weighting,
//! * the **MCIMR** greedy selection algorithm with the responsibility-test
//!   stopping criterion ([`mcimr()`]),
//! * degree-of-responsibility scores ([`responsibilities`]),
//! * top-k unexplained subgroup discovery ([`unexplained_subgroups`]), and
//! * the end-to-end [`Nexus`] pipeline facade.
//!
//! ## Example
//!
//! ```
//! use nexus_core::{ExplainRequest, Nexus, NexusOptions, RunControl};
//! use nexus_kg::KnowledgeGraph;
//! use nexus_query::parse;
//! use nexus_table::{Column, Table};
//!
//! // Salary is driven by each country's development level, which lives in
//! // the KG, not in the queried table.
//! let mut kg = KnowledgeGraph::new();
//! let mut countries = Vec::new();
//! let mut salaries = Vec::new();
//! for c in 0..9 {
//!     let name = format!("C{c}");
//!     let id = kg.add_entity(name.clone(), "Country");
//!     kg.set_literal(id, "hdi", (c % 3) as f64);
//!     for i in 0..30 {
//!         countries.push(name.clone());
//!         salaries.push(10.0 * (c % 3) as f64 + (i % 2) as f64 * 0.1);
//!     }
//! }
//! let table = Table::new(vec![
//!     ("Country", Column::from_strs(&countries)),
//!     ("Salary", Column::from_f64(salaries)),
//! ]).unwrap();
//!
//! let query = parse("SELECT Country, avg(Salary) FROM t GROUP BY Country").unwrap();
//! let request = ExplainRequest::new()
//!     .table(&table)
//!     .knowledge_graph(&kg)
//!     .extraction_column("Country")
//!     .query(&query);
//! let (explanation, _) = Nexus::default()
//!     .run_controlled(&request, RunControl::none())
//!     .unwrap();
//! assert!(explanation.names().contains(&"Country::hdi"));
//! assert!(explanation.explained_fraction() > 0.9);
//! # let _ = NexusOptions::default();
//! ```

#![warn(missing_docs)]

pub mod candidate;
pub mod control;
pub mod engine;
pub mod error;
pub mod mcimr;
pub mod memo;
pub mod options;
pub mod pipeline;
pub mod prune;
pub mod responsibility;
pub mod shard;
pub mod subgroups;

pub use candidate::{
    assemble_candidates, build_candidates, extract_column, BiasSummary, Candidate, CandidateRepr,
    CandidateSet, CandidateSource, ColumnExtraction, MISSING_CODE,
};
pub use control::{ProgressEvent, RunControl};
pub use engine::{CandStats, Engine};
pub use error::{CoreError, Result};
pub use mcimr::{mcimr, mcimr_controlled, IterationTrace, McimrResult};
pub use memo::{
    codes_fingerprint, set_fingerprint, weights_fingerprint, MemoHandle, MemoKey, MemoStore,
};
pub use nexus_info::{KernelSnapshot, MemoKind};
pub use nexus_runtime::{Parallelism, PoolMetrics, ThreadPool};
pub use options::{NexusOptions, NexusOptionsBuilder};
pub use pipeline::{
    apply_selection_bias_weights, ExplainRequest, Explanation, Nexus, PipelineStats, RunArtifacts,
    SelectedAttribute,
};
pub use prune::{prune_offline, prune_online, PruneReason, PruneReport};
pub use responsibility::responsibilities;
pub use subgroups::{unexplained_subgroups, Subgroup, SubgroupOptions};
