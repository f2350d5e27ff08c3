//! # NEXUS
//!
//! A from-scratch Rust reproduction of SIGMOD 2023's **"On Explaining
//! Confounding Bias"** (the MESA/NEXUS system): given an aggregate SQL
//! query whose result shows a surprising correlation, find the set of
//! confounding attributes — mined from the input table *and* an external
//! knowledge graph — that explains the correlation away.
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`table`] — columnar dataframe substrate (typed columns, nulls, CSV,
//!   joins, group-by, binning);
//! * [`query`] — the supported SQL subset (aggregate group-by with WHERE
//!   and JOIN);
//! * [`info`] — information-theoretic estimators (entropy/MI/CMI, weighted,
//!   Miller–Madow corrected, independence tests);
//! * [`kg`] — knowledge-graph store, entity linking, multi-hop extraction;
//! * [`missing`] — selection-bias detection, IPW, imputation;
//! * [`core`] — the MCIMR algorithm, pruning, responsibility, subgroups,
//!   and the end-to-end [`Nexus`] pipeline;
//! * [`baselines`] — Brute-Force, Top-K, OLS, HypDB-like, CajaDE-like;
//! * [`lake`] — data-lake knowledge source (joinability discovery +
//!   extraction from related tables);
//! * [`datagen`] — synthetic paper datasets with planted ground truth;
//! * [`eval`] — the experiment harness regenerating every table and figure;
//! * [`serve`] — the resident explanation server (NEXUSRPC binary
//!   protocol, fingerprint-keyed result cache, Unix/TCP endpoints,
//!   multi-dataset registry);
//! * [`store`] — NXCOL v1, the deterministic on-disk columnar store
//!   behind `nexus-cli pack` and instant server restarts;
//! * [`telemetry`] — the unified metrics registry (named counters, gauges,
//!   log₂ histograms; sorted iteration) and per-request span tracing behind
//!   `nexus-cli metrics`/`trace`.
//!
//! ## Quickstart
//!
//! ```
//! use nexus::{parse, ExplainRequest, Nexus, NexusOptions, RunControl};
//! use nexus::kg::KnowledgeGraph;
//! use nexus::table::{Column, Table};
//!
//! let mut kg = KnowledgeGraph::new();
//! let mut country_col = Vec::new();
//! let mut salary_col = Vec::new();
//! for c in 0..9 {
//!     let name = format!("C{c}");
//!     let id = kg.add_entity(name.clone(), "Country");
//!     kg.set_literal(id, "hdi", (c % 3) as f64);
//!     for i in 0..30 {
//!         country_col.push(name.clone());
//!         salary_col.push(10.0 * (c % 3) as f64 + (i % 2) as f64 * 0.1);
//!     }
//! }
//! let table = Table::new(vec![
//!     ("Country", Column::from_strs(&country_col)),
//!     ("Salary", Column::from_f64(salary_col)),
//! ]).unwrap();
//!
//! let query = parse("SELECT Country, avg(Salary) FROM t GROUP BY Country").unwrap();
//! let request = ExplainRequest::new()
//!     .table(&table)
//!     .knowledge_graph(&kg)
//!     .extraction_column("Country")
//!     .query(&query);
//! let options = NexusOptions::builder().threads(2).build().unwrap();
//! let (explanation, _) = Nexus::new(options)
//!     .run_controlled(&request, RunControl::none())
//!     .unwrap();
//! assert!(explanation.names().contains(&"Country::hdi"));
//! ```

#![warn(missing_docs)]

pub use nexus_baselines as baselines;
pub use nexus_core as core;
pub use nexus_datagen as datagen;
pub use nexus_eval as eval;
pub use nexus_info as info;
pub use nexus_kg as kg;
pub use nexus_lake as lake;
pub use nexus_missing as missing;
pub use nexus_query as query;
pub use nexus_serve as serve;
pub use nexus_store as store;
pub use nexus_table as table;
pub use nexus_telemetry as telemetry;

pub use nexus_core::{
    ExplainRequest, Explanation, Nexus, NexusOptions, NexusOptionsBuilder, Parallelism, RunControl,
};
pub use nexus_query::parse;
