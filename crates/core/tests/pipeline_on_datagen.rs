//! End-to-end pipeline tests on the synthetic paper datasets (small scale).

use nexus_core::{ExplainRequest, Explanation, Nexus, NexusOptions, RunControl};
use nexus_datagen::{load, queries_for, Dataset, DatasetKind, Scale};
use nexus_query::AggregateQuery;

/// A plain pipeline run over the dataset's knowledge graph.
fn run(nexus: &Nexus, d: &Dataset, q: &AggregateQuery) -> nexus_core::Result<Explanation> {
    let request = ExplainRequest::new()
        .table(&d.table)
        .knowledge_graph(&d.kg)
        .extraction_columns(d.extraction_columns.iter().cloned())
        .query(q);
    nexus
        .run_controlled(&request, RunControl::none())
        .map(|(e, _)| e)
}

fn explain(
    kind: DatasetKind,
    query_idx: usize,
) -> (nexus_core::Explanation, &'static [&'static str]) {
    let d = load(kind, Scale::Small);
    let q = queries_for(kind)[query_idx];
    let parsed = q.parsed();
    let nexus = Nexus::default();
    let e = run(&nexus, &d, &parsed).expect("pipeline runs");
    (e, q.ground_truth)
}

#[test]
fn so_q1_recovers_planted_confounders() {
    let (e, gt) = explain(DatasetKind::So, 0);
    assert!(e.initial_cmi > 0.3, "baseline {}", e.initial_cmi);
    assert!(
        e.explained_fraction() > 0.5,
        "explained {} of {}",
        e.explained_fraction(),
        e.initial_cmi
    );
    // At least one selected attribute is a planted ground-truth confounder.
    let names = e.names();
    assert!(
        names.iter().any(|n| gt.contains(n)),
        "selected {names:?}, expected overlap with {gt:?}"
    );
    // And at least one attribute came from the KG, the paper's headline.
    assert!(
        e.attributes
            .iter()
            .any(|a| matches!(a.source, nexus_core::CandidateSource::Extracted { .. })),
        "{names:?}"
    );
}

#[test]
fn so_q3_europe_prefers_within_europe_signal() {
    let (e, gt) = explain(DatasetKind::So, 2);
    let names = e.names();
    assert!(
        names.iter().any(|n| gt.contains(n)),
        "selected {names:?}, expected overlap with {gt:?}"
    );
    // HDI is nearly constant inside Europe: it must not be the explanation.
    assert!(
        !names.contains(&"Country::hdi"),
        "hdi cannot explain the within-Europe differences: {names:?}"
    );
}

#[test]
fn covid_q1_finds_development_attributes() {
    let (e, gt) = explain(DatasetKind::Covid, 0);
    let names = e.names();
    assert!(
        names.iter().any(|n| gt.contains(n)),
        "selected {names:?}, expected overlap with {gt:?}"
    );
}

#[test]
fn forbes_q3_athletes_find_performance_attributes() {
    let (e, gt) = explain(DatasetKind::Forbes, 2);
    let names = e.names();
    assert!(
        names.iter().any(|n| gt.contains(n)),
        "selected {names:?}, expected overlap with {gt:?}"
    );
}

#[test]
fn flights_q5_airline_ops() {
    let (e, gt) = explain(DatasetKind::Flights, 4);
    let names = e.names();
    assert!(
        names.iter().any(|n| gt.contains(n)),
        "selected {names:?}, expected overlap with {gt:?}"
    );
}

#[test]
fn pruning_reduces_candidates_substantially() {
    let d = load(DatasetKind::So, Scale::Small);
    let q = queries_for(DatasetKind::So)[0].parsed();
    let e = run(&Nexus::default(), &d, &q).unwrap();
    // Table 1: ~461 extractable attributes for SO.
    assert!(
        e.stats.n_candidates_initial > 350,
        "initial {}",
        e.stats.n_candidates_initial
    );
    // The appendix reports ~41% of SO attributes dropped offline.
    let dropped = e.stats.n_candidates_initial - e.stats.n_after_online;
    assert!(
        dropped as f64 / e.stats.n_candidates_initial as f64 > 0.2,
        "only {dropped} of {} pruned",
        e.stats.n_candidates_initial
    );
}

#[test]
fn no_pruning_matches_quality() {
    let d = load(DatasetKind::So, Scale::Small);
    let q = queries_for(DatasetKind::So)[0].parsed();
    let full = run(&Nexus::default(), &d, &q).unwrap();
    let unpruned = run(
        &Nexus::new(NexusOptions::default().without_pruning()),
        &d,
        &q,
    )
    .unwrap();
    // MESA- and MESA should explain comparably well (Section 5.1 finding).
    assert!(
        (full.explained_fraction() - unpruned.explained_fraction()).abs() < 0.3,
        "pruned {} vs unpruned {}",
        full.explained_fraction(),
        unpruned.explained_fraction()
    );
}
