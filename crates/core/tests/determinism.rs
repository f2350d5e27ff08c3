//! Thread-count determinism: the parallel scoring paths reduce by candidate
//! index, so a pipeline run must produce a **bit-identical** explanation at
//! any pool width. These tests run the full pipeline on the synthetic paper
//! datasets at `threads ∈ {1, 2, 8}` and compare names, CMIs, and
//! responsibilities to full f64 precision.

use nexus_core::{ExplainRequest, Explanation, Nexus, NexusOptions, Parallelism, RunControl};
use nexus_datagen::{load, queries_for, DatasetKind, Scale};

fn run_at(kind: DatasetKind, query_idx: usize, parallelism: Parallelism) -> Explanation {
    let d = load(kind, Scale::Small);
    let q = queries_for(kind)[query_idx].parsed();
    let request = ExplainRequest::new()
        .table(&d.table)
        .knowledge_graph(&d.kg)
        .extraction_columns(d.extraction_columns.iter().cloned())
        .query(&q);
    let options = NexusOptions::builder()
        .parallelism(parallelism)
        .build()
        .expect("valid options");
    Nexus::new(options)
        .run_controlled(&request, RunControl::none())
        .expect("pipeline runs")
        .0
}

/// Asserts bit-identical selection and scores (not wall-clock stats).
fn assert_identical(a: &Explanation, b: &Explanation, what: &str) {
    assert_eq!(a.names(), b.names(), "{what}: selected attributes differ");
    assert_eq!(
        a.initial_cmi.to_bits(),
        b.initial_cmi.to_bits(),
        "{what}: initial CMI differs ({} vs {})",
        a.initial_cmi,
        b.initial_cmi
    );
    assert_eq!(
        a.explained_cmi.to_bits(),
        b.explained_cmi.to_bits(),
        "{what}: explained CMI differs ({} vs {})",
        a.explained_cmi,
        b.explained_cmi
    );
    for (x, y) in a.attributes.iter().zip(&b.attributes) {
        assert_eq!(
            x.responsibility.to_bits(),
            y.responsibility.to_bits(),
            "{what}: responsibility differs for {}",
            x.name
        );
        assert_eq!(
            x.weighted, y.weighted,
            "{what}: IPW flag differs for {}",
            x.name
        );
    }
    assert_eq!(
        a.stopped_by_responsibility, b.stopped_by_responsibility,
        "{what}: stopping reason differs"
    );
}

fn check(kind: DatasetKind, query_idx: usize, what: &str) {
    let serial = run_at(kind, query_idx, Parallelism::Serial);
    for threads in [2usize, 8] {
        let parallel = run_at(kind, query_idx, Parallelism::Fixed(threads));
        assert_identical(&serial, &parallel, &format!("{what} @ {threads} threads"));
        assert_eq!(
            parallel.stats.threads, threads,
            "{what}: stats should report the pool width"
        );
    }
}

#[test]
fn covid_explanation_is_thread_count_invariant() {
    check(DatasetKind::Covid, 0, "Covid q0");
}

#[test]
fn so_explanation_is_thread_count_invariant() {
    // SO exercises the selection-bias path (per-candidate missingness MI
    // and logistic weight fitting) on top of candidate scoring.
    check(DatasetKind::So, 0, "SO q1");
}
