//! The traced explain path must measure the same program as the plain
//! one: stage by stage, it reproduces `Nexus::run_controlled` bit for
//! bit, and it records one span per stage under the request span.

use nexbench::explain::{bench_sql, options, run_plain, run_staged};
use nexbench::spans::Recorder;
use nexus_datagen::flights::{self, FlightsConfig};

const STAGES: &[&str] = &[
    "candidate.build",
    "prune.offline",
    "engine.new",
    "prune.online",
    "bias",
    "mcimr",
    "responsibility",
];

#[test]
fn staged_run_reproduces_run_controlled() {
    let ds = flights::generate(&FlightsConfig {
        n_rows: 2_000,
        n_cities: 30,
        ..FlightsConfig::default()
    });
    let mut rec = Recorder::new();
    let mut request = 0;
    // FL-Q3 selects almost nothing at this size; these two explain a
    // real correlation.
    for id in ["FL-Q5", "FL-Q2"] {
        let query = nexus_query::parse(bench_sql(id)).unwrap();
        for threads in [1, 2] {
            let opts = options(threads);
            let plain = run_plain(&ds, &query, &opts).unwrap();
            request += 1;
            let staged = run_staged(
                &mut rec,
                request,
                &ds.table,
                &ds.kg,
                &ds.extraction_columns,
                &query,
                &opts,
            )
            .unwrap();
            assert_eq!(staged.digest, plain, "{id} at {threads} thread(s)");

            let spans = rec.spans();
            let children: Vec<(&str, u64)> = spans
                .iter()
                .filter(|s| s.parent == Some(staged.root))
                .map(|s| (s.name, s.request))
                .collect();
            let expected: Vec<(&str, u64)> = STAGES.iter().map(|&n| (n, request)).collect();
            assert_eq!(children, expected, "{id}");
            // Stage spans are sequential, so they cover the request span
            // up to the bookkeeping between them.
            let root = &spans[staged.root];
            let covered: u64 = spans
                .iter()
                .filter(|s| s.parent == Some(staged.root))
                .map(|s| s.duration_ns())
                .sum();
            assert_eq!(rec.self_time_ns(staged.root), root.duration_ns() - covered);
        }
    }
}
